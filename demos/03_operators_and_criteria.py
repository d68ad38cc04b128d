"""Adjoints, shifted norm identities, and the self-adjointness criteria.

Real symmetric matrices sit in the canonical hypothesis family: the
unit-scaled operators iA, jA, kA are anti-symmetric, so each non-real shift q
obeys ||(A-q)phi||^2 = ||(A-q0)phi||^2 + |Im q|^2 ||phi||^2 and the three
classic self-adjointness criteria coincide.
"""

import numpy as np

from qdef import (Basis, Quaternion, criteria_report, inner,
                  norm_identity_check, random_qvector, real_symmetric,
                  resolvent_poly, shift_left_scalar, symmetry_predicates)

rng = np.random.default_rng(1)
A = real_symmetric(5, seed=3)
L = Basis.canonical(5)

print("== symmetry predicates ==")
preds = symmetry_predicates(A, L)
print(f"  symmetric: {preds.is_symmetric}; unit-scaled anti-symmetric: {preds.anti}")

print("\n== adjoint identity <psi|A phi> = <A^dag psi|phi> ==")
phi, psi = random_qvector(rng, 5), random_qvector(rng, 5)
drift = (inner(psi, A(phi)) - inner(A.adjoint()(psi), phi)).norm()
print(f"  residual: {drift:.2e}")

print("\n== shifted norm identity at q = 2+i-j+3k ==")
q = Quaternion(2, 1, -1, 3)
res = norm_identity_check(A, L, q, samples=200, seed=0)
print(f"  max residual over 200 samples: {res:.2e}")
print(f"  consequence: (A - q) has trivial kernel for every non-real q")

print("\n== resolvent polynomial factorizes ==")
R = resolvent_poly(A, q)
F = shift_left_scalar(A, q) @ shift_left_scalar(A, q.conjugate())
print(f"  entrywise |R_q(A) - (A-q)(A-qbar)| = {R.max_entry_diff(F):.2e}")

print("\n== the three self-adjointness criteria agree ==")
cr = criteria_report(A, L)
print(f"  A = A^dag: {cr.self_adjoint}; kernels trivial: {cr.kernels_trivial}; "
      f"ranges full: {cr.ranges_full}")
print(f"  same at the general shift {cr.general_q}: kernels "
      f"{cr.general_kernels_trivial}, ranges {cr.general_ranges_full}")
