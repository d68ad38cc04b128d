"""Defect dimensions under a change of the left-multiplication basis.

For operators in the hypothesis family (real symmetric, so the unit-scaled
versions are anti-symmetric), the dimension of ran(A - q)^perp computed with
the canonical left product agrees with the one computed through any randomly
drawn orthonormal basis.  A hand-built adversarial basis aligned with the
operator's eigenvectors can break the equality, which is why the random-trial
check below matters: the failure set is thin, not empty.
"""

import numpy as np

from qdef import (Basis, I, Quaternion, QOperator, QVector,
                  basis_invariance_check, random_basis, rank_q, real_symmetric,
                  shift_left_scalar)

rng = np.random.default_rng(5)

print("== random-basis invariance, 20 fresh (A, basis, q) draws ==")
A = real_symmetric(6, seed=1)
B2 = random_basis(rng, 6)
disc = basis_invariance_check(A, B2, Quaternion(1, 1, -1, 0), trials=20, seed=0)
print(f"  max defect-dimension discrepancy: {disc}")

print("\n== the thin failure set, exhibited ==")
s = 1 / np.sqrt(2)
A2 = QOperator([[1, 0], [0, -1]])
adversarial = Basis([
    QVector([Quaternion(0, 0, -s, 0), Quaternion(0, 0, s, 0)]),
    QVector([Quaternion(s), Quaternion(s)]),
])
d_canonical = 2 - rank_q(shift_left_scalar(A2, I))
d_adversarial = 2 - rank_q(shift_left_scalar(A2, I, adversarial))
print(f"  canonical basis:   dim ran(A - i)^perp = {d_canonical}")
print(f"  adversarial basis: dim ran(A - i)^perp = {d_adversarial}")
print("  (the adversarial basis entangles the eigenvectors with j, outside")
print("   the family where the invariance argument applies)")
