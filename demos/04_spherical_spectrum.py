"""Eigenspheres: the spectrum of a quaternionic matrix is a union of spheres.

A non-real eigenvalue never comes alone; the whole similarity sphere
re + u |im| (u any unit imaginary) belongs to the spectrum, because the
defining polynomial R_q(A) only sees (Re q, |Im q|).  Hermitian matrices have
purely real spheres, and their resolvent norm obeys an explicit bound.
"""

import os
import tempfile

import numpy as np

from qdef import (I, Quaternion, QOperator, hermitian_random, kernel_q,
                  left_scalar, point_sspectrum, random_unit_imaginary,
                  resolvent_bound_check, resolvent_inverse_norm,
                  resolvent_poly, selfadjoint_iff_real)
from qdef.cli import main

print("== a real diagonal matrix: two real points, doubled in the embedding ==")
A = QOperator([[1, 0], [0, 2]])
for s in point_sspectrum(A).spheres:
    print(f"  sphere re={s.re:+.3f} |im|={s.im_mag:.3f} multiplicity={s.multiplicity}")

print("\n== left multiplication by i: one whole unit sphere ==")
B = left_scalar(I, 1)
rep = point_sspectrum(B)
s = rep.spheres[0]
print(f"  sphere re={s.re:+.3f} |im|={s.im_mag:.3f}; all_real={rep.all_real}")
rng = np.random.default_rng(2)
points = [Quaternion(s.re) + random_unit_imaginary(rng) * s.im_mag for _ in range(10)]
dims = {len(kernel_q(resolvent_poly(B, p), scale=1.0)) for p in points}
print(f"  kernel dimension at 10 random points of the sphere: {dims}")

print("\n== hermitian implies real spectrum ==")
H = hermitian_random(4, seed=9)
v = selfadjoint_iff_real(H)
print(f"  self-adjoint: {v.self_adjoint}; spectrum real: {v.all_real} "
      f"(max |im| = {v.max_im_mag:.2e})")

print("\n== resolvent norm bound ||R_q(A)^-1|| <= |Im q|^-2 ==")
for q in (I, I * 2.0, Quaternion(1, 1, 1, 0)):
    inv_norm = resolvent_inverse_norm(H, q)
    bound = 1.0 / q.im_norm() ** 2
    viol = resolvent_bound_check(H, q, samples=30, seed=0)
    print(f"  q={str(q):>8}: computed {inv_norm:.4f} <= bound {bound:.4f} "
          f"(signed excess {viol:.1e}, <= 0 when the bound holds)")

print("\n== CSV export for plotting: qdef sspectrum --format csv ==")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "H.json")
    with open(path, "w") as fh:
        fh.write(H.to_json())
    raise SystemExit(main(["sspectrum", "--matrix", path, "--format", "csv"]))
