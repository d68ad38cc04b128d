"""Left scalar multiplication is basis-dependent; right multiplication is not.

Demonstrates the axioms of the basis-induced left product, the failure of the
mixed composition law for a genuinely quaternionic second basis, and the
basis-change map that intertwines the two products isometrically.
"""

import numpy as np

from qdef import (Basis, J, Quaternion, QVector, delta_map, inner,
                  left_scale, random_basis, random_qvector)

rng = np.random.default_rng(0)
dim = 3
L_canonical = Basis.canonical(dim)
L_rotated = random_basis(rng, dim, label="random quaternionic")

phi = random_qvector(rng, dim)
q = Quaternion(0.5, 1, -1, 2)

print("== the same scalar, two left products ==")
a = left_scale(L_canonical, q, phi)
b = left_scale(L_rotated, q, phi)
print(f"  canonical product differs from rotated product by "
      f"{(a - b).norm():.3f} (they are different operations)")
print(f"  both preserve the norm scaling |q| ||phi||:")
print(f"    canonical: {a.norm():.6f}, rotated: {b.norm():.6f}, "
      f"|q|*||phi|| = {q.norm() * phi.norm():.6f}")

print("\n== composition law holds inside one product ==")
p = Quaternion(1, 0, 2, 0)
lhs = left_scale(L_rotated, p, left_scale(L_rotated, q, phi))
rhs = left_scale(L_rotated, p * q, phi)
print(f"  p.(q.phi) vs (pq).phi residual: {(lhs - rhs).norm():.2e}")

print("\n== but mixing two quaternionic bases breaks it ==")
s = 1 / np.sqrt(2)
L_h1 = Basis.canonical(1)
L_theta = Basis([QVector([Quaternion(s, s, 0, 0)])])
one = QVector([Quaternion(1)])
mixed = left_scale(L_theta, Quaternion(1), left_scale(L_h1, J, one))
direct = left_scale(L_theta, J, one)
print(f"  1*(j.1) = {mixed[0]}   but   (1 j)*1 = {direct[0]}")
print("  (equal only when the transition matrix between bases is real)")

print("\n== the basis-change map is an isometry ==")
worst = 0.0
for _ in range(200):
    psi1, psi2 = random_qvector(rng, dim), random_qvector(rng, dim)
    d1 = delta_map(L_canonical, L_rotated, q, psi1)
    d2 = delta_map(L_canonical, L_rotated, q, psi2)
    worst = max(worst, (inner(d1, d2) - inner(psi1, psi2)).norm())
print(f"  worst inner-product drift over 200 pairs: {worst:.2e}")
