"""Quaternion scalars and their 2x2 complex matrix shadow.

Walks through the unit table, conjugation, norms and inverses, and shows the
complex embedding acting as an independent referee for the product formulas.
"""

import numpy as np

from qdef import (I, J, K, Quaternion, embed2x2, format_quaternion,
                  from_embed2x2, parse_quaternion)

print("== the unit table ==")
for name, u, v in (("i*j", I, J), ("j*k", J, K), ("k*i", K, I)):
    print(f"  {name} = {u * v},   reversed = {v * u}")

q = parse_quaternion("1-2i+0.5k")
print(f"\n== literals round-trip ==\n  parsed {q!r} -> printed {format_quaternion(q)}")

p = Quaternion(1, 2, 3, 4)
print(f"\n== conjugate / norm / inverse of 1+2i+3j+4k ==")
print(f"  conjugate = {p.conjugate()}")
print(f"  |q|^2     = {p.norm() ** 2:.1f}   (sum of squared components)")
print(f"  q * q^-1  = {p * p.inverse()}")

print("\n== the 2x2 complex embedding is a homomorphism ==")
a, b = Quaternion(0.3, -1, 2, 0.7), Quaternion(2, 0.1, 0, -1)
lhs = embed2x2(a * b)
rhs = embed2x2(a) @ embed2x2(b)
print(f"  max |embed(ab) - embed(a)embed(b)| = {np.max(np.abs(lhs - rhs)):.2e}")
print(f"  det embed(a) - |a|^2               = "
      f"{abs(np.linalg.det(embed2x2(a)) - a.norm_sq()):.2e}")
print(f"  read back from the matrix: {from_embed2x2(embed2x2(a))}")
