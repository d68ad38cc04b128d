"""Deficiency indices of three banded operators on half-line sequences.

The diagonal number operator and the free Jacobi operator are essentially
self-adjoint: no square-summable solution of the shifted kernel recurrence
exists at non-real shifts, so the indices are (0, 0).  Growing the
off-diagonal couplings like (n+1)^2 turns the operator limit-circle: one
square-summable solution appears on each side and the indices become (1, 1).
"""

from qdef import (I, Quaternion, classify_solution, deficiency_indices,
                  formal_solutions, free_jacobi, index_stability_scan,
                  jacobi_sq, number_operator, truncated_kernel,
                  von_neumann_evidence)

print("== indices of the three presets ==")
for maker in (number_operator, free_jacobi, jacobi_sq):
    op = maker()
    rep = deficiency_indices(op, "i", N=2000, window=100)
    print(f"  {op.description:38s} -> (n+, n-) = {rep.indices}, "
          f"self-adjoint: {rep.self_adjoint}")

print("\n== what the solutions look like ==")
op = jacobi_sq()
sol = formal_solutions(op, I, 2000)[0]
verdict = classify_solution(op, sol)
print(f"  limit-circle solution: verdict {verdict.verdict}, block energy "
      f"ratio {verdict.ratio:.3f}, backward check {sol.backward_check}")
op2 = free_jacobi()
sol2 = formal_solutions(op2, I, 2000)[0]
v2 = classify_solution(op2, sol2)
print(f"  limit-point solution:  verdict {v2.verdict}, block energy "
      f"ratio {v2.ratio:.3e}")

print("\n== the indices do not depend on the unit or the shift ==")
for unit in ("i", "j", "k"):
    rep = deficiency_indices(op, unit, N=1200, window=100)
    print(f"  unit {unit}: {rep.indices}")
scan = index_stability_scan(op, I, count=10, N=1200, window=100, seed=3)
print(f"  kernel dimension across {len(scan['samples'])} shifts in B(i, 1): "
      f"constant {scan['constant_dim']}")

print("\n== the dense embedding agrees with the recurrence ==")
for maker in (number_operator, free_jacobi, jacobi_sq):
    op3 = maker()
    dense = truncated_kernel(op3, I, 60).qdim
    recur = len(formal_solutions(op3, I, 60))
    print(f"  {op3.description:38s} truncated kernel {dense} == "
          f"formal solutions {recur}")

print("\n== the two defect spaces are direct ==")
ev = von_neumann_evidence(jacobi_sq(), Quaternion(1, 1, 1, 0), N=1500)
print(f"  dims ({ev['dim_plus']}, {ev['dim_minus']}), combined Gram min "
      f"eigenvalue {ev['gram_min_eig']:.3f}")
