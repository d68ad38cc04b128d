"""Invariant suites over a single operator, assembled for the CLI harness.

Each check returns a row {name, passed, residual, tolerance}; the suite is
deterministic for a fixed seed, and every row records the tolerance it was
judged against so reports are auditable.
"""

from __future__ import annotations

import numpy as np

from . import embed
from .deficiency import (BandedOperator, _banded_evidence, _count_l2,
                         _scan_result, _scan_shifts, _unit_report, _unit_shifts,
                         basis_invariance_check, deficiency_indices, truncated_kernel)
from .errors import InternalInconsistency
from .qoperator import (SYM_ATOL, QOperator, norm_identity_check,
                        resolvent_poly, scalar_op, shift_left_scalar,
                        symmetry_predicates, criteria_report)
from .quat import I, Quaternion, qconj, qmatmul_stack, qmul, qnormsq
from .rmodule import random_basis
from .spectrum import (REAL_SPECTRUM_TOL, point_sspectrum,
                       resolvent_bound_check, selfadjoint_iff_real)
from .tolerances import Tolerances


def _row(name, passed, residual=None, tolerance=None, detail=""):
    return {
        "name": name,
        "passed": bool(passed),
        "residual": None if residual is None else float(residual),
        "tolerance": None if tolerance is None else float(tolerance),
        "detail": detail,
    }


def _bounded(name, value, limit, detail=""):
    """A row that passes when ``value <= limit``."""
    return _row(name, value <= limit, value, limit, detail)


def _worst(values):
    """The running maximum from 0.0, taken in loop order."""
    return max([0.0, *values])


def _qnorms(rows):
    """Norms of the quaternions of a (k, 4) array, in the scalar arithmetic of
    ``Quaternion.norm``."""
    return [Quaternion.from_array(q).norm() for q in rows]


def _vector_norms(vs):
    """Norms of the vectors of an (s, n, 4) stack, each summed over n as
    ``QVector.norm`` sums one vector."""
    return np.sqrt(qnormsq(vs).sum(axis=-1))


def _adjoint_identity(A: QOperator, adj: QOperator, rng) -> float:
    """Worst |<psi, A phi> - <A* psi, phi>| over 20 pairs of random unit
    vectors, drawn (phi, psi) pair by pair and applied as stacks."""
    vs = rng.standard_normal((20, 2, A.dim, 4)).reshape(40, A.dim, 4)
    vs = vs / _vector_norms(vs)[:, None, None]
    phi, psi = vs[0::2], vs[1::2]
    lhs = qmul(qconj(psi), qmatmul_stack(A.entries, phi)).sum(axis=1)
    rhs = qmul(qconj(qmatmul_stack(adj.entries, psi)), phi).sum(axis=1)
    return _worst(_qnorms(lhs - rhs))


def _right_linearity(A: QOperator, rng) -> float:
    """Worst |A(phi x + psi y) - A(phi) x - A(psi) y| / max(|lhs|, 1) over 10
    random quadruples, each drawn as phi, psi, x, y and applied as stacks."""
    n = A.dim
    draws = rng.standard_normal((10, 2 * n + 2, 4))
    phi, psi = draws[:, :n], draws[:, n:2 * n]
    x, y = draws[:, 2 * n, None], draws[:, 2 * n + 1, None]
    lhs = qmatmul_stack(A.entries, qmul(phi, x) + qmul(psi, y))
    rhs = qmul(qmatmul_stack(A.entries, phi), x) + qmul(qmatmul_stack(A.entries, psi), y)
    return _worst(float(d) / max(float(m), 1.0)
                  for d, m in zip(_vector_norms(lhs - rhs), _vector_norms(lhs)))


def _range_perp(A: QOperator, kernel) -> float:
    """Worst |<v, A e_m>| over the adjoint kernel vectors v and the columns of
    A, in that loop order."""
    if not kernel:
        return 0.0
    V = np.array([v.components for v in kernel])
    ips = qmul(qconj(V)[:, None], A.entries.transpose(1, 0, 2)[None]).sum(axis=2)
    return _worst(_qnorms(ips.reshape(-1, 4)))


def verify_matrix(A: QOperator, seed: int, tol: Tolerances,
                  declared: dict | None = None):
    """Invariant suite for a finite quaternionic matrix: check rows, summary and
    the verified SpectrumReport (None when a sphere's kernel is unconfirmed).

    The sampled rows (``adjoint_identity``, ``right_linearity`` and
    ``range_perp_equals_adjoint_kernel``) draw each row's random vectors as
    one stack, in the order the per-vector loops drew them, and apply A and
    A* to a stack with one ``qmatmul_stack``: the residuals and the state of
    the generator afterwards are those of the loops.
    """
    declared = declared or {}
    rng = np.random.default_rng(seed)
    n = A.dim
    checks = []

    B = QOperator.from_entries(rng.standard_normal((n, n, 4)))
    chi_a, chi_b = embed.chi(A), embed.chi(B)
    norm_a = float(np.linalg.norm(chi_a))
    hom = np.max(np.abs(embed.chi(A @ B) - chi_a @ chi_b))
    # a product's rounding error grows with its factors, |fl(AB) - AB| <=
    # gamma_n |A||B| (Higham, Accuracy and Stability, 3.5): limits of computed
    # products are relative to Frobenius norms, floored at 1
    checks.append(_bounded("embedding_homomorphism", hom,
                           tol.atol * max(1.0, norm_a * float(np.linalg.norm(chi_b)))))

    adj = A.adjoint()
    checks.append(_bounded("adjoint_identity", _adjoint_identity(A, adj, rng),
                           1e-10 * max(1.0, norm_a)))

    invol = adj.adjoint().max_entry_diff(A)
    checks.append(_bounded("adjoint_involution", invol, tol.atol))

    checks.append(_bounded("right_linearity", _right_linearity(A, rng), tol.atol))

    kb = embed.kernel_q(adj, tol.rank_tol)
    try:
        rank = embed.rank_q(A, tol.rank_tol)
        # no check compares the kernels of A and A*, so A shares its adjoint's
        # when the two are equal as numbers (the adjoint of a real entry has
        # -0.0 parts)
        kernel = (kb if np.array_equal(adj.entries, A.entries)
                  else embed.kernel_q(A, tol.rank_tol))
        checks.append(_row("rank_nullity", rank + len(kernel) == n,
                           detail=f"rank {rank} of {n}"))
    except InternalInconsistency as exc:
        checks.append(_row("rank_nullity", False, detail=str(exc)))

    checks.append(_bounded("range_perp_equals_adjoint_kernel",
                           _range_perp(A, kb), 1e-10,
                           f"adjoint kernel dim {len(kb)}"))

    lam = embed.eigenvalues_c(A)
    pair = embed.conjugation_defect(lam)
    # a computed eigenvalue is off by about eps ||chi(A)||
    checks.append(_bounded("eigenvalue_conjugation_closure", pair,
                           1e-8 * max(1.0, norm_a)))

    try:
        report = verified = point_sspectrum(A, lam=lam, rank_tol=tol.rank_tol)
        checks.append(_row("sphere_kernel_verification", True,
                           detail=f"{len(report.spheres)} spheres"))
    except InternalInconsistency as exc:
        checks.append(_row("sphere_kernel_verification", False, detail=str(exc)))
        report = point_sspectrum(A, verify_kernels=False, lam=lam)
        verified = None

    preds = symmetry_predicates(A)
    if declared.get("hermitian"):
        checks.append(_row("declared_hermitian", preds.is_symmetric,
                           preds.max_defect, SYM_ATOL))

    if preds.is_symmetric:
        try:
            cr = criteria_report(A, rank_tol=tol.rank_tol, preds=preds)
            checks.append(_row("self_adjointness_criteria_agree", cr.agree,
                               cr.max_defect, SYM_ATOL))
        except InternalInconsistency as exc:
            checks.append(_row("self_adjointness_criteria_agree", False,
                               detail=str(exc)))
        verdict = selfadjoint_iff_real(A, preds=preds, report=report)
        checks.append(_row("spectrum_real_iff_self_adjoint",
                           verdict.self_adjoint == verdict.all_real
                           or not verdict.hypotheses_met,
                           verdict.max_im_mag, REAL_SPECTRUM_TOL))
        q = Quaternion(1.0, 1.0, 1.0, 0.0)
        viol = resolvent_bound_check(A, q, samples=20, seed=seed, preds=preds)
        checks.append(_bounded("resolvent_norm_bound", viol, 1e-8))

    if preds.is_symmetric and preds.all_units_anti():
        worst = 0.0
        shifts = [I, -I, I * 0.5, I * 3.0, Quaternion(*rng.standard_normal(4)),
                  Quaternion(*rng.standard_normal(4))]
        for q in shifts:
            worst = max(worst, norm_identity_check(A, None, q, samples=40, seed=seed,
                                                   preds=preds))
        product_tol = 1e-10 * max(1.0, norm_a) ** 2       # both sides quadratic in A
        checks.append(_bounded("shifted_norm_identities", worst, product_tol))

        q = Quaternion(1.0, 1.0, 1.0, 0.0)
        Rq = resolvent_poly(A, q)
        M1 = shift_left_scalar(A, q) @ shift_left_scalar(A, q.conjugate())
        M2 = shift_left_scalar(A, q.conjugate()) @ shift_left_scalar(A, q)
        fact = max(Rq.max_entry_diff(M1), Rq.max_entry_diff(M2))
        checks.append(_bounded("resolvent_factorization", fact, product_tol))

        iA = scalar_op(I, A)
        Ai = scalar_op(I, A, side="right")
        comm = iA.max_entry_diff(Ai)
        checks.append(_bounded("unit_commutes_through", comm, tol.atol))

        if A.is_real():
            B2 = random_basis(rng, n)
            disc = basis_invariance_check(A, B2, Quaternion(1.0, 1.0, -1.0, 0.0),
                                          rank_tol=tol.rank_tol)
            checks.append(_bounded("defect_dimension_basis_invariance",
                                   float(disc), 0.0))

    return checks, {"spheres": [s.to_dict() for s in report.spheres],
                    "all_real": report.all_real,
                    "embedding_eigenvalues": [[float(z.real), float(z.imag)]
                                              for z in lam]}, verified


def verify_banded(op: BandedOperator, seed: int, tol: Tolerances):
    """Invariant suite for a banded half-line operator.

    Every stage is set up before anything marches, so that a set-up error
    (a non-symmetric operator, a scan the entries do not allow, a bandwidth
    the 60-row dense oracle keeps no row of) comes first; then each stage
    marches once, in report order, and the first march to fail names the
    error.  The scan admits real-entried bands only, and on such a band the
    units i, j and k are one problem on the slice (see ``qdef.deficiency``),
    so the indices are counted at +-i alone."""
    N, window, margin = tol.N, tol.window, tol.ratio
    checks = []

    worst = op.band_symmetry_defect(40)
    checks.append(_bounded("band_symmetry", worst, tol.atol))

    units = _unit_shifts(op, "i")
    scan_shifts = _scan_shifts(op, I, 8, seed)
    # the dense oracle's nullity at +-i, to be compared with the number of
    # formal solutions (evidence rows) that the shared march classifies there
    oracle = [len(truncated_kernel(op, q, 60, tol.rank_tol)) for q in units]
    # One _count_l2 at N for the indices, the scan and the directness
    # evidence at +-i, which reads the kept solutions of +-i
    shared = _count_l2(op, units + scan_shifts, N, window, margin, keep=(0, 1))
    base = _unit_report(op, "i", shared[:2], N, window, margin)
    doubled = deficiency_indices(op, "i", N=2 * N, window=window, ratio_margin=margin)
    checks.append(_row("deficiency_indices_conclusive", base.status == "ok",
                       detail=f"indices {base.indices}"))
    checks.append(_row("truncation_doubling_stable",
                       doubled.indices == base.indices and doubled.status == "ok",
                       detail=f"N={N} -> {base.indices}, N={2 * N} -> {doubled.indices}"))
    checks.append(_row("truncated_matrix_oracle_agreement",
                       all(n == len(counted[1]) for n, counted in zip(oracle, shared))))

    scan = _scan_result(scan_shifts, shared[2:], N, window, seed)
    checks.append(_row("index_stability", scan["status"] == "ok",
                       detail=scan.get("detail") or f"constant dim {scan['constant_dim']}"))

    ev = _banded_evidence(shared[0], shared[1])
    checks.append(_row("defect_space_directness", ev["direct"],
                       detail=f"dims ({ev['dim_plus']}, {ev['dim_minus']})"))

    checks.append(_row("self_adjoint_iff_zero_indices",
                       base.self_adjoint == (base.indices == (0, 0)
                                             and base.status == "ok"),
                       detail=f"verdict {base.self_adjoint}"))

    return checks, base.to_dict()
