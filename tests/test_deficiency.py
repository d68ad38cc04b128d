import ast
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import qdef.deficiency
from qdef import (Basis, I, J, K, Quaternion, QOperator, BandedOperator,
                  basis_invariance_check, chi, classify_l2, classify_solution,
                  deficiency_indices, formal_solutions, free_jacobi,
                  from_config, index_stability_scan, inner, jacobi_sq,
                  number_operator, parse_quaternion, random_basis,
                  real_symmetric, recurrence_residual, truncated_kernel,
                  von_neumann_evidence)
from qdef.cli import main
from qdef.deficiency import (RESCALE_HI, RESCALE_LO, RESIDUAL_TOL, FormalSolution,
                             _formal_batch, _inv, _march, _normsq)
from qdef.embed import vec
from qdef.errors import PreconditionFailed, SingularLeadingCoefficient
from qdef.quat import _qmul, _signed
from qdef.tolerances import DEFAULT

DATA = Path(__file__).parent / "data"


def coeff(op, n, d) -> Quaternion:
    """The entry A[n, n+d] of a banded operator."""
    return Quaternion(*op.coeff_tuple(n, d))


def synthetic_solution(coeffs_real, q=I):
    arr = np.asarray(coeffs_real, dtype=complex)
    return FormalSolution(arr, np.zeros(len(coeffs_real)), q, 0)


class TestBandedOperator:
    def test_presets_validate(self):
        for maker in (number_operator, free_jacobi, jacobi_sq):
            op = maker()
            assert op.symmetric and op.real_entries

    def test_symmetry_relation_sampled(self):
        op = jacobi_sq()
        for n in range(30):
            assert coeff(op, n, 1).isclose(coeff(op, n + 1, -1).conjugate(), atol=0)

    def test_declared_symmetric_rejected_when_not(self):
        with pytest.raises(ValueError):
            BandedOperator(1, {-1: [1.0], 0: [0.0], 1: [2.0]})

    def test_declared_real_rejected_when_not(self):
        with pytest.raises(ValueError):
            BandedOperator(0, {0: [Quaternion(0, 1, 0, 0)]}, real_entries=True,
                           symmetric=False)

    def test_config_roundtrip(self):
        cfg = {
            "bandwidth": 1,
            "coeff": {"type": "poly", "offset_-1": [0, 0, 1],
                      "offset_0": [0], "offset_1": [1, 2, 1]},
            "real_entries": True,
        }
        op = from_config(cfg)
        ref = jacobi_sq()
        for n in range(20):
            for d in (-1, 0, 1):
                assert coeff(op, n, d).isclose(coeff(ref, n, d), atol=0)

    def test_config_quaternion_literals(self):
        cfg = {
            "bandwidth": 0,
            "coeff": {"type": "poly", "offset_0": ["1+j"]},
            "real_entries": False,
            "symmetric": False,
        }
        op = from_config(cfg)
        assert coeff(op, 5, 0).isclose(Quaternion(1, 0, 1, 0), atol=0)

    def test_truncate_matches_coeff(self):
        op = jacobi_sq()
        T = QOperator.from_entries(op.truncate(6))
        assert T.entry(2, 3).isclose(Quaternion(9), atol=0)
        assert T.entry(3, 2).isclose(Quaternion(9), atol=0)
        assert T.entry(0, 0).isclose(Quaternion(0), atol=0)


class TestFormalSolutions:
    def test_number_operator_has_none_off_axis(self):
        assert formal_solutions(number_operator(), I, 200) == []

    def test_number_operator_hits_integer(self):
        sols = formal_solutions(number_operator(), Quaternion(3), 50)
        assert len(sols) == 1 and sols[0].seed_slot == 3

    def test_free_jacobi_three_term_recurrence(self):
        sols = formal_solutions(free_jacobi(), I, 60)
        assert len(sols) == 1
        c = [Quaternion.from_array(v) for v in sols[0].values()]
        assert c[0].isclose(Quaternion(1), atol=0)
        assert c[1].isclose(I, atol=1e-13)
        for n in range(1, 59):
            # c_{n+1} = i c_n - c_{n-1}
            assert c[n + 1].isclose(I * c[n] - c[n - 1],
                                    atol=1e-10 * max(1.0, c[n + 1].norm()))

    def test_against_truncated_kernel_direction(self):
        sols = formal_solutions(free_jacobi(), I, 60)
        vecs = truncated_kernel(free_jacobi(), I, 61)
        assert len(vecs) == 1
        sol_vec = sols[0].to_qvector()
        kv = vecs[0]
        # right-proportional: kv = sol_vec * s for the quaternion s below
        s = inner(sol_vec, kv) / sol_vec.norm_sq()
        assert (sol_vec * s - kv).norm() <= 1e-8 * kv.norm()

    def test_residual_invariant(self):
        for maker, q in ((free_jacobi, I), (jacobi_sq, I),
                         (jacobi_sq, Quaternion(1, 1, 1, 0))):
            op = maker()
            for sol in formal_solutions(op, q, 1500):
                assert recurrence_residual(op, sol) <= 1e-10

    def test_growing_solution_rescaled_not_overflowed(self):
        sols = formal_solutions(free_jacobi(), I, 4000)
        assert np.all(np.isfinite(sols[0].mantissas))
        assert sols[0].log_scale[-1] > 100.0  # genuinely rescaled

    def test_short_truncation_rejected(self):
        with pytest.raises(PreconditionFailed):
            formal_solutions(free_jacobi(), I, 5)

    @pytest.mark.parametrize("c", [1.0, 1.1, 1.2, 1.3])
    def test_two_chain_truncated_kernel(self, c):
        # two decoupled chains: quaternionic nullity 2 of the truncated rows
        op = jacobi(2, 2, c)
        kb = truncated_kernel(op, I, 60)
        assert len(kb) == 2
        arr = op.truncate(60)
        arr[np.arange(60), np.arange(60)] -= I.to_array()
        M = chi(arr[:58])
        for v in kb:
            assert np.linalg.norm(M @ vec(v)) <= 1e-10 * np.linalg.norm(M)

    def test_singular_leading_coefficient(self):
        # couple between n and n+1 is n, so coeff(0, 1) = 0 blocks row 0
        op = BandedOperator(1, {-1: [-1, 1], 0: [0], 1: [0, 1]},
                            symmetric=True, real_entries=True)
        with pytest.raises(SingularLeadingCoefficient):
            formal_solutions(op, I, 100)

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_lead_of_any_size_inverts(self, c):
        # zero-diagonal b_n = c is bounded, so self-adjoint at every c: a lead
        # is singular only where its squared norm underflows
        op = BandedOperator(1, {-1: [c], 0: [0.0], 1: [c]})
        rep = deficiency_indices(op, "i", N=400, window=40)
        assert rep.indices == (0, 0) and rep.status == "ok"
        scan = index_stability_scan(op, I, N=400, window=40)
        assert scan["constant_dim"] == 0 and scan["status"] == "ok"

    def test_underflowing_lead_is_singular(self):
        op = BandedOperator(1, {-1: [1e-160], 0: [0.0], 1: [1e-160]})
        with pytest.raises(SingularLeadingCoefficient):
            formal_solutions(op, I, 100)


class TestClassify:
    def test_block_energies_match_fsum(self):
        # window 4, 24 terms: the fit reads blocks 3, 4 and 5
        mags = np.array([1.0, 2.0, 0.5, 3.0] * 3
                        + [0.0] * 4                  # all-zero block
                        + [2.0, 2.0, 2.0, 2.0]       # four tied maxima
                        + [3.0, 0.0, 3.0, 1e-3])     # two tied maxima and a zero
        arr = np.stack([0.6 * mags, -0.8 * mags], axis=-1).astype(complex)  # chi pairs
        log_scale = 0.5 * (np.arange(24) // 4)       # constant inside a block
        sol = FormalSolution(arr, log_scale, I, 0)
        got = classify_l2(sol, window=4).block_log_energies
        assert len(got) == 3 and got[0] == -np.inf
        for b, value in zip((4, 5), got[1:]):
            terms = [math.exp(2.0 * log_scale[n]) * mags[n] ** 2
                     for n in range(4 * b, 4 * b + 4)]
            assert abs(value - math.log(math.fsum(terms))) <= 1e-12

    def test_geometric_decay(self):
        sol = synthetic_solution(2.0 ** -np.arange(600.0))
        assert classify_l2(sol, window=100).verdict == "square_summable"

    def test_constant_divergent(self):
        sol = synthetic_solution(np.ones(600))
        assert classify_l2(sol, window=100).verdict == "divergent"

    def test_free_jacobi_divergent_both_scales(self):
        op = free_jacobi()
        for N in (2000, 4000):
            sol = formal_solutions(op, I, N)[0]
            assert classify_solution(op, sol).verdict == "divergent"

    def test_jacobi_sq_summable_both_scales(self):
        op = jacobi_sq()
        for N in (2000, 4000):
            sol = formal_solutions(op, I, N)[0]
            v = classify_solution(op, sol)
            assert v.verdict == "square_summable"
            assert sol.backward_check == "ok"

    def test_super_geometric_growth_is_divergent_without_warning(self):
        # a = (n+1)^3, b = (n+1)^2: the block energies grow so fast that the
        # fitted ratio overflows to inf; tier-1 turns a RuntimeWarning into
        # an error
        op = BandedOperator(1, {-1: [0.0, 0.0, 1.0], 0: [1.0, 3.0, 3.0, 1.0],
                                1: [1.0, 2.0, 1.0]})
        rep = deficiency_indices(op, "i", N=2000, window=100)
        assert (rep.n_plus, rep.n_minus, rep.status) == (0, 0, "ok")
        assert [e["verdict"] for e in rep.evidence] == ["divergent", "divergent"]

    def test_window_precondition(self):
        with pytest.raises(PreconditionFailed):
            classify_l2(synthetic_solution(np.ones(100)), window=100)


class TestSafeguardOutcomes:
    """Each way the safeguards can settle a verdict, reached on purpose."""

    def test_backward_discrepancy_downgrades(self, monkeypatch):
        monkeypatch.setattr(qdef.deficiency, "BACKWARD_TOL", -1.0)
        op = jacobi_sq()
        sol = formal_solutions(op, I, 2000)[0]
        assert classify_solution(op, sol).verdict == "inconclusive"
        assert sol.backward_check == "discrepancy"
        rep = deficiency_indices(op, "i")
        assert rep.status == "inconclusive" and rep.indices == (0, 0)
        assert not rep.self_adjoint
        assert [(row["verdict"], row["backward_check"]) for row in rep.evidence] == \
            [("inconclusive", "discrepancy")] * 2

    def test_probe_on_the_boundary_downgrades(self, monkeypatch):
        monkeypatch.setattr(qdef.deficiency, "BOUNDARY_TOL", math.inf)
        op = free_jacobi()
        sol = formal_solutions(op, I, 2000)[0]
        assert classify_solution(op, sol).verdict == "inconclusive"
        assert sol.backward_check == "not_run"

    @pytest.mark.parametrize("c", [1.0, 1e-6, 1e-9])
    def test_probe_verdict_is_scale_free(self, c):
        # b_n = c, a_n = 0.3c at q = 0.5c i is the c = 1 problem times c:
        # the boundary residual, a ratio of terms of row 0, cannot depend on c
        op = BandedOperator(1, {-1: [c], 0: [0.3 * c], 1: [c]})
        q = Quaternion(0.0, 0.5 * c, 0.0, 0.0)
        sol = formal_solutions(op, q, 1000)[0]
        assert classify_solution(op, sol).verdict == "divergent"
        assert index_stability_scan(op, q, count=4, N=1000)["constant_dim"] == 0

    def test_singular_reverse_lead_skips_the_backward_check(self):
        # forward leads (n+1)^2 never vanish, the reverse lead n - 3 does at
        # row 3; a symmetric band cannot do this
        op = BandedOperator(1, {-1: [-3.0, 1.0], 0: [0.0], 1: [1.0, 2.0, 1.0]},
                            symmetric=False)
        sol = formal_solutions(op, I, 2000)[0]
        assert classify_solution(op, sol).verdict == "square_summable"
        assert sol.backward_check == "skipped"

    def test_rescale_inside_the_seed_window_skips_the_backward_check(self):
        # the same coefficient c_N, written with a log factor one larger
        op = jacobi_sq()
        sol = formal_solutions(op, I, 2000)[0]
        sol.log_scale[-1] += 1.0
        sol.mantissas[-1] /= math.e
        assert classify_solution(op, sol).verdict == "square_summable"
        assert sol.backward_check == "skipped"


class TestDeficiencyIndices:
    def test_preset_indices(self):
        assert deficiency_indices(number_operator(), "i").indices == (0, 0)
        assert deficiency_indices(free_jacobi(), "i").indices == (0, 0)
        assert deficiency_indices(jacobi_sq(), "i").indices == (1, 1)

    def test_self_adjoint_verdict(self):
        assert deficiency_indices(number_operator(), "i").self_adjoint
        assert not deficiency_indices(jacobi_sq(), "i").self_adjoint

    def test_unit_independence(self):
        for maker in (number_operator, free_jacobi, jacobi_sq):
            op = maker()
            idx = {u: deficiency_indices(op, u, N=1200).indices
                   for u in ("i", "j", "k")}
            assert len(set(idx.values())) == 1

    def test_truncation_doubling(self):
        for maker in (free_jacobi, jacobi_sq):
            op = maker()
            r1 = deficiency_indices(op, "i", N=2000)
            r2 = deficiency_indices(op, "i", N=4000)
            assert r1.indices == r2.indices
            assert r1.status == r2.status == "ok"

    def test_scaling_reduction(self):
        # kernel dims at q = i*lam equal kernel dims of (1/lam) A at q = i
        lam = 2.0
        for maker, polys in ((free_jacobi, {-1: [1.0], 0: [0.0], 1: [1.0]}),
                             (jacobi_sq, {-1: [0.0, 0.0, 1.0], 0: [0.0],
                                          1: [1.0, 2.0, 1.0]})):
            op = maker()
            np.testing.assert_array_equal(BandedOperator(1, polys).table(40),
                                          op.table(40))
            scaled = BandedOperator(1, {d: [c / lam for c in coeffs]
                                        for d, coeffs in polys.items()})
            d_direct = deficiency_indices(op, "i", N=1500)
            # shift i*lam realized through the scaled operator at unit shift
            sols = formal_solutions(op, I * lam, 1500)
            n_at_lam = sum(classify_solution(op, s).verdict == "square_summable"
                           for s in sols)
            sols_s = formal_solutions(scaled, I, 1500)
            n_scaled = sum(classify_solution(scaled, s).verdict == "square_summable"
                           for s in sols_s)
            assert n_at_lam == n_scaled
            assert d_direct.status == "ok"

    @pytest.mark.xfail(strict=True, reason=(
        "both solutions fit a block ratio of 0.99945, within the 1e-3 margin of "
        "1, and the flat-trend rule reads the power-law tail as divergent"))
    def test_slow_power_law_tail_is_not_read_divergent(self):
        # the known answer is (1, 1) (Berezanskii); at the default window the
        # same flip comes by N = 10^6
        rep = deficiency_indices(jacobi_sq(), "i", N=20000, window=4)
        assert rep.indices == (1, 1) or rep.status == "inconclusive"

    @pytest.mark.parametrize("counts,status,self_adjoint", [
        ((0, False, 0, False), "ok", True),
        ((1, False, 1, False), "ok", False),
        ((0, True, 0, False), "inconclusive", False),
    ])
    def test_self_adjoint_is_zero_indices_ok(self, counts, status, self_adjoint):
        # the definition of the verdict, held on hand-made _count_l2 entries
        n_plus, inc_plus, n_minus, inc_minus = counts
        rep = qdef.deficiency._unit_report(
            number_operator(), "i", [(n_plus, [], inc_plus, None),
                                     (n_minus, [], inc_minus, None)], 400, 40, 1e-3)
        assert (rep.indices, rep.status) == ((n_plus, n_minus), status)
        assert rep.self_adjoint is self_adjoint
        assert rep.self_adjoint == (rep.indices == (0, 0) and rep.status == "ok")

    def test_bad_unit(self):
        with pytest.raises(ValueError):
            deficiency_indices(number_operator(), "x")

    def test_report_json(self):
        rep = deficiency_indices(jacobi_sq(), "i", N=1200)
        obj = rep.to_dict()
        assert obj["n_plus"] == 1 and obj["n_minus"] == 1
        assert json.loads(json.dumps(obj, sort_keys=True)) == obj


class TestStabilityScan:
    def test_number_operator_all_zero(self):
        scan = index_stability_scan(number_operator(), I, count=20, N=800,
                                    window=80, seed=1)
        assert scan["constant_dim"] == 0 and scan["status"] == "ok"
        assert len(scan["samples"]) == 24

    def test_jacobi_sq_all_one(self):
        scan = index_stability_scan(jacobi_sq(), I, count=20, N=1500,
                                    window=100, seed=2)
        assert scan["constant_dim"] == 1 and scan["status"] == "ok"

    def test_real_center_rejected(self):
        with pytest.raises(PreconditionFailed):
            index_stability_scan(number_operator(), Quaternion(5), count=5)


class TestVonNeumannEvidence:
    def test_finite_real_symmetric_trivial(self):
        ev = von_neumann_evidence(real_symmetric(5, seed=0), I)
        assert ev["dim_plus"] == 0 and ev["dim_minus"] == 0
        assert ev["trivial_decomposition"] and ev["direct"]

    def test_jacobi_sq_direct(self):
        for q in (I, I * 2.0, Quaternion(1, 1, 1, 0)):
            ev = von_neumann_evidence(jacobi_sq(), q, N=1500)
            assert (ev["dim_plus"], ev["dim_minus"]) == (1, 1)
            assert ev["gram_min_eig"] > 1e-8 and ev["direct"]

    def test_scaled_unit_shift_same_dims(self):
        e1 = von_neumann_evidence(jacobi_sq(), I, N=1500)
        e2 = von_neumann_evidence(jacobi_sq(), I * 2.0, N=1500)
        assert (e1["dim_plus"], e1["dim_minus"]) == (e2["dim_plus"], e2["dim_minus"])

    def test_defect_spaces_far_apart(self):
        # any unit vector in span K+ keeps distance from span K-
        op = jacobi_sq()
        vp = formal_solutions(op, I, 1500)[0].to_qvector()
        vm = formal_solutions(op, -I, 1500)[0].to_qvector()
        vp = vp / vp.norm()
        vm = vm / vm.norm()
        # distance from vp to the right-span of vm
        proj = vm * inner(vm, vp)
        assert (vp - proj).norm() > 1e-6

    def test_real_shift_rejected(self):
        with pytest.raises(PreconditionFailed):
            von_neumann_evidence(jacobi_sq(), Quaternion(1))


NON_FINITE_SHIFT_CALLS = {
    "scan": lambda q: index_stability_scan(jacobi_sq(), q, count=2, N=400, window=40),
    "evidence": lambda q: von_neumann_evidence(jacobi_sq(), q, N=400, window=40),
    "finite-evidence": lambda q: von_neumann_evidence(real_symmetric(3, seed=0), q),
    "formal": lambda q: formal_solutions(jacobi_sq(), q, 400),
}


class TestNonFiniteShift:
    """A shift or scan center with an infinite or NaN component is refused,
    naming it, before any sample is drawn or any row marched: a NaN center
    once made the scan's resampling loop run forever, and an infinite one
    read back NaN samples or a confident ``direct``."""

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("call", sorted(NON_FINITE_SHIFT_CALLS))
    def test_refused_without_a_warning(self, call, bad):
        q = Quaternion(0.0, bad, 0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionFailed, match=re.escape(repr(q))):
                NON_FINITE_SHIFT_CALLS[call](q)

    def test_real_center_message(self):
        # the CLI's text, which `qdef deficiency --q 1` prints
        with pytest.raises(PreconditionFailed,
                           match="^stability scan center must be non-real$"):
            index_stability_scan(jacobi_sq(), Quaternion(1.0), count=2)


class TestOracleAgreement:
    @pytest.mark.parametrize("name,maker", [
        ("number_operator", number_operator),
        ("free_jacobi", free_jacobi),
        ("jacobi_sq", jacobi_sq),
    ])
    def test_truncated_kernel_counts(self, name, maker):
        op = maker()
        for q in (I, -I, J):
            assert len(truncated_kernel(op, q, 60)) == len(
                formal_solutions(op, q, 60))

    def test_truncation_reads_the_checked_table(self):
        # diag(n^95): squared norms finite on the rows 0..40 validated at
        # construction, infinite from row 42 on.  The corner's own row
        # evaluation gave a nullity of 47 at i, where the kernel is trivial
        op = BandedOperator(0, {0: [0.0] * 95 + [1.0]})
        with pytest.raises(PreconditionFailed, match=r"coeff\(42,0\)"):
            truncated_kernel(op, I, 60)

    @pytest.mark.parametrize("w,M", [(0, 0), (1, 1), (3, 1), (3, 2), (3, 3)])
    def test_truncation_without_rows_rejected(self, w, M):
        # M - w rows are kept: none for M <= w (once sliced from the end)
        op = jacobi(w, 2) if w else number_operator()
        with pytest.raises(PreconditionFailed):
            truncated_kernel(op, I, M)

    def test_truncation_keeping_one_row(self):
        # one equation in w + 1 unknowns with an invertible leading entry
        assert len(truncated_kernel(jacobi(3, 2), I, 4)) == 3


class TestBasisInvariance:
    def test_canonical_second_basis(self):
        A = real_symmetric(4, seed=1)
        B2 = Basis.canonical(4)
        assert basis_invariance_check(A, B2, Quaternion(1, 1, -1, 0)) == 0

    def test_random_rotated_basis(self):
        rng = np.random.default_rng(3)
        A = real_symmetric(6, seed=2)
        B2 = random_basis(rng, 6)
        assert basis_invariance_check(A, B2, Quaternion(1, 1, -1, 0)) == 0

    def test_bulk_trials(self):
        rng = np.random.default_rng(4)
        A = real_symmetric(5, seed=5)
        B2 = random_basis(rng, 5)
        assert basis_invariance_check(A, B2, I, trials=25, seed=6) == 0

    def test_real_shift_rejected(self):
        A = real_symmetric(4, seed=7)
        with pytest.raises(PreconditionFailed):
            basis_invariance_check(A, Basis.canonical(4), Quaternion(2))

    def test_non_real_operator_rejected(self):
        from qdef import hermitian_random
        A = hermitian_random(4, seed=8)
        with pytest.raises(PreconditionFailed):
            basis_invariance_check(A, Basis.canonical(4), I)


# ---------------------------------------------------------------------------
# the recurrence engine against a scalar reference
# ---------------------------------------------------------------------------

def _hmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _habs(a):
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3])


def _habs_scaled(a):
    """|a|, from a divided by its largest component magnitude where the
    plain squares overflow to inf or underflow to 0 with a component nonzero."""
    r = _habs(a)
    big = max(abs(x) for x in a)
    if (r == math.inf or r == 0.0) and 0.0 < big < math.inf:
        r = big * _habs([x / big for x in a])
    return r


def _hinv(a):
    n2 = a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]
    return (a[0] / n2, -a[1] / n2, -a[2] / n2, -a[3] / n2)


def chi_pairs(comps):
    """Quaternion components (..., 4) as chi pairs (..., 2): (q0 + i q3, q2 + i q1)."""
    comps = np.asarray(comps, dtype=float)
    out = np.empty(comps.shape[:-1] + (2,), dtype=complex)
    out.real, out.imag = comps[..., [0, 2]], comps[..., [3, 1]]
    return out


def quaternions(pairs):
    """The inverse of chi_pairs."""
    z1, z2 = pairs[..., 0], pairs[..., 1]
    return np.stack([z1.real, z2.imag, z2.real, z1.imag], axis=-1)


def assert_near_scalar(C, logs, C_ref, logs_ref, tol=1e-12):
    """A march's chi pairs against scalar_march's 4-tuples: every row within
    ``tol`` of the reference row's norm once both take one log scale, and
    NaN in the same rows."""
    got = quaternions(C) * np.exp(logs - logs_ref)[:, None]
    bad = np.isnan(C_ref).any(axis=1)
    assert np.array_equal(np.isnan(got).any(axis=1), bad)
    gap = np.sqrt(_normsq(got - C_ref))[~bad]
    assert np.all(gap <= tol * np.sqrt(_normsq(C_ref))[~bad])


def scalar_march(op, q, N, seeds, reverse=False):
    """One solution of the recurrence in 4-tuple arithmetic, row by row, on
    Python floats."""
    w = op.bandwidth
    qt = (float(q.q0), float(q.q1), float(q.q2), float(q.q3))
    C = [(0.0, 0.0, 0.0, 0.0)] * (N + 1)
    logs = np.zeros(N + 1)
    scale = 0.0
    if not reverse:
        lo, hi, step, out_off, lead_off = 0, N - w + 1, 1, w, w
        seed_idx = range(w)
    else:
        lo, hi, step, out_off, lead_off = N - w, w - 1, -1, -w, -w
        seed_idx = range(N - 2 * w + 1, N + 1)
    for idx, val in zip(seed_idx, seeds):
        C[idx] = tuple(map(float, val))
    tiny = float(np.finfo(float).tiny)
    for n in range(lo, hi, step):
        lead = op.coeff_tuple(n, lead_off)
        if sum(x * x for x in lead) < tiny:
            raise SingularLeadingCoefficient(n, lead)
        acc = _hmul(qt, C[n])
        for d in range(-w, w + 1):
            if d == lead_off:
                continue
            m = n + d
            if m < 0 or m > N:
                continue
            a = op.coeff_tuple(n, d)
            if a == (0.0, 0.0, 0.0, 0.0):
                continue
            t = _hmul(a, C[m])
            acc = (acc[0] - t[0], acc[1] - t[1], acc[2] - t[2], acc[3] - t[3])
        out = n + out_off
        C[out] = _hmul(_hinv(lead), acc)
        logs[out] = scale
        if not reverse:
            active = range(max(0, n + 1 - w), min(N, n + w) + 1)
        else:
            active = range(max(0, n - w), min(N, n - 1 + w) + 1)
        m_abs = max(_habs_scaled(C[idx]) for idx in active)
        if m_abs > 1e120 or (0.0 < m_abs < 1e-120):
            K_ = math.log(m_abs)
            f = math.exp(-K_)
            for idx in active:
                c = C[idx]
                C[idx] = (c[0] * f, c[1] * f, c[2] * f, c[3] * f)
                logs[idx] += K_
            scale += K_
    return np.array(C, dtype=float), logs


def rowwise_residual(op, sol):
    """recurrence_residual one row at a time: the window scaled by its largest
    log factor, Hamilton products by _qmul, the terms d = -w..w added left to
    right, the shift product subtracted, NaN rows passed over as np.fmax does."""
    w = op.bandwidth
    N = sol.length - 1
    tab = op.table(N)
    sq = _signed(sol.q.to_array())
    worst = 0.0
    with np.errstate(all="ignore"):
        for n in range(N - w + 1):
            m = [n + d for d in range(-w, w + 1) if 0 <= n + d <= N]
            ref = max(sol.log_scale[m])
            c = np.zeros((2 * w + 1, 4))
            c[np.array(m) - n + w] = (sol.components(m)
                                      * np.exp(sol.log_scale[m] - ref)[:, None])
            t = [_qmul(_signed(tab[n, k]), c[k]) for k in range(2 * w + 1)]
            qc = _qmul(sq, c[w])
            acc = t[0]
            for term in t[1:]:
                acc = acc + term
            acc = acc - qc
            denom = max(np.sqrt(_normsq(qc)), *(np.sqrt(_normsq(x)) for x in t), 1e-300)
            worst = np.fmax(worst, np.sqrt(_normsq(acc)) / denom)
    return float(worst)


def slice_batch(op, shifts, N):
    """Formal solutions at every shift (one list per shift) of a
    real-entried band, marched on the slice."""
    return _formal_batch(op, shifts, N)[0]


def chi_batch(op, shifts, N):
    """Formal solutions at every shift (one list per shift) of a band of
    bandwidth >= 1, marched as chi pairs on its quaternion table, the
    arithmetic of a quaternion-entried band, whatever its entries."""
    w = op.bandwidth
    seeds = np.eye(w)[..., None] * [1.0, 0.0]              # slot s: c_s = 1
    C, logs = _march(op.table(N), np.repeat([q.to_array() for q in shifts], w, axis=0),
                     N, np.tile(seeds, (len(shifts), 1, 1)))
    return [[FormalSolution(C[i * w + s], logs[i * w + s], q, s) for s in range(w)]
            for i, q in enumerate(shifts)]


class TestResidualReference:
    """recurrence_residual's value, bit for bit, against rowwise_residual."""

    @pytest.mark.parametrize("q", [I, Quaternion(0.3, 1.0, -2.0, 0.5)],
                             ids=["unit", "general_axis"])
    @pytest.mark.parametrize("hamilton", [False, True], ids=["slice", "hamilton"])
    @pytest.mark.parametrize("maker,rescaled", [(free_jacobi, True), (jacobi_sq, False),
                                                (lambda: jacobi(2, 0), True)],
                             ids=["free_jacobi", "jacobi_sq", "jacobi_w2"])
    def test_equals_rowwise_reference(self, maker, rescaled, hamilton, q):
        op = maker()
        sols = (chi_batch if hamilton else slice_batch)(op, [q], 1500)[0]
        assert any(sol.log_scale.any() for sol in sols) == rescaled
        assert all((sol.mantissas.ndim == 2) == hamilton for sol in sols)
        for sol in sols:
            assert recurrence_residual(op, sol) == rowwise_residual(op, sol)

    @pytest.mark.parametrize("hamilton", [False, True], ids=["slice", "hamilton"])
    def test_equals_rowwise_reference_off_solution(self, hamilton):
        # random mantissas: no row cancels, so every term of each row counts
        op = jacobi(2, 0)
        sol = (chi_batch if hamilton else slice_batch)(
            op, [Quaternion(0.3, 1.0, -2.0, 0.5)], 1500)[0][0]
        rng = np.random.default_rng(4)
        sol.mantissas = rng.standard_normal(sol.mantissas.shape + (2,)) @ [1.0, 1j]
        assert recurrence_residual(op, sol) == rowwise_residual(op, sol) > 0.1

    def test_nan_rows_passed_over(self):
        op = free_jacobi()
        sol = chi_batch(op, [I], 1500)[0][0]
        sol.mantissas[700] = np.nan
        got = recurrence_residual(op, sol)
        assert not math.isnan(got)
        assert got == rowwise_residual(op, sol)


def jacobi_cfg(w, p, c=1.3, diag=0.0):
    """Band A[n, n+w] = c (n+1)^p, A[n, n-w] = c (n-w+1)^p, constant diagonal."""
    up = [c * math.comb(p, k) for k in range(p + 1)]
    down = [c * math.comb(p, k) * (1 - w) ** (p - k) for k in range(p + 1)]
    return {"bandwidth": w, "real_entries": True,
            "coeff": {"type": "poly", f"offset_{w}": up,
                      f"offset_{-w}": down, "offset_0": [diag]}}


def jacobi(w, p, c=1.3, diag=0.0):
    return from_config(jacobi_cfg(w, p, c, diag))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def poly_eval(coeffs, n):
    """One polynomial entry in Quaternion scalar arithmetic, the reference for
    the vectorized table."""
    acc = Quaternion(0.0)
    p = 1.0
    for c in coeffs:
        acc = acc + c * p
        p *= n
    return acc


def reference_rows(cfg, lo, hi):
    """Rows lo..hi of a config's table, one entry at a time through poly_eval."""
    w = cfg["bandwidth"]
    polys = {int(key[len("offset_"):]): [parse_quaternion(c) if isinstance(c, str)
                                        else Quaternion(float(c)) for c in val]
             for key, val in cfg["coeff"].items() if key.startswith("offset_")}
    out = np.zeros((hi - lo + 1, 2 * w + 1, 4))
    for n in range(lo, hi + 1):
        for d in range(-w, w + 1):
            if n + d >= 0 and d in polys:
                out[n - lo, d + w] = poly_eval(polys[d], n).to_array()
    return out


# declared non-symmetric, so that the configs the symmetry check rejects
# still build
TABLE_CONFIGS = [{**jacobi_cfg(w, p, c), "symmetric": False} for w in (1, 2)
                 for p in range(4) for c in (1.0, 1.1, 1.2, 1.3)] + [
    {"bandwidth": 0, "coeff": {"offset_0": [-1.5, 0.25, 1.75]}},
    {"bandwidth": 1, "symmetric": False, "real_entries": False,
     "coeff": {"offset_-1": ["1+2i", "-0.5j+3k"], "offset_0": ["-1.5-2k", 0.25],
               "offset_1": ["2-i", "0.1+j", "-k", 1e-3]}},
    # n^k overflows on the late rows: inf and nan entries
    {"bandwidth": 1, "symmetric": False,
     "coeff": {"offset_-1": [1.0] * 90,
               "offset_0": [(-1.0) ** k for k in range(90)]}},
]


class TestPolyTable:
    @pytest.mark.parametrize("cfg", TABLE_CONFIGS)
    def test_bits_of_scalar_evaluation(self, cfg):
        op = from_config(cfg)
        for lo, hi in ((0, 80), (7950, 8000)):
            got, ref = op._rows(lo, hi), reference_rows(cfg, lo, hi)
            assert np.array_equal(got, ref, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert same_bits(op.table(40), reference_rows(cfg, 0, 40))

    @pytest.mark.parametrize("w", [1, 2])
    def test_cubic_jacobi_accepted(self, w):
        # entries near 1e5 by row 40: their rounding is far above an absolute
        # 1e-12, not above a relative one
        op = jacobi(w, 3, c=1.3)
        assert op.band_symmetry_defect(40) <= 1e-15
        rep = deficiency_indices(op, "i")
        assert rep.indices == (w, w) and rep.status == "ok"     # Berezanskii

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_relative_asymmetry_rejected(self, scale):
        # A[n+1, n] = s (1 + 1e-6) against A[n, n+1] = s
        polys = {-1: [scale * (1 + 1e-6)], 0: [0.0], 1: [scale]}
        with pytest.raises(ValueError) as exc:
            BandedOperator(1, polys)
        assert str(exc.value) == "declared symmetric but coeff(0,1) != conj(coeff(1,-1))"
        defect = BandedOperator(1, polys, symmetric=False).band_symmetry_defect(40)
        assert 0.9e-6 <= defect <= 1e-6

    def test_unreal_entry_named(self):
        with pytest.raises(ValueError) as exc:
            BandedOperator(0, {0: [Quaternion(0.5, 1, 0, -2)]}, symmetric=False)
        assert str(exc.value) == "declared real_entries but coeff(0,0) = 0.5+i-2k"

    def test_coefficient_reads(self):
        op = jacobi_sq()
        for n in (0, 5, 41, 42, 5000):       # inside and beyond the cached rows
            for d in (-1, 0, 1):
                ref = poly_eval({-1: [0, 0, 1], 0: [0], 1: [1, 2, 1]}[d], n)
                if n + d < 0:
                    ref = Quaternion(0.0)
                assert op.coeff_tuple(n, d) == tuple(ref.to_array())
        assert op.coeff_tuple(3, 2) == (0.0, 0.0, 0.0, 0.0)

class TestEngine:
    SHIFTS = [I * 3.0, Quaternion(0.3, -0.2, 0.5, 0.1), Quaternion(-1.0, 0.0, 0.0, 0.2)]

    @pytest.mark.parametrize("w,p,diag", [(1, 0, 0.0), (1, 1, 0.5), (1, 2, 0.0),
                                          (2, 0, 0.5), (2, 1, 0.0), (2, 2, 0.0)])
    def test_bit_identical_to_scalar(self, w, p, diag):
        # the quaternion table marches chi pairs, whose complex products
        # round otherwise than the 4-tuple reference's Hamilton products:
        # every row agrees to rounding, rescale events included
        op = jacobi(w, p, diag=diag)
        N = 700
        tab = op.table(N)
        qs = np.array([q.to_array() for q in self.SHIFTS])
        rng = np.random.default_rng(w * 10 + p)
        unit = np.zeros((w, 4))
        unit[0, 0] = 1.0
        probe = np.zeros((2 * w, 4))
        probe[0, 0] = 1.0                                  # c_{N-2w+1} = 1, rest 0
        cases = [(False, [unit] * 3),                        # forward, slot 0
                 (True, [rng.standard_normal((2 * w, 4)) for _ in qs]),   # tails
                 (True, [probe] * 3)]                        # probe seeds
        levels = 0
        for reverse, seeds in cases:
            C, logs = _march(tab, qs, N, chi_pairs(seeds), reverse)
            for b, q in enumerate(self.SHIFTS):
                C_ref, logs_ref = scalar_march(op, q, N, seeds[b], reverse)
                assert_near_scalar(C[b], logs[b], C_ref, logs_ref)
                levels = max(levels, len(np.unique(logs_ref)))
        if p == 0:
            assert levels > 1       # rescale events were compared too

    @pytest.mark.parametrize("op", [
        BandedOperator(1, {-1: [1.0], 0: [1e40], 1: [1.0]}),
        BandedOperator(1, {-1: [1.0], 0: [0.0], 1: [1e60]}, symmetric=False),
    ], ids=["grows-1e40", "decays-1e-60"])
    def test_norm_squares_out_of_range(self, op):
        # |c| passes 1e154, or falls below 1e-162, a row after the window
        # test passed it, so the squares of its norm overflow or underflow:
        # the test takes the norm of the scaled components, as the scalar
        # march does, and the rows agree to rounding
        N = 200
        seeds = np.zeros((1, 1, 4))
        seeds[0, 0, 0] = 1.0
        for q in (Quaternion(0.1, 0.5, 0.0, 0.0), Quaternion(-1.0, 0.0, 0.3, 0.2)):
            C, logs = _march(op.table(N), q.to_array()[None], N, chi_pairs(seeds))
            C_ref, logs_ref = scalar_march(op, q, N, seeds[0])
            assert_near_scalar(C[0], logs[0], C_ref, logs_ref)
            assert np.isfinite(logs_ref).all() and np.all(np.abs(C_ref).max(axis=1) > 0)

    def test_batch_company_does_not_change_bits(self):
        op = jacobi_sq()
        N = 400
        rng = np.random.default_rng(5)
        qs = rng.standard_normal((24, 4))
        seeds = np.zeros((24, 1, 2), dtype=complex)
        seeds[:, 0, 0] = 1.0
        tails = chi_pairs(rng.standard_normal((24, 2, 4)))
        for reverse, sd in ((False, seeds), (True, tails)):
            C, logs = _march(op.table(N), qs, N, sd, reverse)
            order = rng.permutation(24)
            C_perm, logs_perm = _march(op.table(N), qs[order], N, sd[order], reverse)
            for b in (0, 7, 23):
                C1, logs1 = _march(op.table(N), qs[b:b + 1], N, sd[b:b + 1], reverse)
                assert same_bits(C[b], C1[0]) and same_bits(logs[b], logs1[0])
            assert same_bits(C[order], C_perm) and same_bits(logs[order], logs_perm)

    def test_real_entries_slice_property(self):
        # real coefficients keep every solution in the slice R[q], so |c_n|
        # depends on Re q and |Im q| only
        sols = [formal_solutions(jacobi_sq(), q, 2000)[0]
                for q in (Quaternion(0.3, 1, 0, 0), Quaternion(0.3, 0, 1, 0),
                          Quaternion(0.3, 0, 0.6, 0.8))]
        ref = sols[0].log_sq_magnitudes() / 2.0
        for sol in sols[1:]:
            rel = np.exp(sol.log_sq_magnitudes() / 2.0 - ref) - 1.0
            assert np.max(np.abs(rel)) <= 1e-13

    @pytest.mark.parametrize("w,p,diag", [(1, 0, 0.5), (1, 1, 0.0), (1, 2, 0.5),
                                          (2, 0, 0.0), (2, 1, 0.5), (2, 2, 0.0)])
    def test_slice_agrees_with_hamilton(self, w, p, diag):
        # real entries keep every solution in the slice of its shift, so the
        # slice march, mapped back, is the march of the quaternion table up
        # to rounding
        op = jacobi(w, p, diag=diag)
        shifts = self.SHIFTS + [Quaternion(0.3, 0.0, 0.6, -0.8), -J * 0.5]
        N = 2000
        for sols, refs in zip(slice_batch(op, shifts, N), chi_batch(op, shifts, N)):
            for sol, ref in zip(sols, refs):
                assert sol.mantissas.ndim == 1 and ref.mantissas.ndim == 2
                got = sol.components() * np.exp(sol.log_scale - ref.log_scale)[:, None]
                gap = np.sqrt(_normsq(got - ref.components()))
                assert np.all(gap <= 1e-12 * np.sqrt(_normsq(ref.components())))

    @pytest.mark.parametrize("maker", [free_jacobi, jacobi_sq] + [
        (lambda w=w, p=p: jacobi(w, p)) for w in (1, 2) for p in range(4)],
        ids=["free_jacobi", "jacobi_sq"] + [f"jacobi_w{w}_p{p}" for w in (1, 2)
                                            for p in range(4)])
    def test_hamilton_unit_j_counts_as_the_slice(self, maker):
        # on the slice the units i, j and k are one problem, so verify counts
        # the indices at +-i alone; +-j marched and classified as chi pairs
        # on the quaternion table gives the slice's verdicts, slot by slot (number_operator
        # is diagonal and marches in neither)
        op = maker()
        report = deficiency_indices(op, "j", N=DEFAULT.N)
        rows, counts = [], []
        for sols in chi_batch(op, [J, -J], DEFAULT.N):
            verdicts = []
            for sol in sols:
                assert recurrence_residual(op, sol) <= RESIDUAL_TOL
                v = classify_solution(op, sol)
                verdicts.append(v.verdict)
                rows.append((sol.seed_slot, v.verdict,
                             v.ratio if math.isfinite(v.ratio) else None,
                             sol.backward_check))
            counts.append(verdicts.count("square_summable"))
        assert [(r["seed_slot"], r["verdict"], r["ratio"], r["backward_check"])
                for r in report.evidence] == rows
        assert report.indices == tuple(counts)

    def test_verify_marches_each_problem_once(self, monkeypatch, capsys):
        forward = []

        def counting(table, shifts, N, seeds, reverse=False):
            if not reverse:
                forward.append(("chi" if table.ndim == 3 else "slice", N,
                                len(shifts)))
            return _march(table, shifts, N, seeds, reverse)

        monkeypatch.setattr(qdef.deficiency, "_march", counting)
        assert main(["verify", "--preset", "jacobi_sq"]) == 0
        capsys.readouterr()
        # one march per N, one row per distinct (Re q, |Im q|): the indices
        # at +-i, the scan (centre and unit directions one problem, 8
        # samples) and the directness evidence share one; then the doubled
        # run
        assert forward == [("slice", 2000, 9), ("slice", 4000, 1)]

    def test_deficiency_marches_once_each_way(self, monkeypatch, capsys):
        calls = []

        def counting(table, shifts, N, seeds, reverse=False):
            calls.append(("slice" if table.ndim == 2 else "chi", N,
                          len(shifts), reverse))
            return _march(table, shifts, N, seeds, reverse)

        monkeypatch.setattr(qdef.deficiency, "_march", counting)
        assert main(["deficiency", "--preset", "jacobi_sq"]) == 0
        capsys.readouterr()
        # +-e are the scan's centre i: 21 distinct problems of 26 shifts, and
        # every square-summable one is re-solved backward
        assert calls == [("slice", 2000, 21, False), ("slice", 2000, 21, True)]

    def test_scan_marches_forward_once(self, monkeypatch):
        calls = []

        def counting(table, qs, N, seeds, reverse=False):
            calls.append((len(qs), reverse))
            return _march(table, qs, N, seeds, reverse)

        monkeypatch.setattr(qdef.deficiency, "_march", counting)
        scan = index_stability_scan(jacobi_sq(), I, count=20, N=600, window=60, seed=3)
        assert len(scan["samples"]) == 24
        # on the slice the centre i and the fixed i, j and k directions are
        # one problem: 21 distinct of 24 shifts
        assert [c for c in calls if not c[1]] == [(21, False)]
        assert [c for c in calls if c[1]] == [(21, True)]   # 21 backward re-solves

    @pytest.mark.parametrize("command,problems", [("verify", 10), ("deficiency", 21)])
    def test_each_problem_checked_and_fitted_once(self, command, problems,
                                                  monkeypatch, capsys):
        calls = {"residual": 0, "fit": 0}

        def residual(op, sol):
            calls["residual"] += 1
            return recurrence_residual(op, sol)

        def fit(sol, *args):
            calls["fit"] += 1
            return classify_l2(sol, *args)

        monkeypatch.setattr(qdef.deficiency, "recurrence_residual", residual)
        monkeypatch.setattr(qdef.deficiency, "classify_l2", fit)
        assert main([command, "--preset", "jacobi_sq"]) == 0
        capsys.readouterr()
        # every jacobi_sq solution is square-summable, so no probe runs: one
        # residual and one fit per distinct problem, verify's 9 at N and 1 at
        # 2N, deficiency's 21 of 26 shifts
        assert calls == {"residual": problems, "fit": problems}

    def test_shifts_of_one_problem_share_its_verdicts(self, monkeypatch):
        checked = []

        def residual(op, sol):
            checked.append(sol.q)
            return recurrence_residual(op, sol)

        monkeypatch.setattr(qdef.deficiency, "recurrence_residual", residual)
        counts = qdef.deficiency._count_l2(jacobi_sq(), [I, -I, J, K, I], 2000, 100,
                                           1e-3)
        # one problem on the slice, checked at its first shift
        assert checked == [I]
        evidence = [rows for _, rows, _, _ in counts]
        assert [row["q"] for rows in evidence for row in rows] == \
            ["i", "-i", "j", "k", "i"]
        assert all([{**row, "q": None} for row in rows] ==
                   [{**row, "q": None} for row in evidence[0]] for rows in evidence)
        assert {(dim, inc) for dim, _, inc, _ in counts} == {(1, False)}

    def test_hamilton_problem_is_the_shift(self, monkeypatch):
        # a quaternion-entried band marches chi pairs, where i and j share a
        # slice number but not a solution: the repeated i is one problem, i
        # and j two
        u = Quaternion(0.6, 0.0, 0.8, 0.0)
        op = BandedOperator(1, {-1: [0.0, 0.0, u.conjugate()], 0: [0.0],
                                1: [u, u * 2.0, u]}, real_entries=False)
        checked, marched = [], []

        def residual(op, sol):
            checked.append(sol.q)
            return recurrence_residual(op, sol)

        def counting(table, shifts, N, seeds, reverse=False):
            marched.append((table.ndim, len(shifts), reverse))
            return _march(table, shifts, N, seeds, reverse)

        monkeypatch.setattr(qdef.deficiency, "recurrence_residual", residual)
        monkeypatch.setattr(qdef.deficiency, "_march", counting)
        counts = qdef.deficiency._count_l2(op, [I, J, I], 2000, 100, 1e-3)
        assert checked == [I, J]
        assert marched == [(3, 2, False), (3, 2, True)]
        assert counts[2] == counts[0]
        assert counts[1][1][0]["ratio"] != counts[0][1][0]["ratio"]

    def test_batches_cut_by_problem(self, monkeypatch):
        # a budget of one problem per batch: +-i, one problem on the slice,
        # march together; on a quaternion band the repeated i joins the
        # first i's batch and j marches alone
        u = Quaternion(0.6, 0.0, 0.8, 0.0)
        band = BandedOperator(1, {-1: [0.0, 0.0, u.conjugate()], 0: [0.0],
                                  1: [u, u * 2.0, u]}, real_entries=False)
        whole = (deficiency_indices(jacobi_sq(), "i", N=2000).to_dict(),
                 qdef.deficiency._count_l2(band, [I, J, I], 2000, 100, 1e-3))
        calls = []

        def counting(table, qs, N, seeds, reverse=False):
            calls.append((len(qs), reverse))
            return _march(table, qs, N, seeds, reverse)

        monkeypatch.setattr(qdef.deficiency, "_march", counting)
        monkeypatch.setattr(qdef.deficiency, "_BATCH_BYTES", 40 * 2001)
        assert deficiency_indices(jacobi_sq(), "i", N=2000).to_dict() == whole[0]
        assert calls == [(1, False), (1, True)]
        calls.clear()
        assert qdef.deficiency._count_l2(band, [I, J, I], 2000, 100, 1e-3) == whole[1]
        assert calls == [(1, False), (1, True)] * 2

    def test_batches_capped_without_changing_results(self, monkeypatch):
        op = jacobi_sq()
        whole = index_stability_scan(op, I, count=20, N=600, window=60, seed=4)
        sizes = []

        def counting(table, qs, N, seeds, reverse=False):
            sizes.append(len(qs))
            return _march(table, qs, N, seeds, reverse)

        monkeypatch.setattr(qdef.deficiency, "_march", counting)
        monkeypatch.setattr(qdef.deficiency, "_BATCH_BYTES", 40 * 601 * 5)
        assert index_stability_scan(op, I, count=20, N=600, window=60, seed=4) == whole
        # batches of five distinct problems, each marched forward and back:
        # the first holds the centre and the three unit directions, one
        # problem on the slice, and four samples
        assert sizes == [5] * 8 + [1] * 2

    @pytest.mark.parametrize("make,unit,center", [
        (jacobi_sq, "i", I),
        (free_jacobi, "k", Quaternion(0.2, 0.7, 0.0, 0.0)),
        (lambda: jacobi(2, 2, 1.0), "j", Quaternion(0.4, 0.0, 0.0, 1.2)),
    ])
    # 5 problems of bandwidth 1 per batch at N = 600: the shared batch and the
    # scan alone split at different problems
    @pytest.mark.parametrize("batch_bytes", [None, 40 * 601 * 5])
    def test_indices_and_scan_equal_separate_calls(self, make, unit, center,
                                                   batch_bytes, monkeypatch):
        if batch_bytes:
            monkeypatch.setattr(qdef.deficiency, "_BATCH_BYTES", batch_bytes)
        op = make()
        shifts = qdef.deficiency._scan_shifts(op, center, 20, 5)
        rep, scan = qdef.deficiency._indices_and_scan(op, unit, shifts, 600, 60, 5,
                                                      0.05)
        assert rep.to_dict() == deficiency_indices(op, unit, N=600, window=60,
                                                   ratio_margin=0.05).to_dict()
        assert scan == index_stability_scan(op, center, count=20, N=600, window=60,
                                            seed=5, ratio_margin=0.05)

    def test_table_rows_built_once(self, monkeypatch):
        asked = []
        real_rows = BandedOperator._rows

        def counting(self, lo, hi):
            asked.extend(range(lo, hi + 1))
            return real_rows(self, lo, hi)

        monkeypatch.setattr(BandedOperator, "_rows", counting)
        op = free_jacobi()
        assert asked == list(range(42))           # validation reads rows 0..41
        asked.clear()
        assert op.table(100).shape == (101, 3, 4)
        assert asked == list(range(42, 101))
        op.table(50)
        deficiency_indices(op, "i", N=100, window=20)
        assert asked == list(range(42, 101))      # shorter tables are slices
        op.table(200)                             # rows 101..200 added
        assert asked == list(range(42, 201))


# ---------------------------------------------------------------------------
# the block march against the row-by-row loop
# ---------------------------------------------------------------------------

def chi_blocks(a):
    """The chi blocks [[z1, -conj(z2)], [z2, conj(z1)]] (..., 2, 2) of
    quaternion components (..., 4)."""
    z = chi_pairs(a)
    z1, z2 = z[..., 0], z[..., 1]
    return np.stack([np.stack([z1, -z2.conj()], -1), np.stack([z2, z1.conj()], -1)], -2)


def chi_mul(a, x):
    """2x2 blocks times chi pairs, one complex product per entry."""
    return a[..., 0] * x[..., :1] + a[..., 1] * x[..., 1:]


def rowwise_march(table, shifts, N, seeds, reverse=False):
    """The recurrence marched and judged row by row, the reference for
    _march's blocks: after each row its window takes the exact test (with
    the scaled norm where the plain squares overflow or underflow)."""
    w = (table.shape[1] - 1) // 2
    tab = table[:N + 1]
    if tab.ndim == 3:
        prep, mul, shifts = chi_blocks, chi_mul, np.asarray(shifts, dtype=float)
    else:
        prep, mul, shifts = np.asarray, np.multiply, np.asarray(shifts, dtype=complex)
    B = len(shifts)
    C = np.zeros((B, N + 1) + np.shape(seeds)[2:], dtype=complex)
    comps = C.view(float).reshape(B, N + 1, -1)
    logs = np.zeros((B, N + 1))
    scale = np.zeros(B)
    if reverse:
        rows, off = range(N - w, w - 1, -1), -w
        C[:, N - 2 * w + 1:] = seeds
    else:
        rows, off = range(N - w + 1), w
        C[:, :w] = seeds
    lead = tab[:, off + w].reshape(N + 1, -1)
    with np.errstate(all="ignore"):
        inv = prep(_inv(lead).reshape(tab[:, off + w].shape))
        terms = [(d, prep(tab[:, d + w]),
                  tab[:, d + w].reshape(N + 1, -1).any(axis=1).tolist())
                 for d in range(-w, w + 1) if d != off and tab[:, d + w].any()]
        sq = prep(shifts)
        for n in rows:
            acc = mul(sq, C[:, n])
            for d, coef, nonzero in terms:
                m = n + d
                if 0 <= m <= N and nonzero[n]:
                    acc -= mul(coef[n], C[:, m])
            out = n + off
            C[:, out] = mul(inv[n], acc)
            logs[:, out] = scale
            if reverse:
                lo, hi = max(0, n - w), min(N, n - 1 + w) + 1
            else:
                lo, hi = max(0, n + 1 - w), min(N, n + w) + 1
            window = comps[:, lo:hi]
            mags = np.sqrt(_normsq(window))
            big = np.abs(window).max(axis=-1)
            odd = ((mags == 0.0) | np.isinf(mags)) & (0.0 < big) & (big < np.inf)
            mags[odd] = big[odd] * np.sqrt(_normsq(window[odd] / big[odd, None]))
            top = mags[:, 0]
            for k in range(1, hi - lo):
                top = np.where(mags[:, k] > top, mags[:, k], top)
            hit = (top > RESCALE_HI) | ((0.0 < top) & (top < RESCALE_LO))
            for b in np.flatnonzero(hit):
                K = math.log(top[b])
                comps[b, lo:hi] *= math.exp(-K)
                logs[b, lo:hi] += K
                scale[b] += K
    return C, logs


def march_cases(table, N, rng, B=5):
    """(shifts, seeds, reverse) in the table's arithmetic: unit seeds
    forward, random tails and probe seeds reverse."""
    w = (table.shape[1] - 1) // 2
    if table.ndim == 3:
        qs = rng.standard_normal((B, 4))
        qs[0] = [0.0, 3.0, 0.0, 0.0]
        tails = chi_pairs(rng.standard_normal((B, 2 * w, 4)))
        unit = np.zeros((B, w, 2), complex)
        probe = np.zeros((B, 2 * w, 2), complex)
        unit[:, 0, 0] = probe[:, 0, 0] = 1.0
    else:
        qs = rng.standard_normal(B) + 1j * np.abs(rng.standard_normal(B))
        tails = rng.standard_normal((B, 2 * w)) + 1j * rng.standard_normal((B, 2 * w))
        unit = np.zeros((B, w), complex)
        probe = np.zeros((B, 2 * w), complex)
        unit[:, 0] = probe[:, 0] = 1.0
    return [(qs, unit, False), (qs, tails, True), (qs, probe, True)]


def assert_same_march(table, shifts, N, seeds, reverse):
    C, logs = _march(table, shifts, N, seeds, reverse)
    C_ref, logs_ref = rowwise_march(table, shifts, N, seeds, reverse)
    assert C.shape == C_ref.shape and C.tobytes() == C_ref.tobytes()
    assert logs.shape == logs_ref.shape and logs.tobytes() == logs_ref.tobytes()
    return logs_ref


def diagonal_band(w, diag, lead=1.0):
    """Unit band at +-w (the forward lead ``lead``) and a constant diagonal."""
    return BandedOperator(w, {-w: [1.0], 0: [diag], w: [lead]}, symmetric=lead == 1.0)


class TestBlockMarch:
    """_march judges rows in blocks: every bit must be what the row-by-row
    loop writes."""

    @pytest.mark.parametrize("w,p,diag", [(1, 0, 0.0), (1, 1, 0.5), (1, 2, 0.0),
                                          (2, 0, 0.0), (2, 1, 0.5), (2, 2, 0.0)])
    @pytest.mark.parametrize("hamilton", [False, True])
    def test_jacobi(self, w, p, diag, hamilton):
        op = jacobi(w, p, diag=diag)
        rng = np.random.default_rng(10 * w + p)
        for N in (10 * w, 10 * w + 1, 700):
            table = op.table(N) if hamilton else op.table(N)[..., 0]
            for case in march_cases(table, N, rng):
                assert_same_march(table, case[0], N, case[1], case[2])

    @pytest.mark.parametrize("op", [
        diagonal_band(1, 1e30),                 # grows 1e30 a row: a rescale every ~4
        diagonal_band(2, 1e30),
        diagonal_band(1, 1e40),                 # |c| beyond 1e154: squares overflow
        diagonal_band(1, 0.0, lead=1e30),       # decays through RESCALE_LO
        diagonal_band(1, 0.0, lead=1e60),       # |c| below 1e-162: squares underflow
    ], ids=["diag1e30", "w2-diag1e30", "diag1e40", "decay1e-30", "decay1e-60"])
    @pytest.mark.parametrize("hamilton", [False, True])
    def test_frequent_rescales(self, op, hamilton):
        N = 400
        table = op.table(N) if hamilton else op.table(N)[..., 0]
        for case in march_cases(table, N, np.random.default_rng(3)):
            logs = assert_same_march(table, case[0], N, case[1], case[2])
            assert np.isfinite(logs).all()
            if not case[2]:
                assert len(np.unique(logs[0])) >= 40      # rescaled every few rows

    def test_rescale_on_each_row_of_a_block(self, monkeypatch):
        # over lengths 40..103 the rescales of a 1e30 diagonal fall on the
        # first, last and inner rows of multi-row blocks; seeds 1e30 apart
        # put one solution's rescale a row after the other's
        settle = qdef.deficiency._settle
        where = set()

        def recording(C, comps, logs, scale, block, w):
            kept, hit = settle(C, comps, logs, scale, block, w)
            if hit is not None and len(block) > 1:
                where.add("first" if kept == 1 else "last" if kept == len(block)
                          else "inner")
            return kept, hit

        monkeypatch.setattr(qdef.deficiency, "_settle", recording)
        table = diagonal_band(1, 1e30).table(103)[..., 0]
        for N in range(40, 104):
            for shifts, seeds in (([0.3 + 1j, -0.2 + 0.5j], [[1.0], [1.0]]),
                                  ([0.3 + 1j, 0.3 + 1j], [[1.0], [1e30]])):
                assert_same_march(table, shifts, N, np.array(seeds, complex), False)
            assert_same_march(table, shifts, N, np.ones((2, 2), complex), True)
        assert where == {"first", "last", "inner"}

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("hamilton", [False, True])
    def test_nan(self, reverse, hamilton):
        # a window's top passes over a NaN after its first entry, as Python's
        # max does, and a NaN top never rescales, in every batch position
        op = jacobi(1, 0)
        N = 300
        table = op.table(N) if hamilton else op.table(N)[..., 0]
        for qs, seeds, rev in march_cases(table, N, np.random.default_rng(4)):
            if rev != reverse:
                continue
            for b in (0, 2):
                bad = seeds.copy()
                bad[b] = np.nan
                assert_same_march(table, qs, N, bad, reverse)
            nan_table = table.copy()
            nan_table[N // 2, 0] = np.nan
            assert_same_march(nan_table, qs, N, seeds, reverse)

    @pytest.mark.parametrize("b", [0, 2])
    @pytest.mark.parametrize("hamilton", [False, True])
    def test_nan_beside_a_tiny_entry(self, b, hamilton):
        # a NaN shift makes solution b NaN from c_2 on, beside its tiny seed
        # c_1: the window's top passes over the NaN, so c_1 rescales
        op = jacobi(2, 0)
        N = 100
        table = op.table(N) if hamilton else op.table(N)[..., 0]
        qs, seeds, _ = march_cases(table, N, np.random.default_rng(6))[0]
        qs[b] = np.nan
        seeds[b, 1] = 1e-130
        # solution 1 rescales at row 0, which ends the first block there
        seeds[1, 0] = 1e130
        logs = assert_same_march(table, qs, N, seeds, False)
        assert logs[b, 1] != 0.0

    @pytest.mark.parametrize("hamilton", [False, True])
    def test_batch_position_changes_no_bit(self, hamilton):
        # the NaN problem above at batch position 0 and at 2: its bits do not
        # depend on where it stands, and as chi pairs they are the 4-tuple
        # march's up to rounding
        op = jacobi(2, 0)
        N = 100
        table = op.table(N) if hamilton else op.table(N)[..., 0]
        qs, seeds, _ = march_cases(table, N, np.random.default_rng(6))[0]
        marched = []
        for b in (0, 2):
            shifts, tails = qs.copy(), seeds.copy()
            shifts[b] = np.nan
            tails[b, 1] = 1e-130
            C, logs = _march(table, shifts, N, tails)
            marched.append((C[b], logs[b]))
        (C0, logs0), (C2, logs2) = marched
        assert same_bits(C0, C2) and same_bits(logs0, logs2)
        if hamilton:
            C_ref, logs_ref = scalar_march(op, Quaternion(*shifts[2]), N,
                                           quaternions(tails[2]))
            assert_near_scalar(C2, logs2, C_ref, logs_ref)

    def test_block_length_follows_rescale_rate(self, monkeypatch):
        settle = qdef.deficiency._settle
        blocks = []

        def recording(C, comps, logs, scale, block, w):
            blocks.append(len(block))
            return settle(C, comps, logs, scale, block, w)

        monkeypatch.setattr(qdef.deficiency, "_settle", recording)
        N = 4000
        shifts = np.linspace(0.1, 2.0, 8) + 1j
        seeds = np.ones((8, 1), complex)
        # every solution rescales every 4 or 5 rows: few rows are marched twice
        _march(diagonal_band(1, 1e30).table(N)[..., 0], shifts, N, seeds)
        assert N <= sum(blocks) <= 1.1 * N
        blocks.clear()
        # each at its own rate, one every ~25 rows in all
        _march(free_jacobi().table(N)[..., 0], 3 * shifts, N, seeds)
        assert sum(blocks) <= 1.2 * N
        blocks.clear()
        # a rescale every ~250 rows: blocks of _BLOCK_LONG rows
        _march(free_jacobi().table(N)[..., 0], [3j], N, seeds[:1])
        assert sum(blocks) <= 1.1 * N
        assert len(blocks) <= 1.5 * N / qdef.deficiency._BLOCK_LONG


    @pytest.mark.parametrize("hamilton", [False, True])
    def test_first_row_judged_by_its_window(self, hamilton):
        # w = 2 chains: row 0's new entry c_2 = q c_0 / a lies in range while
        # the seed c_1 beside it does not, so only the window sees it
        op = jacobi(2, 0)
        N = 100
        table = op.table(N) if hamilton else op.table(N)[..., 0]
        qs, seeds, _ = march_cases(table, N, np.random.default_rng(5))[0]
        seeds[:, 1] = 1e130
        logs = assert_same_march(table, qs, N, seeds, False)
        assert logs[0, 0] > 0.0             # rescaled at row 0

    def test_growth_and_decay_in_one_batch(self):
        # one solution grows past RESCALE_HI while a zero seed slot keeps its
        # chain at 0: every other new entry is 0, below RESCALE_LO
        op = jacobi(2, 0)
        N = 2000
        table = op.table(N)[..., 0]
        seeds = np.array([[1.0, 0.0], [0.0, 1.0], [1e-119, 0.0]], complex)
        logs = assert_same_march(table, np.array([3j, 3j, 0.1j]), N, seeds, False)
        assert len(np.unique(logs[0])) > 1


# ---------------------------------------------------------------------------
# the chi march against the Hamilton reference
# ---------------------------------------------------------------------------

# A[n, n+1] = (n+1)^2 + j, as in tests/test_cli.py
QUATERNION_BAND = {"bandwidth": 1, "real_entries": False,
                   "coeff": {"type": "poly", "offset_-1": ["-1j", 0.0, 1.0],
                             "offset_0": [0.0], "offset_1": ["1+1j", 2.0, 1.0]}}


def quaternion_band(seed, w, p, diag):
    """A symmetric band of random quaternion polynomials: A[n, n+d] of degree
    p at d = w and p - 1 for 0 < d < w, A[n+d, n] its conjugate, and the real
    diagonal diag (n+1)^p, which makes the solutions grow geometrically when
    it dominates."""
    rng = np.random.default_rng(seed)
    polys = {0: [diag * math.comb(p, k) for k in range(p + 1)]}
    for d in range(1, w + 1):
        up = [Quaternion(*rng.standard_normal(4)) for _ in range(p + 1 if d == w else p)]
        polys[d] = up
        # A[m, m-d] = conj(p_d(m - d)), in powers of m
        polys[-d] = [sum((up[k].conjugate() * (math.comb(k, j) * (-d) ** (k - j))
                          for k in range(j, len(up))), Quaternion(0.0))
                     for j in range(len(up))]
    return BandedOperator(w, polys, real_entries=False)


class TestChiMarch:
    """Quaternion entries march as chi pairs, scalar_march row by row in
    Hamilton 4-tuples: over long marches, rescaling ones among them, each
    |c_n| agrees to a relative 1e-11 (at most 9.1e-13 was seen, the error of
    4000 rows of rounding) and classify_solution reads the same."""

    SHIFTS = [I, Quaternion(0.0, 0.6, 0.8, 0.0), Quaternion(0.3, 0.0, 0.0, 2.0)]

    @pytest.mark.parametrize("make,rescales", [
        (lambda: from_config(QUATERNION_BAND), False),
        (lambda: quaternion_band(1, 1, 1, 8.0), True),
        (lambda: quaternion_band(2, 2, 2, 0.0), False),
        (lambda: quaternion_band(3, 2, 1, 8.0), True),
        (lambda: quaternion_band(4, 3, 2, 8.0), True),
    ], ids=["quaternion_band", "w1_p1_growing", "w2_p2", "w2_p1_growing",
            "w3_p2_growing"])
    def test_agrees_with_the_hamilton_reference(self, make, rescales):
        op = make()
        N = 4000
        for q in self.SHIFTS:
            for sol in formal_solutions(op, q, N):
                seeds = np.zeros((op.bandwidth, 4))
                seeds[sol.seed_slot, 0] = 1.0
                C_ref, logs_ref = scalar_march(op, q, N, seeds)
                with np.errstate(divide="ignore"):
                    ref = np.log(np.sqrt((C_ref ** 2).sum(axis=1))) + logs_ref
                got = sol.log_sq_magnitudes() / 2.0
                assert np.array_equal(np.isneginf(got), np.isneginf(ref))
                rows = np.isfinite(ref)
                assert np.all(np.abs(got[rows] - ref[rows]) <= 1e-11)
                assert bool(sol.log_scale.any()) == rescales
                ref_sol = FormalSolution(chi_pairs(C_ref), logs_ref, q, sol.seed_slot)
                assert classify_solution(op, sol).verdict == \
                    classify_solution(op, ref_sol).verdict
                assert sol.backward_check == ref_sol.backward_check


SRC = Path(qdef.deficiency.__file__).parent
HAMILTON = {"_qmul", "_signed"}


def hamilton_names(path):
    """The top-level definitions of a module that name _qmul or _signed,
    and "import" where it imports them."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or \
                getattr(node, "name", None)
            if name in HAMILTON:
                found.add("import" if isinstance(top, ast.ImportFrom)
                          else getattr(top, "name", "<module>"))
    return found


def test_hamilton_products_stay_out_of_the_march():
    # recurrence_residual checks the chi march in Hamilton arithmetic, a
    # route the march must not share
    found = {path.name: hamilton_names(path) for path in sorted(SRC.glob("*.py"))}
    assert found.pop("quat.py")
    assert {name: where for name, where in found.items() if where} == \
        {"deficiency.py": {"import", "recurrence_residual"}}


class TestKnownFamilies:
    """verify answers families whose indices are known in closed form with
    exit 0, whatever the span of their entries: zero-diagonal Jacobi bands of
    degree p >= 2 have indices (w, w) (Berezanskii; Akhiezer, The Classical
    Moment Problem, ch. 1), real diagonals (0, 0).  A 60-row dense corner once
    read a singular value of these operators as zero and failed them."""

    def run(self, tmp_path, capsys, band, argv):
        path = tmp_path / "band.json"
        path.write_text(json.dumps(band))
        code = main(argv + ["--matrix", str(path)])
        out = json.loads(capsys.readouterr().out)
        summary = (out["parts"]["verify"] if out["command"] == "report" else out)["summary"]
        return code, (summary["n_plus"], summary["n_minus"], summary["status"])

    @pytest.mark.parametrize("argv", [["verify"], ["report", "--trials", "2"]])
    @pytest.mark.parametrize("w,p", [(1, 6), (1, 7), (2, 6), (2, 7)])
    def test_steep_jacobi(self, w, p, argv, tmp_path, capsys):
        assert self.run(tmp_path, capsys, jacobi_cfg(w, p, 1.0), argv) == (0, (w, w, "ok"))

    @pytest.mark.parametrize("coeffs", [[0.0, 1e-8], [0.0, 1.0], [0.0, 1e9],
                                        [0.0, 1e12], [0.0] * 7 + [1.0]],
                             ids=["1e-8n", "n", "1e9n", "1e12n", "n^7"])
    def test_real_diagonal(self, coeffs, tmp_path, capsys):
        band = {"bandwidth": 0, "coeff": {"offset_0": coeffs}}
        assert self.run(tmp_path, capsys, band, ["verify"]) == (0, (0, 0, "ok"))


class TestReportBytes:
    """Reports must stay byte-identical to the recorded fixtures."""

    @pytest.mark.parametrize("fixture,argv", [
        ("deficiency_jacobi_sq.json",
         ["deficiency", "--preset", "jacobi_sq", "--N", "1000", "--q=0.2+0.7j"]),
        ("verify_free_jacobi.json", ["verify", "--preset", "free_jacobi", "--N", "1000"]),
        ("deficiency_jacobi_w2.json",
         ["deficiency", "--matrix", str(DATA / "jacobi_w2.json"), "--N", "600",
          "--window", "60", "--count", "6", "--q=0.4+1.2k"]),
        ("report_number_operator.json",
         ["report", "--preset", "number_operator", "--N", "800", "--dim", "4",
          "--trials", "3"]),
    ])
    def test_golden(self, fixture, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == (DATA / fixture).read_text()


class TestMatrixReportBytes:
    """Finite-matrix reports and exit codes must match the recorded fixtures."""

    @pytest.mark.parametrize("command", ["verify", "sspectrum"])
    @pytest.mark.parametrize("matrix,verify_code", [
        ("real_symmetric", 0),
        ("hermitian", 0),
        ("general", 0),
        # entries ~1e3: the product rows pass as their limits scale with A
        ("real_symmetric_large", 0),
    ])
    def test_golden(self, command, matrix, verify_code, capsys):
        argv = [command, "--matrix", str(DATA / f"matrix_{matrix}.json")]
        assert main(argv) == (verify_code if command == "verify" else 0)
        assert capsys.readouterr().out == (DATA / f"{command}_matrix_{matrix}.json").read_text()
