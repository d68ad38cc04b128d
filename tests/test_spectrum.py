import collections
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import qdef.cli
import qdef.embed
import qdef.qoperator
import qdef.spectrum
import qdef.verify

from qdef import (I, J, Quaternion, QOperator, gram_schmidt,
                  hermitian_random, kernel_q, left_scalar, point_sspectrum,
                  random_operator, random_qvector, random_unit_imaginary,
                  real_symmetric, resolvent_bound_check,
                  resolvent_inverse_norm, resolvent_poly, selfadjoint_iff_real)
from qdef.cli import main
from qdef.errors import InternalInconsistency, NoConvergence, PreconditionFailed
from qdef.tolerances import DEFAULT
from qdef.verify import verify_matrix


def spheres_of(report):
    return [(round(s.re, 9), round(s.im_mag, 9), s.multiplicity)
            for s in report.spheres]


class TestPointSpectrum:
    def test_real_diagonal(self):
        rep = point_sspectrum(QOperator([[1, 0], [0, 2]]))
        assert spheres_of(rep) == [(1.0, 0.0, 1), (2.0, 0.0, 1)]
        assert rep.all_real

    def test_left_unit_whole_sphere(self):
        rep = point_sspectrum(left_scalar(I, 1))
        assert spheres_of(rep) == [(0.0, 1.0, 1)]
        assert not rep.all_real

    def test_hermitian_with_j(self):
        A = QOperator([[Quaternion(0), J], [-J, Quaternion(0)]])
        rep = point_sspectrum(A)
        assert spheres_of(rep) == [(-1.0, 0.0, 1), (1.0, 0.0, 1)]
        assert rep.all_real

    def test_empty_matrix_has_no_spheres(self):
        rep = point_sspectrum(QOperator.from_entries(np.zeros((0, 0, 4))))
        assert rep.spheres == [] and rep.all_real

    def test_multiplicity_conservation(self):
        for seed in range(10):
            n = 2 + seed % 4
            A = random_operator(n, seed=seed)
            rep = point_sspectrum(A)
            assert sum(2 * s.multiplicity for s in rep.spheres) == 2 * n

    def test_sphere_invariance_under_unit_choice(self):
        # R_q depends on q only through (Re q, |Im q|)
        rng = np.random.default_rng(1)
        A = hermitian_random(3, seed=2)
        rep = point_sspectrum(A)
        s = rep.spheres[0]
        base = len(kernel_q(resolvent_poly(A, s.representative()), scale=1.0))
        for _ in range(20):
            u = random_unit_imaginary(rng)
            q = Quaternion(s.re) + u * s.im_mag
            qd = len(kernel_q(resolvent_poly(A, q), scale=1.0))
            assert qd == base

    def test_unitary_similarity_invariance(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            n = 4
            A = random_operator(n, seed=seed)
            B = gram_schmidt([random_qvector(rng, n) for _ in range(n)])
            U = QOperator.from_entries(B.matrix.transpose(1, 0, 2))
            conj = U.adjoint() @ A @ U
            s1 = point_sspectrum(A, verify_kernels=False).spheres
            s2 = point_sspectrum(conj, verify_kernels=False).spheres
            assert len(s1) == len(s2)
            for a, b in zip(s1, s2):
                assert abs(a.re - b.re) <= 1e-8
                assert abs(a.im_mag - b.im_mag) <= 1e-8
                assert a.multiplicity == b.multiplicity

    def test_hermitian_always_real(self):
        for seed in range(20):
            A = hermitian_random(2 + seed % 5, seed=seed)
            assert point_sspectrum(A).all_real

    def test_report_serialization(self):
        rep = point_sspectrum(QOperator([[1, 0], [0, 2]]))
        obj = json.loads(qdef.cli._render(rep.to_dict(), "json"))
        assert obj["all_real"] is True
        assert obj["spheres"][0] == {"re": 1.0, "im_mag": 0.0, "mult": 1}
        csv = qdef.cli._render(rep.to_dict(), "csv")
        assert csv.splitlines()[0] == "re,im_mag,multiplicity"
        assert len(csv.splitlines()) == 3


class TestSelfAdjointIffReal:
    def test_real_symmetric(self):
        v = selfadjoint_iff_real(real_symmetric(4, seed=4))
        assert v.self_adjoint and v.all_real and v.hypotheses_met and v.equivalent

    def test_left_unit_forward_report(self):
        v = selfadjoint_iff_real(left_scalar(I, 2))
        assert not v.self_adjoint and not v.all_real
        with pytest.raises(PreconditionFailed):
            selfadjoint_iff_real(left_scalar(I, 2), strict=True)

    def test_zero_operator(self):
        v = selfadjoint_iff_real(QOperator.zero(2))
        assert v.self_adjoint and v.all_real
        rep = point_sspectrum(QOperator.zero(2))
        assert spheres_of(rep) == [(0.0, 0.0, 2)]


class TestResolventBound:
    def test_diag_at_i(self):
        A = QOperator([[1, 0], [0, 2]])
        assert resolvent_inverse_norm(A, I) == pytest.approx(0.5, rel=1e-12)
        assert resolvent_bound_check(A, I, samples=30, seed=0) <= 1e-8

    def test_excess_is_signed(self):
        # R_i = diag(2, 5): each sampled ||R^-1 psi|| / ||psi|| lies in
        # [1/5, 1/2], so the worst excess over the bound 1 lies in [-0.8, -0.5]
        excess = resolvent_bound_check(QOperator([[1, 0], [0, 2]]), I, samples=30, seed=0)
        assert -0.8 <= excess <= -0.5

    def test_diag_at_2i(self):
        A = QOperator([[1, 0], [0, 2]])
        # R = diag(5, 8); bound is 1/4
        assert resolvent_inverse_norm(A, I * 2.0) == pytest.approx(0.2, rel=1e-12)
        assert 0.2 <= 0.25

    def test_real_shift_rejected(self):
        with pytest.raises(PreconditionFailed):
            resolvent_bound_check(QOperator([[1, 0], [0, 2]]), Quaternion(3))

    def test_non_symmetric_rejected(self):
        with pytest.raises(PreconditionFailed):
            resolvent_bound_check(random_operator(3, seed=5), I)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("call", [resolvent_inverse_norm, resolvent_bound_check])
    def test_non_finite_entry_raises(self, call, bad, capfd):
        # R_q(A) starts with A @ A, which once raised a RuntimeWarning here
        E = np.zeros((2, 2, 4))
        E[0, 0, 0], E[1, 1, 0], E[1, 0, 0] = 1.0, 2.0, bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match="non-finite"):
                call(QOperator.from_entries(E), I)
        assert capfd.readouterr().err == ""

    def test_hermitian_family(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            A = hermitian_random(2 + seed % 4, seed=seed)
            q = Quaternion(*rng.standard_normal(4))
            while q.im_norm() < 0.2:
                q = Quaternion(*rng.standard_normal(4))
            bound = 1.0 / q.im_norm() ** 2
            assert resolvent_inverse_norm(A, q) <= bound + 1e-8
            assert resolvent_bound_check(A, q, samples=20, seed=seed) <= 1e-8


MATRICES = Path(__file__).parent / "data"


class TestVerifyMatrixReuse:
    """`verify --matrix` computes each expensive fact once and reuses it."""

    @staticmethod
    def instrument(monkeypatch):
        """Counts of the costly calls a command makes, by monkeypatch."""
        counts = collections.Counter()
        inside = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        real_sspectrum = qdef.spectrum.point_sspectrum

        def sspectrum(A, *args, **kwargs):
            verifying = args[0] if args else kwargs.get("verify_kernels", True)
            counts["verifying point_sspectrum"] += bool(verifying)
            inside.append(A)
            try:
                return real_sspectrum(A, *args, **kwargs)
            finally:
                inside.pop()

        real_matmul = QOperator.__matmul__

        def matmul(self, other):
            if inside and self is other is inside[-1]:
                counts["A @ A"] += 1
            return real_matmul(self, other)

        preds = counting(qdef.qoperator, "symmetry_predicates")
        for module in (qdef.qoperator, qdef.spectrum, qdef.verify):
            monkeypatch.setattr(module, "symmetry_predicates", preds)
        for module in (qdef.spectrum, qdef.verify, qdef.cli):
            monkeypatch.setattr(module, "point_sspectrum", sspectrum)
        monkeypatch.setattr(qdef.embed, "eigenvalues_c",
                            counting(qdef.embed, "eigenvalues_c"))
        monkeypatch.setattr(QOperator, "__matmul__", matmul)
        return counts

    def test_call_counts(self, monkeypatch, capsys):
        counts = self.instrument(monkeypatch)
        assert main(["verify", "--matrix", str(MATRICES / "matrix_real_symmetric.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in report["checks"]}
        assert {"spectrum_real_iff_self_adjoint", "shifted_norm_identities",
                "resolvent_norm_bound"} <= names
        assert len(report["summary"]["spheres"]) == 4
        assert counts["verifying point_sspectrum"] == 1
        assert counts["eigenvalues_c"] == 1
        assert counts["symmetry_predicates"] <= 2
        # A = A*: the sphere ranks come from the eigenvalues of chi(A)
        assert counts["A @ A"] == 0

    def test_general_matrix_squares_once(self, monkeypatch, capsys):
        counts = self.instrument(monkeypatch)
        assert main(["verify", "--matrix", str(MATRICES / "matrix_general.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["summary"]["spheres"]) >= 2
        assert counts["verifying point_sspectrum"] == 1
        assert counts["A @ A"] == 1

    def test_report_computes_spectrum_once(self, monkeypatch, capsys):
        counts = self.instrument(monkeypatch)
        assert main(["report", "--matrix", str(MATRICES / "matrix_real_symmetric.json"),
                     "--dim", "4", "--trials", "2"]) == 0
        parts = json.loads(capsys.readouterr().out)["parts"]
        assert len(parts["sspectrum"]["spheres"]) == 4
        assert counts["verifying point_sspectrum"] == 1
        assert counts["eigenvalues_c"] == 1
        assert counts["A @ A"] == 0

    @pytest.mark.parametrize("matrix", ["real_symmetric", "hermitian", "general",
                                        "real_symmetric_large"])
    def test_report_parts_match_commands(self, matrix, capsys):
        path = str(MATRICES / f"matrix_{matrix}.json")
        code = main(["report", "--matrix", path, "--dim", "4", "--trials", "2"])
        parts = json.loads(capsys.readouterr().out)["parts"]
        assert code == 0
        for command in ("verify", "sspectrum"):
            golden = MATRICES / f"{command}_matrix_{matrix}.json"
            assert parts[command] == json.loads(golden.read_text())

    @pytest.mark.parametrize("matrix,calls", [("real_symmetric", 1), ("general", 2)])
    def test_kernel_of_a_self_adjoint_matrix_is_shared(self, matrix, calls, monkeypatch):
        # rank_nullity reads the kernel of A, the range check that of A*; a
        # matrix equal to its adjoint decomposes once for both
        A = QOperator.from_json((MATRICES / f"matrix_{matrix}.json").read_text())
        real_kernel_q = qdef.embed.kernel_q
        seen = []

        def kernel_q(B, *args, **kwargs):
            seen.append(B.entries)
            return real_kernel_q(B, *args, **kwargs)

        monkeypatch.setattr(qdef.embed, "kernel_q", kernel_q)
        verify_matrix(A, 0, DEFAULT)
        assert sum(np.array_equal(e, A.entries) or np.array_equal(e, A.adjoint().entries)
                   for e in seen) == calls

    def test_report_sphere_failure_is_one_line(self, monkeypatch, capsys):
        # the sspectrum part recomputes an unverified sphere list and fails
        # as the sspectrum command does: one line, no report
        real_rank = qdef.embed.rank_from_values

        def rank_from_values(s, rank_tol=DEFAULT.rank_tol, scale=None):
            if scale is not None:        # only the sphere verification passes a scale
                return len(s) // 2
            return real_rank(s, rank_tol)

        monkeypatch.setattr(qdef.embed, "rank_from_values", rank_from_values)
        assert main(["report", "--matrix", str(MATRICES / "matrix_real_symmetric.json"),
                     "--dim", "4", "--trials", "2"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("property failure: folded sphere")
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("matrix", ["real_symmetric", "general"])
    def test_sphere_failure_keeps_report(self, matrix, monkeypatch, capsys):
        real_rank = qdef.embed.rank_from_values

        def rank_from_values(s, rank_tol=DEFAULT.rank_tol, scale=None):
            if scale is not None:        # only the sphere verification passes a scale
                return len(s) // 2
            return real_rank(s, rank_tol)

        monkeypatch.setattr(qdef.embed, "rank_from_values", rank_from_values)
        assert main(["verify", "--matrix", str(MATRICES / f"matrix_{matrix}.json")]) == 1
        out = capsys.readouterr()
        assert out.err == ""
        report = json.loads(out.out)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["sphere_kernel_verification"]
        assert "trivial R_q kernel" in failed[0]["detail"]
        assert report["summary"]["spheres"]

    def test_rank_failure_keeps_report(self, monkeypatch, capsys):
        # singular values that do not pair fail the rank_nullity row; the
        # other rows are still written
        real_rank_q = qdef.embed.rank_q

        def rank_q(A, rank_tol=DEFAULT.rank_tol, scale=None):
            if scale is None:            # the rank_nullity row passes none
                raise InternalInconsistency("singular values do not pair up")
            return real_rank_q(A, rank_tol, scale)

        monkeypatch.setattr(qdef.embed, "rank_q", rank_q)
        assert main(["verify", "--matrix", str(MATRICES / "matrix_general.json")]) == 1
        out = capsys.readouterr()
        assert out.err == ""
        report = json.loads(out.out)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["rank_nullity"]
        assert failed[0]["detail"] == "singular values do not pair up"
        assert "range_perp_equals_adjoint_kernel" in [c["name"] for c in report["checks"]]


def _block_diag(*ops):
    n = sum(op.dim for op in ops)
    arr = np.zeros((n, n, 4))
    at = 0
    for op in ops:
        arr[at:at + op.dim, at:at + op.dim] = op.entries
        at += op.dim
    return QOperator.from_entries(arr)


# every sphere simple, but the rank cut counts a second singular value at one
BELOW_PRODUCTS = [
    # at q = 0.1 the point 0.100015 has product 2.25e-10 and singular
    # value 4.5e-11, below the cut 1.21e-10
    pytest.param([[0, 1, 0, 0], [0.01, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0.010003, 0]],
                 id="non-normal"),
    # A A* - A* A has entries of at most 6.4e-11
    pytest.param([[0.1, 0, 0], [0, 0.1 + 1.05e-5, 0.8e-5], [0, 0, 0.1 + 1.2e-5]],
                 id="nearly-normal"),
]


class TestSphereMultiplicity:
    """The R_q kernel of each folded sphere is compared with the sphere's
    multiplicity m: 1 <= qdim <= m for every matrix, qdim = m for normal ones."""

    @staticmethod
    def sphere_qdims(monkeypatch, fake_rank=None):
        """The kernel dimensions the sphere verification reads, in sphere
        order (its rank_from_values calls are the ones with a scale);
        ``fake_rank`` replaces their rank, given the quaternionic dimension."""
        real_rank = qdef.embed.rank_from_values
        qdims = []

        def rank_from_values(s, rank_tol=DEFAULT.rank_tol, scale=None):
            if scale is None:
                return real_rank(s, rank_tol)
            dim = len(s) // 2
            rank = (real_rank(s, rank_tol, scale) if fake_rank is None
                    else fake_rank(dim))
            qdims.append(dim - rank)
            return rank
        monkeypatch.setattr(qdef.embed, "rank_from_values", rank_from_values)
        return qdims

    @pytest.mark.parametrize("A", [
        _block_diag(hermitian_random(3, seed=30), hermitian_random(3, seed=30)),
        _block_diag(real_symmetric(2, seed=31), real_symmetric(2, seed=31),
                    real_symmetric(2, seed=31)),
        QOperator.identity(3) * 2.0,
        left_scalar(I, 3),
    ], ids=["hermitian-twice", "real-symmetric-thrice", "scalar", "left-unit"])
    def test_normal_kernel_equals_multiplicity(self, A, monkeypatch):
        qdims = self.sphere_qdims(monkeypatch)
        rep = point_sspectrum(A)
        assert max(s.multiplicity for s in rep.spheres) >= 2
        assert qdims == [s.multiplicity for s in rep.spheres]

    @pytest.mark.parametrize("gap,qdims", [(1e-3, [1, 1, 1]), (1e-5, [2, 2, 1]),
                                           (1e-7, [2, 2, 1])])
    def test_spheres_the_rank_cut_cannot_separate(self, gap, qdims, monkeypatch):
        # 1 and 1 + gap are two spheres (fold_tol is 1e-8), but |R_q| at the
        # other one is gap^2, for gap 1e-5 below the cut 1e-10 (||A|| + |q|)^2
        seen = self.sphere_qdims(monkeypatch)
        rep = point_sspectrum(QOperator.from_real(np.diag([1.0, 1.0 + gap, 3.0])))
        assert [s.multiplicity for s in rep.spheres] == [1, 1, 1]
        assert seen == qdims

    def test_kernel_above_multiplicity_fails(self, monkeypatch, capsys):
        # every sphere of this matrix is simple; a kernel of dimension 2 is a
        # wrong multiplicity, not a confirmation
        qdims = self.sphere_qdims(monkeypatch, lambda dim: dim - 2)
        path = str(MATRICES / "matrix_real_symmetric.json")
        assert main(["sspectrum", "--matrix", path]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("property failure: folded sphere")
        assert out.err.endswith("has an R_q kernel of dimension 2, above its "
                                "multiplicity 1\n")
        assert qdims == [2]
        assert main(["verify", "--matrix", path]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["sphere_kernel_verification"]
        assert "above its multiplicity 1" in failed[0]["detail"]

    @pytest.mark.parametrize("M", BELOW_PRODUCTS)
    def test_rank_cut_below_products_is_no_failure(self, M, monkeypatch, tmp_path, capsys):
        # every sphere is simple, but the cut counts a second singular value
        # at one of them: qdim 2 is compared with the multiplicity only where
        # A = +-A*, and otherwise only qdim >= 1 is required
        qdims = self.sphere_qdims(monkeypatch)
        A = QOperator.from_real(np.array(M, dtype=float))
        rep = point_sspectrum(A)
        assert [s.multiplicity for s in rep.spheres] == [1] * A.dim
        assert max(qdims) == 2 and min(qdims) >= 1
        path = tmp_path / "m.json"
        path.write_text(A.to_json())
        assert main(["sspectrum", "--matrix", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--matrix", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(c["passed"] for c in report["checks"])

    def test_skew_adjoint_kernel_above_multiplicity_fails(self, monkeypatch):
        # A = -A* is normal: its spheres get the upper bound too
        self.sphere_qdims(monkeypatch, lambda dim: dim - 2)
        with pytest.raises(InternalInconsistency, match="above its multiplicity 1"):
            point_sspectrum(left_scalar(I, 2) @ QOperator.from_real(np.diag([1.0, 2.0])))


def _skew_adjoint(dim, seed):
    B = random_operator(dim, seed=seed)
    return B - B.adjoint()


def _count_decompositions(monkeypatch):
    """Counter of np.linalg.eigvalsh and np.linalg.svd calls, with the
    arithmetic each eigvalsh ran in ("eigvalsh real" or "eigvalsh complex")."""
    counts = collections.Counter()
    real_eigvalsh, real_svd = np.linalg.eigvalsh, np.linalg.svd

    def eigvalsh(a, *args, **kwargs):
        counts["eigvalsh"] += 1
        counts["eigvalsh complex" if np.iscomplexobj(a) else "eigvalsh real"] += 1
        return real_eigvalsh(a, *args, **kwargs)

    def svd(a, *args, **kwargs):
        counts["svd"] += 1
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(np.linalg, "svd", svd)
    return counts


class TestSphereRankPaths:
    """Each sphere's rank, read from one eigvalsh of chi(A) where A = A* or
    A = -A* and from one SVD per sphere otherwise, equals the rank of the
    complex SVD of chi(resolvent_poly(A, q)) under the same cut."""

    KINDS = {"real-symmetric": (real_symmetric, "eigvalsh real"),
             "hermitian": (hermitian_random, "eigvalsh complex"),
             "skew-adjoint": (_skew_adjoint, "eigvalsh complex"),
             "general": (random_operator, "svd")}

    @staticmethod
    def sphere_ranks(monkeypatch, A):
        """(q, rank, the oracle's rank) per verified sphere, and the route:
        "eigvalsh real" or "eigvalsh complex" for one eigvalsh and no SVD,
        "svd" for no eigvalsh and one SVD per sphere plus one for ||A||."""
        real_rank = qdef.embed.rank_from_values
        calls = []

        def rank_from_values(s, rank_tol=DEFAULT.rank_tol, scale=None):
            rank = real_rank(s, rank_tol, scale)
            if scale is not None:
                calls.append((rank, scale))
            return rank
        monkeypatch.setattr(qdef.embed, "rank_from_values", rank_from_values)
        counts = _count_decompositions(monkeypatch)
        rep = point_sspectrum(A)
        assert len(calls) == len(rep.spheres)
        if counts["eigvalsh"]:
            assert counts["eigvalsh"] == 1 and counts["svd"] == 0
            route = "eigvalsh real" if counts["eigvalsh real"] else "eigvalsh complex"
        else:
            assert counts["svd"] == len(rep.spheres) + 1
            route = "svd"
        norm = np.linalg.svd(qdef.embed.chi(A), compute_uv=False)[0]
        out = []
        for s, (rank, scale) in zip(rep.spheres, calls):
            q = s.representative()
            # the cut's scale is (||A|| + |q|)^2, floored at 1, on either route
            assert scale == pytest.approx(max((norm + q.norm()) ** 2, 1.0), rel=1e-9)
            sv = np.linalg.svd(qdef.embed.chi(resolvent_poly(A, q)), compute_uv=False)
            oracle = int(np.sum(sv > DEFAULT.rank_tol * max(sv[0], scale))) // 2
            out.append((q, rank, oracle))
        return out, route

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 24, 48])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_ranks_equal_complex_svd(self, kind, dim, scale, monkeypatch):
        make, route = self.KINDS[kind]
        A = make(dim, seed=100 + dim) * scale
        seen, taken = self.sphere_ranks(monkeypatch, A)
        assert seen
        assert taken == route
        for q, rank, oracle in seen:
            assert rank == oracle, q

    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    def test_close_real_points(self, gap, monkeypatch):
        A = QOperator.from_real(np.diag([1.0, 1.0 + gap, 3.0]))
        seen, route = self.sphere_ranks(monkeypatch, A)
        assert route == "eigvalsh real"
        for q, rank, oracle in seen:
            assert rank == oracle, q

    @pytest.mark.parametrize("M", BELOW_PRODUCTS)
    def test_cut_below_products(self, M, monkeypatch):
        A = QOperator.from_real(np.array(M, dtype=float))
        seen, route = self.sphere_ranks(monkeypatch, A)
        assert route == "svd"
        assert max(A.dim - rank for _, rank, _ in seen) == 2
        for q, rank, oracle in seen:
            assert rank == oracle, q

    def test_indefinite_hermitian_counts_magnitudes(self, monkeypatch):
        # chi(A) has eigenvalues 2, 2, -3, -3, 0, 0; at the sphere 0 the
        # singular values of chi(A^2) are their squared magnitudes
        Q = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
        A = QOperator.from_real(Q @ np.diag([2.0, -3.0, 0.0]) @ Q.T)
        real_rank = qdef.embed.rank_from_values
        values = []

        def rank_from_values(s, rank_tol=DEFAULT.rank_tol, scale=None):
            values.append(s)
            return real_rank(s, rank_tol, scale)
        monkeypatch.setattr(qdef.embed, "rank_from_values", rank_from_values)
        rep = point_sspectrum(A)
        assert spheres_of(rep) == [(-3.0, 0.0, 1), (0.0, 0.0, 1), (2.0, 0.0, 1)]
        assert len(values) == 3
        assert np.allclose(values[1], [9.0, 9.0, 4.0, 4.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("kind,arithmetic", [("real-symmetric", "real"),
                                                 ("hermitian", "complex"),
                                                 ("skew-adjoint", "complex")],
                             ids=["real", "complex", "skew-complex"])
    def test_unpaired_eigenvalues_raise(self, kind, arithmetic, monkeypatch):
        # eigenvalues of chi(A) that do not pair up, as J demands, fail the
        # sphere check on the eigvalsh route
        real_eigvalsh = np.linalg.eigvalsh
        seen = []

        def eigvalsh(a):
            seen.append(np.iscomplexobj(a))
            nu = real_eigvalsh(a)
            nu[0] -= 1.0
            return nu
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        with pytest.raises(InternalInconsistency, match="do not pair up"):
            point_sspectrum(self.KINDS[kind][0](3, seed=9))
        assert seen == [arithmetic == "complex"]


class TestSphereDecompositionCounts:
    """The work of the sphere checks, counted rather than timed: one eigvalsh
    per matrix equal to plus or minus its adjoint, one SVD per sphere (plus
    one for ||A||) for any other matrix."""

    @pytest.mark.parametrize("make", [hermitian_random, _skew_adjoint],
                             ids=["hermitian", "skew-adjoint"])
    def test_normal_matrix_one_eigvalsh(self, make, monkeypatch):
        A = make(48, seed=4)
        counts = _count_decompositions(monkeypatch)
        rep = point_sspectrum(A)
        assert len(rep.spheres) >= 40
        assert counts["eigvalsh"] == 1
        assert counts["svd"] == 0

    def test_general_matrix_one_svd_per_sphere(self, monkeypatch):
        A = random_operator(48, seed=4)
        counts = _count_decompositions(monkeypatch)
        rep = point_sspectrum(A)
        assert len(rep.spheres) >= 40
        assert counts["eigvalsh"] == 0
        assert counts["svd"] == len(rep.spheres) + 1


class TestRelativeFolding:
    """Eigenvalues of size s carry rounding of about eps * s: folding and
    clustering tolerances grow with max(1, max |lambda|)."""

    @pytest.mark.parametrize("scale", [1e8, 1e9, 1e12])
    @pytest.mark.parametrize("make", [real_symmetric, hermitian_random],
                             ids=["real-symmetric", "hermitian"])
    def test_large_self_adjoint_matrix_folds(self, make, scale, tmp_path, capsys):
        A = make(8, seed=3)
        rep = point_sspectrum(A * scale)
        assert rep.all_real
        assert [s.multiplicity for s in rep.spheres] == [1] * 8
        unit = point_sspectrum(A)
        assert np.allclose([s.re for s in rep.spheres],
                           [s.re * scale for s in unit.spheres], rtol=1e-9)
        path = tmp_path / "m.json"
        path.write_text((A * scale).to_json())
        assert main(["sspectrum", "--matrix", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["all_real"] is True

    def test_small_matrix_keeps_absolute_tolerances(self):
        # below size 1 the tolerances stay absolute: points 1e-9 apart are one sphere
        A = QOperator.from_real(np.diag([1e-3, 1e-3 + 1e-9]))
        assert [s.multiplicity for s in point_sspectrum(A).spheres] == [2]


def _scaled(result):
    """``result`` with a relative error of 1e-6 in every entry."""
    return QOperator.from_entries(result.entries * (1.0 + 1e-6))


def _perturb_result(real):
    return lambda *args, **kwargs: _scaled(real(*args, **kwargs))


def _perturb_shifted(real):
    # only the shift with an imaginary part: ||(A - q) phi||^2 moves, the
    # right-hand side does not
    def shifted(A, q, *args):
        M = real(A, q, *args)
        return _scaled(M) if q.im_norm() else M
    return shifted


class TestScaledLimits:
    """The product rows of verify_matrix have limits relative to the size of A,
    and still catch a relative 1e-6 error in the compared product."""

    # row -> (owner and name of the function whose result the row compares,
    # how to perturb it)
    INJECT = {
        "embedding_homomorphism": (QOperator, "__matmul__", _perturb_result),
        "shifted_norm_identities": (qdef.qoperator, "shift_left_scalar",
                                    _perturb_shifted),
        "resolvent_factorization": (qdef.verify, "resolvent_poly", _perturb_result),
    }

    @staticmethod
    def rows(scale):
        A = QOperator.from_real(real_symmetric(4, seed=3).entries[:, :, 0] * scale)
        checks, _, _ = verify_matrix(A, 0, DEFAULT)
        return {c["name"]: c for c in checks}

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_pass_at_any_scale(self, scale):
        rows = self.rows(scale)
        assert all(rows[name]["passed"] for name in self.INJECT), rows

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    @pytest.mark.parametrize("name", sorted(INJECT))
    def test_relative_error_fails(self, name, scale, monkeypatch):
        owner, attr, perturb = self.INJECT[name]
        monkeypatch.setattr(owner, attr, perturb(getattr(owner, attr)))
        row = self.rows(scale)[name]
        assert not row["passed"], row
