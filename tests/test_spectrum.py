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
                  random_basis, random_operator, random_quaternion,
                  random_qvector, random_unit_imaginary, real_symmetric,
                  resolvent_bound_check,
                  resolvent_inverse_norm, resolvent_poly, selfadjoint_iff_real)
from qdef.cli import main
from qdef.errors import InternalInconsistency, NoConvergence, PreconditionFailed
from qdef.tolerances import DEFAULT
from qdef.verify import verify_matrix


def spheres_of(report):
    return [(round(s.re, 9), round(s.im_mag, 9), s.multiplicity)
            for s in report.spheres]


def fold_of(A):
    """The unverified sphere fold of ``A``'s embedding eigenvalues."""
    return qdef.spectrum._fold(qdef.embed.eigenvalues_c(A))


def record_certificates(monkeypatch, passes=None):
    """The (lambda, scale, verdict) of each ``embed.kernel_certified`` call,
    in sphere order; ``passes=False`` makes every certificate fail, so each
    sphere takes the SVD fallback."""
    real = qdef.embed.kernel_certified
    seen = []

    def kernel_certified(M, lam, rank_tol=DEFAULT.rank_tol, scale=1.0):
        verdict = real(M, lam, rank_tol, scale) if passes is None else passes
        seen.append((lam, scale, verdict))
        return verdict
    monkeypatch.setattr(qdef.embed, "kernel_certified", kernel_certified)
    return seen


def oracle_qdim(A, q, scale):
    """Kernel dimension of R_q(A) from the complex SVD of its embedding, at
    the sphere checks' cut."""
    sv = np.linalg.svd(qdef.embed.chi(resolvent_poly(A, q)), compute_uv=False)
    return A.dim - int(np.sum(sv > DEFAULT.rank_tol * max(sv[0], scale))) // 2


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
            s1 = fold_of(A).report.spheres
            s2 = fold_of(conj).report.spheres
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

    @pytest.mark.parametrize("lam,message", [
        ([1 + 1j, 2 + 1j], "not closed under conjugation"),
        ([1.0, 2.0, 3.0], "not closed under conjugation"),
        ([1 + 1j, 2 - 1j], "no conjugate partner within 1e-08"),
        ([1.0, 2.0], "real eigenvalues do not pair up"),
    ], ids=["unmatched-signs", "odd-reals", "no-partner", "unpaired-reals"])
    def test_fold_rejects_an_unclosed_multiset(self, lam, message):
        with pytest.raises(InternalInconsistency, match=message):
            qdef.spectrum._fold_conjugate_pairs(np.array(lam, complex), 1e-9, 1e-8)


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

        real_verify = qdef.spectrum._verify_kernels

        def verify_kernels(A, *args):
            counts["kernel verification"] += 1
            inside.append(A)
            try:
                return real_verify(A, *args)
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
        fold = counting(qdef.spectrum, "_fold")
        for module in (qdef.spectrum, qdef.verify):
            monkeypatch.setattr(module, "_verify_kernels", verify_kernels)
            monkeypatch.setattr(module, "_fold", fold)
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
        assert counts["kernel verification"] == counts["_fold"] == 1
        assert counts["eigenvalues_c"] == 1
        assert counts["symmetry_predicates"] <= 2
        # A = A*: the sphere ranks come from the eigenvalues of chi(A)
        assert counts["A @ A"] == 0

    def test_general_matrix_squares_once(self, monkeypatch, capsys):
        counts = self.instrument(monkeypatch)
        assert main(["verify", "--matrix", str(MATRICES / "matrix_general.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["summary"]["spheres"]) >= 2
        assert counts["kernel verification"] == 1
        # every sphere is certified: R_q(A), and with it A @ A, is never formed
        assert counts["A @ A"] == 0

    def test_uncertified_sphere_squares_once(self, monkeypatch, capsys):
        # a sphere the certificate leaves undecided forms R_q(A) once, and
        # its rank gives the same report
        counts = self.instrument(monkeypatch)
        certificates = record_certificates(monkeypatch, passes=False)
        path = MATRICES / "matrix_general.json"
        assert main(["verify", "--matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == (MATRICES / "verify_matrix_general.json").read_text()
        spheres = json.loads(out)["summary"]["spheres"]
        assert len(certificates) == len(spheres) >= 2
        assert counts["A @ A"] == len(spheres)

    def test_failed_kernel_check_folds_once(self, monkeypatch, capsys):
        # rank_tol 0 leaves every R_q kernel trivial: the row fails, and the
        # full report is written from the one fold
        counts = self.instrument(monkeypatch)
        monkeypatch.setenv("QDEF_TOL_OVERRIDES", json.dumps({"rank_tol": 0.0}))
        path = MATRICES / "matrix_real_symmetric.json"
        assert main(["verify", "--matrix", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        row = {c["name"]: c for c in report["checks"]}["sphere_kernel_verification"]
        assert not row["passed"] and "trivial R_q kernel" in row["detail"]
        assert len(report["summary"]["spheres"]) == 4
        assert counts["_fold"] == counts["kernel verification"] == 1
        assert counts["eigenvalues_c"] == 1

    def test_report_computes_spectrum_once(self, monkeypatch, capsys):
        counts = self.instrument(monkeypatch)
        assert main(["report", "--matrix", str(MATRICES / "matrix_real_symmetric.json"),
                     "--dim", "4", "--trials", "2"]) == 0
        parts = json.loads(capsys.readouterr().out)["parts"]
        assert len(parts["sspectrum"]["spheres"]) == 4
        assert counts["kernel verification"] == counts["_fold"] == 1
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
        # a general matrix's spheres reach the rank only where the certificate fails
        certificates = record_certificates(monkeypatch, passes=False)
        assert main(["verify", "--matrix", str(MATRICES / f"matrix_{matrix}.json")]) == 1
        out = capsys.readouterr()
        assert out.err == ""
        report = json.loads(out.out)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["sphere_kernel_verification"]
        assert "trivial R_q kernel" in failed[0]["detail"]
        assert report["summary"]["spheres"]
        assert bool(certificates) == (matrix == "general")

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
        A = QOperator.from_real(np.array(M, dtype=float))
        point_sspectrum(A)             # the certificates that pass suffice
        qdims = self.sphere_qdims(monkeypatch)
        record_certificates(monkeypatch, passes=False)
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
    A = -A* and otherwise from one SVD per sphere the kernel certificate
    leaves undecided, equals the rank of the complex SVD of
    chi(resolvent_poly(A, q)) under the same cut; where the certificate
    decides, that SVD's kernel is nontrivial."""

    KINDS = {"real-symmetric": (real_symmetric, "eigvalsh real"),
             "hermitian": (hermitian_random, "eigvalsh complex"),
             "skew-adjoint": (_skew_adjoint, "eigvalsh complex"),
             "general": (random_operator, "svd")}

    @staticmethod
    def sphere_ranks(monkeypatch, A, certify=True):
        """(q, rank, the oracle's rank) per verified sphere, rank None where
        the kernel certificate passed, and the route: "eigvalsh real" or
        "eigvalsh complex" for one eigvalsh and no SVD, "svd" for no
        eigvalsh, one SVD for ||A|| and one per sphere whose certificate
        fails.  ``certify=False`` makes every certificate fail."""
        real_rank = qdef.embed.rank_from_values
        calls = []

        def rank_from_values(s, rank_tol=DEFAULT.rank_tol, scale=None):
            rank = real_rank(s, rank_tol, scale)
            if scale is not None:
                calls.append((rank, scale))
            return rank
        monkeypatch.setattr(qdef.embed, "rank_from_values", rank_from_values)
        certificates = record_certificates(monkeypatch, None if certify else False)
        counts = _count_decompositions(monkeypatch)
        rep = point_sspectrum(A)
        if counts["eigvalsh"]:
            assert counts["eigvalsh"] == 1 and counts["svd"] == 0
            assert certificates == []
            route = "eigvalsh real" if counts["eigvalsh real"] else "eigvalsh complex"
            decided = calls
        else:
            assert len(certificates) == len(rep.spheres)
            assert counts["svd"] == len(calls) + 1
            route = "svd"
            ranks = iter(calls)
            decided = [(None, scale) if passed else next(ranks)
                       for _, scale, passed in certificates]
        assert len(decided) == len(rep.spheres)
        norm = np.linalg.svd(qdef.embed.chi(A), compute_uv=False)[0]
        out = []
        for s, (rank, scale) in zip(rep.spheres, decided):
            q = s.representative()
            # the cut's scale is (||A|| + |q|)^2, floored at 1, on either route
            assert scale == pytest.approx(max((norm + q.norm()) ** 2, 1.0), rel=1e-9)
            out.append((q, rank, A.dim - oracle_qdim(A, q, scale)))
        return out, route

    @staticmethod
    def assert_oracle_agrees(A, seen):
        """A certified sphere has a nontrivial oracle kernel; every other
        sphere's rank is the oracle's."""
        for q, rank, oracle in seen:
            if rank is None:
                assert oracle < A.dim, q
            else:
                assert rank == oracle, q

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 24, 48])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_ranks_equal_complex_svd(self, kind, dim, scale, monkeypatch):
        make, route = self.KINDS[kind]
        A = make(dim, seed=100 + dim) * scale
        # a general matrix once through its certificates, once with each failing
        for certify in (True, False) if route == "svd" else (True,):
            with monkeypatch.context() as patch:
                seen, taken = self.sphere_ranks(patch, A, certify)
            assert seen
            assert taken == route
            self.assert_oracle_agrees(A, seen)
            if route == "svd":
                assert all(rank is None for _, rank, _ in seen) == certify

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
        for certify in (True, False):
            with monkeypatch.context() as patch:
                seen, route = self.sphere_ranks(patch, A, certify)
            assert route == "svd"
            self.assert_oracle_agrees(A, seen)
        assert max(A.dim - rank for _, rank, _ in seen) == 2

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
    per matrix equal to plus or minus its adjoint, one SVD (for ||A||) and
    one solve per sphere for any other matrix whose certificates pass."""

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
        assert counts["svd"] == 1


class TestKernelCertificate:
    """``embed.kernel_certified`` decides a non-normal sphere without an SVD
    only where the oracle SVD's kernel is nontrivial; where it fails, the
    sphere's rank comes from the SVD fallback."""

    def test_moved_representative_fails_and_the_fallback_raises(self, monkeypatch):
        A = random_operator(6, seed=4)
        real_fold = qdef.spectrum._fold_conjugate_pairs

        def fold(*args):
            points, closure = real_fold(*args)
            points[0] = (points[0][0] + 1e-3, points[0][1])
            return points, closure
        monkeypatch.setattr(qdef.spectrum, "_fold_conjugate_pairs", fold)
        certificates = record_certificates(monkeypatch)
        counts = _count_decompositions(monkeypatch)
        with pytest.raises(InternalInconsistency, match="trivial R_q kernel"):
            point_sspectrum(A)
        assert [passed for _, _, passed in certificates] == [False]
        assert counts["svd"] == 2        # ||A|| and the moved sphere's fallback

    def test_exactly_singular_solve_takes_the_fallback(self, monkeypatch):
        # chi of an upper-triangular real matrix is upper triangular, and its
        # eigenvalues come out exact: each shifted solve meets a zero pivot
        A = QOperator.from_real(np.array([[1.0, 1.0, 0.5], [0.0, 2.0, 3.0],
                                          [0.0, 0.0, -0.5]]))
        M = qdef.embed.chi(A)
        for lam in (1.0, 2.0, -0.5):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(M - lam * np.eye(6), np.ones(6))
            assert not qdef.embed.kernel_certified(M, complex(lam), scale=1.0)
        counts = _count_decompositions(monkeypatch)
        rep = point_sspectrum(A)
        assert spheres_of(rep) == [(-0.5, 0.0, 1), (1.0, 0.0, 1), (2.0, 0.0, 1)]
        assert counts["svd"] == 1 + len(rep.spheres)

    def test_unpaired_norm_values_raise(self, monkeypatch):
        # with every sphere certified, the singular values taken for ||A||
        # are the matrix's J-pairing witness
        real_svd = np.linalg.svd

        def svd(a, *args, **kwargs):
            s = real_svd(a, *args, **kwargs)
            s[1] *= 0.5
            return s
        monkeypatch.setattr(np.linalg, "svd", svd)
        with pytest.raises(InternalInconsistency, match="do not pair up"):
            point_sspectrum(random_operator(4, seed=3))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("dim", [4, 8, 16, 24, 48])
    def test_never_passes_on_a_trivial_kernel(self, dim, scale):
        # sphere representatives moved by 0 to 1e-3 of the spectrum's size:
        # the oracle's kernel is nontrivial near the spectrum and trivial far off
        A = random_operator(dim, seed=200 + dim) * scale
        M = qdef.embed.chi(A)
        norm = np.linalg.svd(M, compute_uv=False)[0]
        spheres = fold_of(A).report.spheres
        size = max(abs(complex(s.re, s.im_mag)) for s in spheres)
        verdicts = collections.Counter()
        for s in spheres[::max(1, len(spheres) // 6)]:
            for shift in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3):
                q = Quaternion(s.re + shift * size, s.im_mag)
                cut_scale = max((norm + q.norm()) ** 2, 1.0)
                passed = qdef.embed.kernel_certified(M, complex(q.q0, q.q1),
                                                     scale=cut_scale)
                qdim = oracle_qdim(A, q, cut_scale)
                assert qdim >= 1 or not passed, (s, shift)
                verdicts[passed, qdim >= 1] += 1
        assert verdicts[True, True] and verdicts[False, False]


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


def _diagonal(entries):
    return _block_diag(*(QOperator([[q]]) for q in entries))


def _rotated(A):
    """U A U* for the unitary U whose columns are ``random_basis`` (seed 5)."""
    U = QOperator.from_entries(random_basis(np.random.default_rng(5), A.dim)
                               .matrix.transpose(1, 0, 2))
    return U @ A @ U.adjoint()


Q_SPHERE = Quaternion(1.0, 2.0, 0.5, -1.0)
_U = random_quaternion(np.random.default_rng(5))
_U = _U / _U.norm()
# diagonal matrices with a repeated sphere: (entries, known (re, im_mag, mult))
REPEATED_SPHERES = {
    "1+2i,1+2i": ([Quaternion(1, 2), Quaternion(1, 2)], [(1.0, 2.0, 2)]),
    "1+2i,1+2j": ([Quaternion(1, 2), Quaternion(1, 0, 2)], [(1.0, 2.0, 2)]),
    "1+2i,1-2k,3": ([Quaternion(1, 2), Quaternion(1, 0, 0, -2), Quaternion(3)],
                    [(1.0, 2.0, 2), (3.0, 0.0, 1)]),
    "q,uqu*,q": ([Q_SPHERE, _U * Q_SPHERE * _U.conjugate(), Q_SPHERE],
                 [(1.0, Q_SPHERE.im_norm(), 3)]),
}


def _jordan(k):
    """J = q I + N with ones on the superdiagonal: one defective sphere [q]
    of multiplicity k."""
    J = _diagonal([Q_SPHERE] * k)
    J.entries[np.arange(k - 1), np.arange(1, k), 0] = 1.0
    return J


class TestRepeatedSpheres:
    """Two eigenvalues of one repeated sphere can differ in the last bit, so
    pairing each with a neighbour in sorted order can take lambda for the
    partner of lambda.  verify reads the closure row from the fold's
    nearest-conjugate pairs, and passes where sspectrum does."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    @pytest.mark.parametrize("name", sorted(REPEATED_SPHERES))
    def test_verify_and_report_pass(self, name, rotate, scale, tmp_path, capsys):
        entries, known = REPEATED_SPHERES[name]
        A = _diagonal(entries) * scale
        path = tmp_path / "m.json"
        path.write_text((_rotated(A) if rotate else A).to_json())
        assert main(["verify", "--matrix", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        row = {c["name"]: c for c in report["checks"]}["eigenvalue_conjugation_closure"]
        assert row["residual"] <= 1e-6 * row["tolerance"]
        spheres = report["summary"]["spheres"]
        assert [s["mult"] for s in spheres] == [m for *_, m in known]
        for s, (re, im, _) in zip(spheres, known):
            assert s["re"] == pytest.approx(re * scale, rel=1e-9)
            assert s["im_mag"] == pytest.approx(im * scale, rel=1e-9)
        assert main(["report", "--matrix", str(path), "--trials", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["parts"]["sspectrum"]["spheres"] \
            == spheres

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_unrotated_defective_sphere_passes(self, k, tmp_path, capsys):
        # upper triangular: the eigenvalues come out exact, and fold into one
        path = tmp_path / "m.json"
        path.write_text(_jordan(k).to_json())
        assert main(["verify", "--matrix", str(path)]) == 0
        spheres = json.loads(capsys.readouterr().out)["summary"]["spheres"]
        assert [s["mult"] for s in spheres] == [k]

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 14 milestone 2: the eigenvalues of a k-fold defective "
        "sphere spread like eps^(1/k), beyond FOLD_TOL, so they fold into "
        "several spheres (k = 2) or find no conjugate partner (k = 3, 4)"))
    def test_rotated_defective_sphere_folds_once(self, k, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(_rotated(_jordan(k)).to_json())
        assert main(["sspectrum", "--matrix", str(path)]) == 0
        spheres = json.loads(capsys.readouterr().out)["spheres"]
        assert [s["mult"] for s in spheres] == [k]
        assert spheres[0]["re"] == pytest.approx(1.0, rel=1e-6)
        assert spheres[0]["im_mag"] == pytest.approx(Q_SPHERE.im_norm(), rel=1e-6)
        assert main(["verify", "--matrix", str(path)]) == 0


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
