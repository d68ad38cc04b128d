import collections
import json
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
from qdef.errors import InternalInconsistency, PreconditionFailed
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
        base = kernel_q(resolvent_poly(A, s.representative()), scale=1.0).qdim
        for _ in range(20):
            u = random_unit_imaginary(rng)
            q = Quaternion(s.re) + u * s.im_mag
            qd = kernel_q(resolvent_poly(A, q), scale=1.0).qdim
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
        obj = json.loads(rep.to_json())
        assert obj["all_real"] is True
        assert obj["spheres"][0] == {"re": 1.0, "im_mag": 0.0, "mult": 1}
        csv = rep.to_csv()
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
        assert counts["A @ A"] == 1

    def test_report_computes_spectrum_once(self, monkeypatch, capsys):
        counts = self.instrument(monkeypatch)
        assert main(["report", "--matrix", str(MATRICES / "matrix_real_symmetric.json"),
                     "--dim", "4", "--trials", "2"]) == 0
        parts = json.loads(capsys.readouterr().out)["parts"]
        assert len(parts["sspectrum"]["spheres"]) == 4
        assert counts["verifying point_sspectrum"] == 1
        assert counts["eigenvalues_c"] == 1
        assert counts["A @ A"] == 1

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
        real_rank_q = qdef.embed.rank_q

        def rank_q(A, rank_tol=DEFAULT.rank_tol, scale=None):
            if scale is not None:        # only the sphere verification passes a scale
                return A.dim
            return real_rank_q(A, rank_tol)

        monkeypatch.setattr(qdef.embed, "rank_q", rank_q)
        assert main(["report", "--matrix", str(MATRICES / "matrix_real_symmetric.json"),
                     "--dim", "4", "--trials", "2"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("property failure: folded sphere")
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("matrix", ["real_symmetric", "general"])
    def test_sphere_failure_keeps_report(self, matrix, monkeypatch, capsys):
        real_rank_q = qdef.embed.rank_q

        def rank_q(A, rank_tol=DEFAULT.rank_tol, scale=None):
            if scale is not None:        # only the sphere verification passes a scale
                return A.dim
            return real_rank_q(A, rank_tol)

        monkeypatch.setattr(qdef.embed, "rank_q", rank_q)
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


class TestSphereMultiplicity:
    """The R_q kernel of each folded sphere is compared with the sphere's
    multiplicity m: 1 <= qdim <= m for every matrix, qdim = m for normal ones."""

    @staticmethod
    def sphere_qdims(monkeypatch, fake_rank=None):
        """The kernel dimensions the sphere verification reads, in sphere
        order (its rank_q calls are the ones with a scale); ``fake_rank``
        replaces their rank."""
        real_rank_q = qdef.embed.rank_q
        qdims = []

        def rank_q(A, rank_tol=DEFAULT.rank_tol, scale=None):
            if scale is None:
                return real_rank_q(A, rank_tol)
            rank = real_rank_q(A, rank_tol, scale) if fake_rank is None else fake_rank(A)
            qdims.append(A.dim - rank)
            return rank
        monkeypatch.setattr(qdef.embed, "rank_q", rank_q)
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
        qdims = self.sphere_qdims(monkeypatch, lambda R: R.dim - 2)
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

    @pytest.mark.parametrize("M", [
        # at q = 0.1 the point 0.100015 has product 2.25e-10 and singular
        # value 4.5e-11, below the cut 1.21e-10
        [[0, 1, 0, 0], [0.01, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0.010003, 0]],
        # A A* - A* A has entries of at most 6.4e-11
        [[0.1, 0, 0], [0, 0.1 + 1.05e-5, 0.8e-5], [0, 0, 0.1 + 1.2e-5]],
    ], ids=["non-normal", "nearly-normal"])
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
        self.sphere_qdims(monkeypatch, lambda R: R.dim - 2)
        with pytest.raises(InternalInconsistency, match="above its multiplicity 1"):
            point_sspectrum(left_scalar(I, 2) @ QOperator.from_real(np.diag([1.0, 2.0])))


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
