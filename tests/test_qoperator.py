import warnings

import numpy as np
import pytest

import qdef.qoperator

from qdef import (Basis, I, J, K, Quaternion, QOperator, QVector,
                  criteria_report, hermitian_random, inner, kernel_q,
                  left_scalar, norm_identity_check, random_operator,
                  random_qvector, real_symmetric, resolvent_poly, scalar_op,
                  selfadjoint_iff_real, shift_left_scalar, symmetry_predicates)
from qdef.errors import (DimensionMismatch, PreconditionFailed)
from qdef.quat import parse_quaternion
from qdef.rmodule import left_scale, random_basis


def rand_q(rng):
    return Quaternion(*rng.standard_normal(4))


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        phi = random_qvector(rng, 5)
        assert QOperator.identity(5)(phi).isclose(phi, atol=0)

    def test_diagonal_action(self):
        A = QOperator([[1, 0], [0, 2]])
        out = A(QVector([J, K]))
        assert out[0].isclose(J, atol=0)
        assert out[1].isclose(K * 2.0, atol=0)

    def test_right_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            A = random_operator(n, seed=int(rng.integers(1 << 31)))
            phi, psi = random_qvector(rng, n), random_qvector(rng, n)
            x, y = rand_q(rng), rand_q(rng)
            lhs = A(phi * x + psi * y)
            rhs = A(phi) * x + A(psi) * y
            assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            QOperator.identity(3)(QVector.basis_vector(2, 0))


class TestAdjoint:
    def test_real_symmetric_fixed(self):
        A = real_symmetric(4, seed=2)
        assert A.adjoint().isclose(A, atol=0)

    def test_nilpotent_example(self):
        A = QOperator([[Quaternion(0), J], [Quaternion(0), Quaternion(0)]])
        expected = QOperator([[Quaternion(0), Quaternion(0)],
                              [-J, Quaternion(0)]])
        assert A.adjoint().isclose(expected, atol=0)

    def test_defining_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            A = random_operator(n, seed=int(rng.integers(1 << 31)))
            adj = A.adjoint()
            phi = random_qvector(rng, n)
            psi = random_qvector(rng, n)
            lhs = inner(psi, A(phi))
            rhs = inner(adj(psi), phi)
            scale = max(1.0, phi.norm() * psi.norm())
            assert (lhs - rhs).norm() <= 1e-12 * scale

    def test_involution(self):
        A = random_operator(5, seed=4)
        assert A.adjoint().adjoint().isclose(A, atol=0)

    def test_range_perp_is_adjoint_kernel(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            n = 5
            A = random_operator(n, seed=seed)
            # make A rank deficient so the kernel is nontrivial
            A.entries[:, n - 1] = A.entries[:, 0]
            kb = kernel_q(A.adjoint())
            for v in kb:
                for m in range(n):
                    col = QVector.from_components(A.entries[:, m, :])
                    assert inner(v, col).norm() <= 1e-10


class TestLeftScalar:
    @pytest.mark.parametrize("dim", [2, 3, 7, 12, 24])
    def test_basis_matrix_equals_left_scale(self, dim):
        rng = np.random.default_rng(40 + dim)
        L = random_basis(rng, dim)
        for _ in range(5):
            q = rand_q(rng)
            Lq = left_scalar(q, basis=L)
            for _ in range(3):
                phi = random_qvector(rng, dim)
                diff = Lq.apply(phi).components - left_scale(L, q, phi).components
                assert np.max(np.abs(diff)) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 4, 9])
    def test_canonical_basis_is_diag_exactly(self, dim):
        rng = np.random.default_rng(dim)
        for q in (I, J, K, rand_q(rng), rand_q(rng)):
            got = left_scalar(q, basis=Basis.canonical(dim)).entries
            assert got.tobytes() == left_scalar(q, dim).entries.tobytes()


class TestSymmetryPredicates:
    def test_real_symmetric_family(self):
        A = real_symmetric(4, seed=6)
        preds = symmetry_predicates(A)
        assert preds.is_symmetric
        assert preds.anti == {"i": True, "j": True, "k": True}

    def test_left_scalar_unit_is_anti_symmetric(self):
        preds = symmetry_predicates(left_scalar(I, 3))
        assert preds.is_anti_symmetric and not preds.is_symmetric

    def test_imaginary_diagonal_not_symmetric(self):
        A = QOperator([[I, Quaternion(0)], [Quaternion(0), Quaternion(0)]])
        assert not symmetry_predicates(A).is_symmetric

    def test_hermitian_with_j_entry_breaks_unit_hypotheses(self):
        A = QOperator([[Quaternion(1), Quaternion(2, 0, 1)],
                       [Quaternion(2, 0, -1), Quaternion(3)]])
        preds = symmetry_predicates(A)
        assert preds.is_symmetric
        assert not preds.anti["i"]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("call", [
    symmetry_predicates, criteria_report, selfadjoint_iff_real,
    lambda A: norm_identity_check(A, None, I)],
    ids=["symmetry_predicates", "criteria_report", "selfadjoint_iff_real",
         "norm_identity_check"])
def test_non_finite_entry_raises(call, bad):
    # eA's product once raised a RuntimeWarning here
    E = np.zeros((2, 2, 4))
    E[0, 0, 0], E[1, 1, 0], E[0, 1, 1] = 1.0, 2.0, bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionFailed, match="^operator has a non-finite entry$"):
            call(QOperator.from_entries(E))


class TestScalarOp:
    def test_unit_scalar_is_identity(self):
        A = random_operator(3, seed=7)
        assert scalar_op(Quaternion(1), A).isclose(A, atol=0)

    def test_adjoint_law(self):
        # (qA)^dag = A^dag qbar  and  (Aq)^dag = qbar A^dag
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            A = random_operator(n, seed=int(rng.integers(1 << 31)))
            q = rand_q(rng)
            lhs = scalar_op(q, A).adjoint()
            rhs = scalar_op(q.conjugate(), A.adjoint(), side="right")
            assert lhs.max_entry_diff(rhs) <= 1e-12 * max(1.0, q.norm())
            lhs = scalar_op(q, A, side="right").adjoint()
            rhs = scalar_op(q.conjugate(), A.adjoint(), side="left")
            assert lhs.max_entry_diff(rhs) <= 1e-12 * max(1.0, q.norm())

    def test_real_symmetric_commutation(self):
        # (qA)^dag = qbar A and qA = Aq when iA, jA, kA are anti-symmetric
        rng = np.random.default_rng(9)
        for seed in range(10):
            A = real_symmetric(4, seed=seed)
            q = rand_q(rng)
            assert scalar_op(q, A).adjoint().isclose(
                scalar_op(q.conjugate(), A), atol=1e-11)
            assert scalar_op(q, A).isclose(
                scalar_op(q, A, side="right"), atol=1e-11)

    def test_unit_commutes_through(self):
        A = real_symmetric(5, seed=10)
        iA = scalar_op(I, A)
        Ai = scalar_op(I, A, side="right")
        assert iA.isclose(Ai, atol=1e-12)


class TestResolventPoly:
    def test_real_shift_collapses(self):
        A = real_symmetric(4, seed=11)
        r = 1.5
        R = resolvent_poly(A, Quaternion(r))
        shifted = A - r * QOperator.identity(4)
        assert R.isclose(shifted @ shifted, atol=1e-10)

    def test_diagonal_at_i(self):
        A = QOperator([[1, 0], [0, 2]])
        R = resolvent_poly(A, I)
        assert R.entry(0, 0).isclose(Quaternion(2), atol=0)
        assert R.entry(1, 1).isclose(Quaternion(5), atol=0)

    def test_factorization(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            n = int(rng.integers(3, 8))
            A = real_symmetric(n, seed=seed)
            q = Quaternion(1, 1, 1, 0)
            R = resolvent_poly(A, q)
            F1 = shift_left_scalar(A, q) @ shift_left_scalar(A, q.conjugate())
            F2 = shift_left_scalar(A, q.conjugate()) @ shift_left_scalar(A, q)
            phi = random_qvector(rng, n)
            assert (R(phi) - F1(phi)).norm() <= 1e-10 * max(1.0, phi.norm())
            assert (R(phi) - F2(phi)).norm() <= 1e-10 * max(1.0, phi.norm())


class TestNormIdentity:
    def test_unit_shift(self):
        A = real_symmetric(4, seed=13)
        L = Basis.canonical(4)
        assert norm_identity_check(A, L, I, samples=100, seed=0) <= 1e-10

    def test_real_shift_is_exactly_zero(self):
        A = real_symmetric(4, seed=14)
        L = Basis.canonical(4)
        assert norm_identity_check(A, L, Quaternion(3), samples=50, seed=0) == 0.0

    def test_general_shift(self):
        A = real_symmetric(5, seed=15)
        L = Basis.canonical(5)
        q = Quaternion(2, 1, -1, 3)
        assert norm_identity_check(A, L, q, samples=100, seed=0) <= 1e-10

    def test_precondition_gate(self):
        A = QOperator([[Quaternion(1), Quaternion(2, 0, 1)],
                       [Quaternion(2, 0, -1), Quaternion(3)]])
        with pytest.raises(PreconditionFailed):
            norm_identity_check(A, Basis.canonical(2), I)

    def test_kernel_consequence(self):
        # ||(A - q)phi|| >= |Im q| ||phi|| so the shifted kernel is trivial
        rng = np.random.default_rng(16)
        for seed in range(5):
            A = real_symmetric(4, seed=seed)
            q = rand_q(rng)
            if q.im_norm() < 0.1:
                continue
            M = shift_left_scalar(A, q)
            assert kernel_q(M) == []
            for _ in range(20):
                phi = random_qvector(rng, 4)
                assert M(phi).norm() >= q.im_norm() * phi.norm() - 1e-9


class TestCriteriaReport:
    def test_real_symmetric_all_true(self):
        cr = criteria_report(real_symmetric(4, seed=17))
        assert cr.self_adjoint and cr.kernels_trivial and cr.ranges_full
        assert cr.agree and cr.hypotheses_met
        assert cr.general_kernels_trivial and cr.general_ranges_full

    def test_hermitian_quaternionic_all_true(self):
        A = QOperator([[Quaternion(1), Quaternion(2, 0, 1)],
                       [Quaternion(2, 0, -1), Quaternion(3)]])
        cr = criteria_report(A)
        assert cr.self_adjoint and cr.kernels_trivial and cr.ranges_full
        assert cr.agree
        assert not cr.hypotheses_met  # j entries do not commute past i

    def test_non_symmetric_rejected(self):
        with pytest.raises(PreconditionFailed):
            criteria_report(random_operator(3, seed=18))

    def test_max_defect_reported(self):
        cr = criteria_report(hermitian_random(4, seed=19))
        assert cr.max_defect <= 1e-12


class TestJsonFormat:
    def test_roundtrip(self):
        A = hermitian_random(3, seed=20)
        B = QOperator.from_json(A.to_json())
        assert B.isclose(A, atol=0)

    def test_literal_entries(self):
        obj = {"dim": 2, "entries": ["1", "2+j", "2-j", "3"]}
        A = QOperator.from_dict(obj)
        assert A.entry(0, 1).isclose(Quaternion(2, 0, 1), atol=0)
        assert symmetry_predicates(A).is_symmetric

    def test_bad_entry_count(self):
        with pytest.raises(ValueError):
            QOperator.from_dict({"dim": 2, "entries": ["1"]})

    @staticmethod
    def parsed(lit):
        """The entry ``lit`` reads as in a 1x1 matrix file, or its error."""
        try:
            return QOperator.from_dict({"dim": 1, "entries": [lit]}).entries.tobytes()
        except ValueError as exc:
            return str(exc)

    @staticmethod
    def general(lit):
        try:
            return np.array(parse_quaternion(lit).to_array()).tobytes()
        except ValueError as exc:
            return str(exc)

    @staticmethod
    def reaching_general_parser(monkeypatch):
        """The literals the matrix loader hands to parse_quaternion, in order."""
        seen = []
        monkeypatch.setattr(qdef.qoperator, "parse_quaternion",
                            lambda lit: seen.append(lit) or parse_quaternion(lit))
        return seen

    def test_canonical_literals_bit_equal_general_parser(self, monkeypatch):
        rng = np.random.default_rng(21)
        values = list(rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200))
        values += [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e+300, -1e+300]
        seen = self.reaching_general_parser(monkeypatch)
        lits = ["".join(("-" if np.signbit(x) else "+") + repr(abs(float(x))) + unit
                        for x, unit in zip(values[at:at + 4], ("", "i", "j", "k")))
                for at in range(0, len(values), 4)]
        lits += ["+1E5+.5i-7.j+0k", "+1-2i+3j-4k", "-0.0-0.0i-0.0j-0.0k"]
        for lit in lits:
            assert self.parsed(lit) == self.general(lit), lit
        assert seen == []
        # a -0.0 term reads as +0.0: the general parser adds it to a 0.0 slot
        assert self.parsed("-0.0-0.0i-0.0j-0.0k") == np.zeros(4).tobytes()

    @pytest.mark.parametrize("lit", [
        "1E5+2i+3j+4k",            # no leading sign
        "+1.2.3+0i+0j+0k",         # not a number
        "+1+2j+3i+4k",             # terms out of order
        "+1+2i3j+4k",              # a missing sign
        " +1+2i+3j+4k",            # a space
        "+1-2i",                   # fewer terms
    ])
    def test_other_literals_reach_general_parser(self, lit, monkeypatch):
        seen = self.reaching_general_parser(monkeypatch)
        assert self.parsed(lit) == self.general(lit)
        assert seen == [lit]

    def test_mixed_file_reads_entry_by_entry(self, monkeypatch):
        # one literal off the canonical form sends the whole file to the
        # per-entry path, which must read every entry as the general parser
        lits = ["+1.5-2i+0j+4e-3k", "-0.0+0.0i-0.0j+0.0k", "+1E5+.5i-7.j+0k",
                "2-j", "+3+0i+1j-1k", "+1.25+0i+0j+0k", "-7+8i-9j+10k", "k",
                "+0+0i+0j+0k"]
        seen = self.reaching_general_parser(monkeypatch)
        arr = QOperator.from_dict({"dim": 3, "entries": lits}).entries
        assert seen == lits
        want = np.array([parse_quaternion(lit).to_array() for lit in lits])
        assert arr.tobytes() == want.reshape(3, 3, 4).tobytes()

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be at least 1"):
            QOperator.from_dict({"dim": dim, "entries": []})
