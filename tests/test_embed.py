import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import qdef.embed
import qdef.spectrum

from qdef import (I, J, Quaternion, QOperator, QVector, chi, eigenvalues_c,
                  embed2x2, inner, kernel_q, left_scalar, qmatmul,
                  random_operator, random_qvector, rank_q, real_symmetric,
                  resolvent_poly, structure_map, unvec, vec)
from qdef.embed import normal_eigenvalues, rank_from_values
from qdef.errors import InternalInconsistency, NoConvergence


class TestChi:
    def test_one_by_one_unit(self):
        M = chi(QOperator([[I]]))
        np.testing.assert_allclose(M, np.array([[0, 1j], [1j, 0]]))

    def test_identity(self):
        M = chi(QOperator.identity(3))
        np.testing.assert_allclose(M, np.eye(6))

    def test_blocks_match_scalar_embedding(self):
        rng = np.random.default_rng(0)
        A = random_operator(3, seed=1)
        M = chi(A)
        for a in range(3):
            for b in range(3):
                np.testing.assert_allclose(
                    M[2 * a:2 * a + 2, 2 * b:2 * b + 2],
                    embed2x2(A.entry(a, b)), atol=1e-15)

    def test_multiplicative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A = random_operator(3, seed=int(rng.integers(1 << 31)))
            B = random_operator(3, seed=int(rng.integers(1 << 31)))
            lhs = chi(A @ B)
            rhs = chi(A) @ chi(B)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_additive_and_adjoint(self):
        A = random_operator(4, seed=3)
        B = random_operator(4, seed=4)
        np.testing.assert_allclose(chi(A + B),
                                   chi(A) + chi(B), atol=1e-14)
        np.testing.assert_allclose(chi(A.adjoint()),
                                   chi(A).conj().T, atol=1e-14)

    def test_intertwines_application(self):
        rng = np.random.default_rng(5)
        A = random_operator(4, seed=6)
        phi = random_qvector(rng, 4)
        np.testing.assert_allclose(chi(A) @ vec(phi), vec(A(phi)),
                                   atol=1e-12)


class TestVecStructure:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        phi = random_qvector(rng, 5)
        assert unvec(vec(phi)).isclose(phi, atol=0)

    def test_norm_preserved(self):
        rng = np.random.default_rng(8)
        phi = random_qvector(rng, 5)
        assert np.linalg.norm(vec(phi)) == pytest.approx(phi.norm(), rel=1e-13)

    def test_structure_map_is_right_j(self):
        rng = np.random.default_rng(9)
        phi = random_qvector(rng, 4)
        np.testing.assert_allclose(structure_map(vec(phi)), vec(phi * J),
                                   atol=1e-14)

    def test_structure_map_squares_to_minus_one(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        np.testing.assert_allclose(structure_map(structure_map(v)), -v,
                                   atol=1e-14)


class TestNonFinite:
    """A non-finite entry raises NoConvergence before LAPACK sees it, with
    every warning an error and nothing printed to stderr."""

    @staticmethod
    def stack(component, bad):
        arr = np.zeros((2, 2, 4))
        arr[0, 0, 0] = 1.0
        arr[1, 0, component] = bad
        return arr

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("component", [0, 1, 2, 3])
    def test_chi_and_vec_place_the_entry(self, component, bad):
        # the entry lands in one part of two slots, the other part untouched
        # (a product 1j * inf would make it nan + inf j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = chi(self.stack(component, bad))
            v = vec(QVector.from_components(self.stack(component, bad)[:, 0]))
        np.testing.assert_array_equal(v, M[:, 0])
        ref = chi(self.stack(component, 0.0))
        moved = chi(self.stack(component, 1.0)) != ref
        assert np.count_nonzero(moved) == 2
        assert np.array_equal(np.isfinite(M.real) & np.isfinite(M.imag), ~moved)
        assert np.all(np.isfinite(M.real) | np.isfinite(M.imag))
        assert np.array_equal(M[~moved], ref[~moved])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("component", [0, 1, 2, 3])
    def test_decompositions_raise(self, component, bad, capfd):
        A = self.stack(component, bad)
        calls = {"rank_q": lambda: rank_q(A), "kernel_q": lambda: kernel_q(A),
                 "eigenvalues_c": lambda: eigenvalues_c(A),
                 "normal_eigenvalues": lambda: normal_eigenvalues(chi(A)),
                 "normal_eigenvalues skew": lambda: normal_eigenvalues(chi(A), skew=True)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, call in calls.items():
                with pytest.raises(NoConvergence, match="non-finite"):
                    call()
        assert capfd.readouterr().err == ""


class TestKernel:
    def test_zero_matrix(self):
        assert len(kernel_q(QOperator.zero(3))) == 3

    @pytest.mark.parametrize("cols", [0, 1, 3])
    def test_no_rows(self, cols):
        # no equation: the kernel is all of H^cols, with its canonical basis
        kb = kernel_q(np.zeros((0, cols, 4)))
        assert len(kb) == cols
        got = np.array([v.components for v in kb]).reshape(cols, cols, 4)
        np.testing.assert_array_equal(got, np.eye(cols)[..., None] * [1, 0, 0, 0])

    def test_invertible_real_symmetric(self):
        A = real_symmetric(4, seed=11)
        A = A + 10.0 * QOperator.identity(4)  # push eigenvalues away from 0
        assert kernel_q(A) == []

    def test_resolvent_of_left_unit(self):
        # (left mult by i)^2 + 1 vanishes identically on H^1
        A = resolvent_poly(left_scalar(I, 1), I)
        kb = kernel_q(A, scale=1.0)
        assert len(kb) == 1

    def test_kernel_vectors_verified(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            A = random_operator(5, seed=seed)
            A.entries[:, 4] = A.entries[:, 1]  # force right-dependence
            kb = kernel_q(A)
            assert len(kb) >= 1
            for v in kb:
                assert A(v).norm() / v.norm() <= 1e-8

    def test_quaternionic_nullity_three(self):
        # X Y has right rank 4 of 7, so chi(X Y) has a J-closed complex null
        # space of dimension 6
        rng = np.random.default_rng(3)
        A = qmatmul(rng.standard_normal((7, 4, 4)), rng.standard_normal((4, 7, 4)))
        kb = kernel_q(A)
        assert len(kb) == 3
        M = chi(A)
        for v in kb:
            assert np.linalg.norm(M @ vec(v)) <= 1e-10 * np.linalg.norm(M)
        G = np.array([[inner(a, b).to_array() for b in kb] for a in kb])
        np.testing.assert_allclose(G, np.eye(3)[..., None] * [1, 0, 0, 0],
                                   atol=1e-12)

    def test_kernel_vectors_right_independent(self):
        A = QOperator.zero(3)
        kb = kernel_q(A)
        G = np.zeros((3, 3, 4))
        for a in range(3):
            for b in range(3):
                G[a, b] = inner(kb[a], kb[b]).to_array()
        assert rank_q(G) == 3


class TestRank:
    def test_identity(self):
        assert rank_q(QOperator.identity(4)) == 4

    def test_rank_one_projector(self):
        n = 3
        arr = np.zeros((n, n, 4))
        arr[0, 0, 0] = 1.0
        assert rank_q(QOperator.from_entries(arr)) == 1

    def test_dependent_columns(self):
        rng = np.random.default_rng(13)
        A = random_operator(5, seed=14)
        p, s = Quaternion(*rng.standard_normal(4)), Quaternion(*rng.standard_normal(4))
        col = (qmatmul(A.entries[:, 0:1, :], p.to_array()[None, :])
               + qmatmul(A.entries[:, 1:2, :], s.to_array()[None, :]))
        A.entries[:, 4] = col
        assert rank_q(A) == 4

    def test_rank_plus_nullity(self):
        for seed in range(10):
            A = random_operator(4, seed=seed)
            if seed % 2:
                A.entries[:, 0] = A.entries[:, 3]
            assert rank_q(A) + len(kernel_q(A)) == 4

    def test_singular_values_pair(self):
        # chi(B) commutes with the structure map J, J^2 = -1, so its sorted
        # singular values come in equal pairs
        for seed in range(5):
            s = np.linalg.svd(chi(random_operator(4, seed=seed)), compute_uv=False)
            assert np.max(np.abs(s[0::2] - s[1::2])) <= 1e-12 * s[0]

    def test_unpaired_singular_values_raise(self, monkeypatch):
        monkeypatch.setattr(qdef.embed, "chi", lambda A: np.diag([1.0, 2.0]).astype(complex))
        with pytest.raises(InternalInconsistency, match="do not pair up"):
            rank_q(QOperator.identity(1))

    def test_odd_rank_raises(self):
        # values that pair up to the pairing tolerance, with the cut between
        # the two of a pair
        s = np.array([1.0, 1.0, 0.5 + 1e-10, 0.5 - 1e-10])
        with pytest.raises(InternalInconsistency, match="complex rank of the embedding is odd"):
            rank_from_values(s, rank_tol=0.5)

    def test_kernel_takes_the_shared_cut(self, monkeypatch):
        monkeypatch.setattr(qdef.embed, "chi", lambda A: np.diag([1.0, 2.0]).astype(complex))
        with pytest.raises(InternalInconsistency, match="do not pair up"):
            kernel_q(QOperator.identity(1))


SRC = Path(__file__).resolve().parents[1] / "src" / "qdef"
DECOMPOSITIONS = {"svd", "eig", "eigh", "eigvals", "eigvalsh"}


def linalg_decompositions(path):
    """Line numbers of the numpy.linalg SVDs and eigensolvers a module names."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in DECOMPOSITIONS \
                and ast.unparse(node.value).split(".")[-1] == "linalg":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            lines += [node.lineno for alias in node.names if alias.name in DECOMPOSITIONS]
    return lines


def test_only_embed_decomposes():
    # every rank, norm and spectrum decision goes through embed's checked entries
    found = {path.name: linalg_decompositions(path) for path in sorted(SRC.glob("*.py"))}
    assert found.pop("embed.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


class TestEigenvalues:
    def test_real_diagonal_doubling(self):
        lam = eigenvalues_c(QOperator([[1, 0], [0, 2]]))
        np.testing.assert_allclose(lam, [1, 1, 2, 2], atol=1e-12)

    def test_left_unit_pair(self):
        lam = eigenvalues_c(left_scalar(I, 1))
        np.testing.assert_allclose(sorted(lam, key=lambda z: z.imag),
                                   [-1j, 1j], atol=1e-12)

    def test_hermitian_pm_one(self):
        A = QOperator([[Quaternion(0), J], [-J, Quaternion(0)]])
        lam = eigenvalues_c(A)
        np.testing.assert_allclose(lam, [-1, -1, 1, 1], atol=1e-12)

    def test_conjugation_closed(self):
        # the sphere fold pairs each eigenvalue with its conjugate
        for seed in range(20):
            A = random_operator(4, seed=seed)
            assert qdef.spectrum._fold(eigenvalues_c(A)).closure <= 1e-8

    def test_deterministic_order(self):
        A = random_operator(5, seed=15)
        l1 = eigenvalues_c(A)
        l2 = eigenvalues_c(A)
        np.testing.assert_array_equal(l1, l2)
