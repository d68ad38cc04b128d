import numpy as np
import pytest

from qdef import (Basis, I, J, K, Quaternion, QVector, delta_map,
                  expand, gram_schmidt, inner, left_scale, random_basis,
                  random_qvector, random_real_rotation_basis, reconstruct)
from qdef.errors import (BasisError, DimensionMismatch, RankDeficient,
                         ZeroScalar)
from qdef.quat import qconj, qmatmul


def e(dim, k):
    return QVector.basis_vector(dim, k)


def rand_q(rng):
    return Quaternion(*rng.standard_normal(4))


class TestInnerProduct:
    def test_orthogonality(self):
        assert inner(e(3, 0), e(3, 1)).isclose(Quaternion(0), atol=0)

    def test_axioms(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            phi, psi, omega = (random_qvector(rng, dim) for _ in range(3))
            q = rand_q(rng)
            # (i) conjugate symmetry
            assert inner(phi, psi).conjugate().isclose(inner(psi, phi), atol=1e-12)
            # (ii) positivity
            assert inner(phi, phi).isclose(Quaternion(phi.norm_sq()), atol=1e-12)
            # (iii) right additivity
            assert inner(phi, psi + omega).isclose(
                inner(phi, psi) + inner(phi, omega), atol=1e-12)
            # (iv) <phi | psi q> = <phi|psi> q
            assert inner(phi, psi * q).isclose(inner(phi, psi) * q, atol=1e-11)
            # (v) <phi q | psi> = conj(q) <phi|psi>
            assert inner(phi * q, psi).isclose(
                q.conjugate() * inner(phi, psi), atol=1e-11)

    def test_left_slot_example(self):
        # <e1 j | e1> = conj(j) <e1|e1> = -j
        assert inner(e(2, 0) * J, e(2, 0)).isclose(-J, atol=0)

    def test_norm_example(self):
        phi = QVector([Quaternion(1), I])
        assert inner(phi, phi).isclose(Quaternion(2), atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner(e(2, 0), e(3, 0))


class TestRightScale:
    def test_identity(self):
        rng = np.random.default_rng(1)
        phi = random_qvector(rng, 4)
        assert (phi * Quaternion(1)).isclose(phi, atol=0)

    def test_basis_action(self):
        v = e(3, 1) * J
        assert v[1].isclose(J, atol=0) and v[0].isclose(Quaternion(0), atol=0)

    def test_norm_multiplicative(self):
        phi = QVector([Quaternion(1), I])
        q = Quaternion(1, 0, 0, 1)
        assert (phi * q).norm() == pytest.approx(2.0, abs=1e-14)


class TestLeftScale:
    def test_basis_vectors_commute(self):
        L = Basis.canonical(3)
        rng = np.random.default_rng(2)
        for k in range(3):
            q = rand_q(rng)
            assert left_scale(L, q, e(3, k)).isclose(e(3, k) * q, atol=1e-12)

    def test_reals_commute(self):
        rng = np.random.default_rng(3)
        L = random_basis(rng, 3)
        phi = random_qvector(rng, 3)
        assert left_scale(L, Quaternion(2.5), phi).isclose(phi * 2.5, atol=1e-12)

    def test_norm_example(self):
        L = Basis.canonical(2)
        phi = QVector([J, K])
        q = Quaternion(1, 1, 0, 0)
        assert left_scale(L, q, phi).norm() == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_product_axioms(self, seed):
        # distributivity, norm, composition, adjoint shift, real and basis cases
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        L = random_basis(rng, dim)
        for _ in range(20):
            p, q = rand_q(rng), rand_q(rng)
            phi, psi = random_qvector(rng, dim), random_qvector(rng, dim)
            qphi = left_scale(L, q, phi)
            # (a) additivity and right-compatibility
            assert left_scale(L, q, phi + psi).isclose(
                qphi + left_scale(L, q, psi), atol=1e-11)
            assert left_scale(L, q, phi * p).isclose(qphi * p, atol=1e-11)
            # (b) norm multiplicativity
            assert qphi.norm() == pytest.approx(q.norm() * phi.norm(), rel=1e-11)
            # (c) composition
            assert left_scale(L, q, left_scale(L, p, phi)).isclose(
                left_scale(L, q * p, phi), atol=1e-11)
            # (d) adjoint-like shift
            lhs = inner(left_scale(L, q.conjugate(), phi), psi)
            rhs = inner(phi, left_scale(L, q, psi))
            assert lhs.isclose(rhs, atol=1e-11)
            # additivity in the scalar slot
            assert left_scale(L, p + q, phi).isclose(
                left_scale(L, p, phi) + qphi, atol=1e-11)

    def test_surjective(self):
        # solving q . phi = psi succeeds for every psi and q != 0
        rng = np.random.default_rng(9)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            L = random_basis(rng, dim)
            q = rand_q(rng)
            if q.norm() < 1e-3:
                continue
            psi = random_qvector(rng, dim)
            phi = left_scale(L, q.conjugate() / q.norm_sq(), psi)
            assert (left_scale(L, q, phi) - psi).norm() <= 1e-12 * max(1.0, psi.norm())

    def test_two_basis_mixed_products(self):
        # p *(q . phi) = (pq) * phi and p .(q * phi) = (pq) . phi, valid when
        # the transition matrix between the two bases is real
        rng = np.random.default_rng(10)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            L1 = Basis.canonical(dim)
            L2 = random_real_rotation_basis(rng, dim)
            p, q = rand_q(rng), rand_q(rng)
            phi = random_qvector(rng, dim)
            lhs = left_scale(L2, p, left_scale(L1, q, phi))
            rhs = left_scale(L2, p * q, phi)
            assert lhs.isclose(rhs, atol=1e-11)
            lhs = left_scale(L1, p, left_scale(L2, q, phi))
            rhs = left_scale(L1, p * q, phi)
            assert lhs.isclose(rhs, atol=1e-11)

    def test_mixed_products_fail_for_quaternionic_recombination(self):
        # boundary of validity: with second basis {(1+i)/sqrt2} of H^1,
        # 1*(j . 1) = j but (1*j)* 1 = theta j conj(theta) = k
        s = 1 / np.sqrt(2)
        L1 = Basis.canonical(1)
        L2 = Basis([QVector([Quaternion(s, s, 0, 0)])])
        phi = QVector([Quaternion(1)])
        lhs = left_scale(L2, Quaternion(1), left_scale(L1, J, phi))
        rhs = left_scale(L2, J, phi)
        assert lhs.isclose(QVector([J]), atol=1e-12)
        assert rhs.isclose(QVector([K]), atol=1e-12)
        assert not lhs.isclose(rhs, atol=1e-6)


class TestExpand:
    def test_canonical_basis_vector(self):
        coeffs = expand(Basis.canonical(3), e(3, 1))
        assert coeffs[1].isclose(Quaternion(1), atol=0)
        assert coeffs[0].isclose(Quaternion(0), atol=0)
        assert coeffs[2].isclose(Quaternion(0), atol=0)

    def test_parseval(self):
        phi = QVector([Quaternion(1), I, J])
        coeffs = expand(Basis.canonical(3), phi)
        assert sum(c.norm_sq() for c in coeffs) == pytest.approx(3.0, abs=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            B = random_basis(rng, dim)
            phi = random_qvector(rng, dim)
            back = reconstruct(B, expand(B, phi))
            assert (back - phi).norm() <= 1e-12 * max(1.0, phi.norm())
            coeffs = expand(B, phi)
            assert sum(c.norm_sq() for c in coeffs) == pytest.approx(
                phi.norm_sq(), rel=1e-11)


class TestDeltaMap:
    def test_same_basis_is_identity(self):
        rng = np.random.default_rng(12)
        L = random_basis(rng, 4)
        psi = random_qvector(rng, 4)
        out = delta_map(L, L, rand_q(rng), psi)
        assert out.isclose(psi, atol=1e-11)

    def test_dim2_explicit(self):
        # second basis is a real rotation, which commutes with left scalars,
        # so the map reduces to the identity on e1
        s = 1 / np.sqrt(2)
        B2 = Basis([QVector([Quaternion(s), Quaternion(s)]),
                    QVector([Quaternion(s), Quaternion(-s)])])
        out = delta_map(Basis.canonical(2), B2, I, e(2, 0))
        assert out.isclose(e(2, 0), atol=1e-12)

    def test_isometry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            L1 = Basis.canonical(dim)
            L2 = random_basis(rng, dim)
            psi1, psi2 = random_qvector(rng, dim), random_qvector(rng, dim)
            d1 = delta_map(L1, L2, J, psi1)
            d2 = delta_map(L1, L2, J, psi2)
            assert inner(d1, d2).isclose(inner(psi1, psi2), atol=1e-11)

    def test_right_linear(self):
        rng = np.random.default_rng(14)
        L1 = Basis.canonical(3)
        L2 = random_basis(rng, 3)
        q = Quaternion(0.3, -1, 2, 0.5)
        psi1, psi2 = random_qvector(rng, 3), random_qvector(rng, 3)
        x, y = rand_q(rng), rand_q(rng)
        lhs = delta_map(L1, L2, q, psi1 * x + psi2 * y)
        rhs = delta_map(L1, L2, q, psi1) * x + delta_map(L1, L2, q, psi2) * y
        assert lhs.isclose(rhs, atol=1e-11)

    def test_zero_scalar_rejected(self):
        L = Basis.canonical(2)
        with pytest.raises(ZeroScalar):
            delta_map(L, L, Quaternion(0), e(2, 0))


class TestGramSchmidt:
    def test_canonical_fixed_point(self):
        B = gram_schmidt([e(3, k) for k in range(3)])
        for k in range(3):
            assert B.vector(k).isclose(e(3, k), atol=0)

    def test_elementary_elimination(self):
        B = gram_schmidt([QVector([1.0, 0.0]), QVector([1.0, 1.0])])
        assert B.vector(0).isclose(e(2, 0), atol=1e-14)
        assert B.vector(1).isclose(e(2, 1), atol=1e-14)

    def test_random_gram_identity(self):
        rng = np.random.default_rng(15)
        vecs = [random_qvector(rng, 4) for _ in range(4)]
        B = gram_schmidt(vecs)
        for a in range(4):
            for b in range(4):
                target = Quaternion(1.0 if a == b else 0.0)
                assert inner(B.vector(a), B.vector(b)).isclose(target, atol=1e-10)

    def test_rank_deficient(self):
        v = QVector([Quaternion(1), J])
        with pytest.raises(RankDeficient):
            gram_schmidt([v, v * Quaternion(0.5, 1, 0, 2)])

    def test_too_few_vectors(self):
        with pytest.raises(BasisError):
            gram_schmidt([e(3, 0), QVector([Quaternion(1), J, Quaternion(0)])])


def gram_schmidt_loop(vectors):
    """Oracle: the per-vector two-pass loop, one inner product at a time.

    Returns the finished vectors as an (m, n, 4) array and raises what
    ``gram_schmidt`` raises before the Basis check.
    """
    vecs = [v if isinstance(v, QVector) else QVector(v) for v in vectors]
    if not vecs:
        raise RankDeficient("no input vectors")
    dim = vecs[0].dim
    done = []
    for v in vecs:
        if v.dim != dim:
            raise DimensionMismatch("mixed dimensions in Gram-Schmidt input")
        u = v
        for _ in range(2):
            for e_k in done:
                u = u - e_k * inner(e_k, u)
        nrm = u.norm()
        if nrm < 1e-10:
            raise RankDeficient("right-linearly dependent input detected")
        done.append(u / nrm)
    return np.array([u.components for u in done])


def gram_defect(mat):
    gram = qmatmul(qconj(mat), mat.transpose(1, 0, 2))
    gram[np.arange(len(mat)), np.arange(len(mat)), 0] -= 1.0
    return float(np.max(np.abs(gram)))


class TestBlockGramSchmidt:
    """The QR of the complex embedding against the right-module loop.

    ``gram_schmidt`` reads the basis off a Householder QR of chi(G), run
    twice; ``gram_schmidt_loop`` projects one inner product at a time, with
    the scalars on the right.  Both must give the same vectors, the same
    exceptions and the same order of exceptions.
    """

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13, 24, 48])
    def test_matches_loop_oracle(self, dim):
        rng = np.random.default_rng(100 + dim)
        for scale in (1.0, 1e3):
            vecs = [random_qvector(rng, dim, scale) for _ in range(dim)]
            B = gram_schmidt(vecs)
            assert np.max(np.abs(B.matrix - gram_schmidt_loop(vecs))) <= 1e-12
            assert gram_defect(B.matrix) <= 1e-13

    @pytest.mark.parametrize("dim", [6, 12, 24])
    def test_ill_conditioned_input_stays_orthonormal(self, dim):
        # v_k = sum_j e_j c_jk with a real c of condition number 1e7: one
        # QR of the embedding keeps its quaternion structure only to
        # condition * eps and leaves a Gram defect of 1e-11 to 6e-11 here,
        # the second QR brings it back to rounding
        rng = np.random.default_rng(200 + dim)
        E = random_basis(rng, dim).matrix
        q1 = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        q2 = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        c = np.zeros((dim, dim, 4))
        c[..., 0] = q1 @ np.diag(np.logspace(0, -7, dim)) @ q2
        V = qmatmul(E.transpose(1, 0, 2), c)
        B = gram_schmidt([QVector.from_components(V[:, k]) for k in range(dim)])
        assert gram_defect(B.matrix) <= 1e-13

    def test_dependent_before_mismatched(self):
        # the second vector is dependent and the third has another dimension:
        # the dependence is met first
        v = QVector([Quaternion(1), J, K])
        vecs = [v, v * Quaternion(0.5, 1, 0, 2), QVector([Quaternion(1), I])]
        for run in (gram_schmidt, gram_schmidt_loop):
            with pytest.raises(RankDeficient):
                run(vecs)

    def test_mismatched_before_dependent(self):
        v = QVector([Quaternion(1), J])
        vecs = [v, QVector([Quaternion(1), I, K]), v * J]
        for run in (gram_schmidt, gram_schmidt_loop):
            with pytest.raises(DimensionMismatch):
                run(vecs)

    def test_surplus_vector_is_dependent(self):
        rng = np.random.default_rng(16)
        vecs = [random_qvector(rng, 3) for _ in range(4)]
        for run in (gram_schmidt, gram_schmidt_loop):
            with pytest.raises(RankDeficient):
                run(vecs)

    def test_empty_input(self):
        with pytest.raises(RankDeficient):
            gram_schmidt([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 1])
    def test_non_finite_input_rejected(self, bad, at):
        vecs = [QVector([1.0, 0.0]), QVector([0.0, 1.0])]
        vecs[at].components[at - 1, at + 1] = bad
        with pytest.raises(RankDeficient):
            gram_schmidt(vecs)


class TestLiteralLoading:
    def test_vector_from_literals(self):
        from qdef import vector_from_literals
        v = vector_from_literals(["1", "2-j", "0.5k"])
        assert v[1].isclose(Quaternion(2, 0, -1), atol=0)
        assert v[2].isclose(Quaternion(0, 0, 0, 0.5), atol=0)

    def test_basis_from_literals_validates(self):
        from qdef import basis_from_literals
        B = basis_from_literals([["1", "0"], ["0", "i"]])
        assert B.dim == 2
        with pytest.raises(BasisError):
            basis_from_literals([["1", "0"], ["1", "1"]])


class TestBasisValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(BasisError):
            Basis([QVector([1.0, 0.0]), QVector([1.0, 1.0])])

    def test_rejects_wrong_count(self):
        with pytest.raises(BasisError):
            Basis([e(3, 0), e(3, 1)])

    def test_canonical_valid(self):
        B = Basis([e(2, 0), e(2, 1)])
        assert B.dim == 2

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch, match=r"\[2, 3\]"):
            Basis([QVector([1, 0]), QVector([1, 0, 0])])

    @pytest.mark.parametrize("family", ["canonical", "random"])
    def test_perturbation_of_1e9_rejected_1e12_accepted(self, family):
        # a 1e-9 change of one entry, or of one vector's length, is caught;
        # a 1e-12 one is within ORTHO_ATOL
        dim = 6
        mat = (Basis.canonical(dim) if family == "canonical"
               else random_basis(np.random.default_rng(17), dim)).matrix
        a = 2
        i = int(np.argmax(np.abs(mat[a]).sum(axis=1)))   # the largest entry of e_a
        unit = mat[a, i] / np.linalg.norm(mat[a, i])
        for eps, ok in ((1e-9, False), (1e-12, True)):
            bumped = mat.copy()
            bumped[a, i] += eps * unit
            scaled = mat.copy()
            scaled[a] *= 1.0 + eps
            for candidate in (bumped, scaled):
                if ok:
                    assert Basis(candidate).dim == dim
                else:
                    with pytest.raises(BasisError):
                        Basis(candidate)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(BasisError):
            Basis(np.full((2, 2, 4), bad))
        mat = Basis.canonical(3).matrix.copy()
        mat[1, 2, 3] = bad
        with pytest.raises(BasisError):
            Basis(mat)

    def test_literals_with_unequal_rows_rejected(self):
        from qdef import basis_from_literals
        with pytest.raises(DimensionMismatch, match=r"\[1, 2\]"):
            basis_from_literals([["1", "0"], ["i"]])
