import numpy as np
import pytest

from qdef import (I, J, K, ONE, Quaternion, embed2x2, format_quaternion,
                  from_embed2x2, parse_quaternion, qmatmul, qmul)
from qdef.quat import qmatmul_stack


def rand_q(rng, scale=2.0):
    return Quaternion(*(scale * rng.standard_normal(4)))


class TestUnitTable:
    def test_products(self):
        assert (I * J).isclose(K)
        assert (J * I).isclose(-K)
        assert (J * K).isclose(I)
        assert (K * J).isclose(-I)
        assert (K * I).isclose(J)
        assert (I * K).isclose(-J)

    def test_squares(self):
        for u in (I, J, K):
            assert (u * u).isclose(Quaternion(-1))

    def test_identity_element(self):
        q = Quaternion(2, 0, 3, 0)
        assert (q * ONE).isclose(q)
        assert (ONE * q).isclose(q)

    def test_worked_product(self):
        # (1+2i)(3+k) via the embedding oracle and frozen by hand
        a = Quaternion(1, 2, 0, 0)
        b = Quaternion(3, 0, 0, 1)
        expected = from_embed2x2(embed2x2(a) @ embed2x2(b))
        assert (a * b).isclose(expected, atol=1e-14)
        assert (a * b).isclose(Quaternion(3, 6, -2, 1), atol=1e-14)

    def test_associative_noncommutative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = rand_q(rng), rand_q(rng), rand_q(rng)
            assert ((a * b) * c).isclose(a * (b * c), atol=1e-12)
        assert not (I * J).isclose(J * I)


class TestConjNormInv:
    def test_unit_imaginary(self):
        c, n, inv = I.conjugate(), I.norm(), I.inverse()
        assert c.isclose(-I) and n == 1.0 and inv.isclose(-I)

    def test_norm_value(self):
        q = Quaternion(1, 2, 3, 4)
        assert q.norm_sq() == pytest.approx(30.0, abs=1e-14)

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            Quaternion(0).inverse()

    def test_conj_involution(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rand_q(rng)
            assert q.conjugate().conjugate().isclose(q, atol=0)

    def test_inverse_property(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = rand_q(rng)
            if q.norm() < 1e-6:
                continue
            assert (q * q.inverse() - ONE).norm() <= 1e-14
            assert (q.inverse() * q - ONE).norm() <= 1e-14

    def test_q_times_conj_is_normsq(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = rand_q(rng)
            left = q * q.conjugate()
            right = q.conjugate() * q
            assert left.isclose(Quaternion(q.norm_sq()), atol=1e-12)
            assert right.isclose(Quaternion(q.norm_sq()), atol=1e-12)

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = rand_q(rng), rand_q(rng)
            assert (a * b).norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12)


class TestEmbedding:
    def test_unit_images(self):
        np.testing.assert_allclose(embed2x2(ONE), np.eye(2))
        np.testing.assert_allclose(embed2x2(I), np.array([[0, 1j], [1j, 0]]))
        np.testing.assert_allclose(embed2x2(J), np.array([[0, -1], [1, 0]]))
        np.testing.assert_allclose(embed2x2(K), np.array([[1j, 0], [0, -1j]]))

    def test_det_is_normsq(self):
        q = Quaternion(1, 2, 3, 4)
        assert np.linalg.det(embed2x2(q)) == pytest.approx(30.0, abs=1e-12)

    def test_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b = rand_q(rng), rand_q(rng)
            lhs = embed2x2(a * b)
            rhs = embed2x2(a) @ embed2x2(b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-14 * max(1.0, a.norm() * b.norm())

    def test_conjugate_maps_to_adjoint(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = rand_q(rng)
            np.testing.assert_allclose(embed2x2(q.conjugate()),
                                       embed2x2(q).conj().T, atol=1e-15)

    def test_complex_pair_roundtrip_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            q = rand_q(rng)
            back = from_embed2x2(embed2x2(q))
            assert back.isclose(q, atol=0)


@pytest.mark.parametrize("comps,norm,im_norm", [
    # squares underflow to 0 or overflow: once 0, or an OverflowError
    ((0.0, 1e-200, 0.0, 0.0), 1e-200, 1e-200),
    ((3e-200, 0.0, 4e-200, 0.0), 5e-200, 4e-200),
    ((1e200, 1e-200, 0.0, 0.0), 1e200, 1e-200),
    ((0.0, 1e300, 0.0, 0.0), 1e300, 1e300),
    ((-3e200, 0.0, 0.0, 4e200), 5e200, 4e200),
    # in range, the plain formula keeps its bits
    ((1.0, 2.0, 3.0, 4.0), np.sqrt(30.0), np.sqrt(29.0)),
    ((0.1, -0.7, 1e-100, 3.0), np.sqrt(0.1 ** 2 + 0.7 ** 2 + 1e-200 + 9.0),
     np.sqrt(0.7 ** 2 + 1e-200 + 9.0)),
    ((0.0, 0.0, 0.0, 0.0), 0.0, 0.0),
])
def test_norms_across_the_double_range(comps, norm, im_norm):
    q = Quaternion(*comps)
    assert q.norm() == pytest.approx(norm, rel=1e-15, abs=0.0)
    assert q.im_norm() == pytest.approx(im_norm, rel=1e-15, abs=0.0)
    if 1e-100 < norm < 1e100:
        assert q.norm() == norm and q.im_norm() == im_norm
    if norm:       # q^-1 = conj(u) / |q| for the unit u = q / |q|
        unit = q / float(q.norm())
        assert (q.inverse() * float(q.norm())).isclose(unit.conjugate(), atol=1e-15)


class TestImNorm:
    def test_examples(self):
        assert Quaternion(5).im_norm() == 0.0
        assert I.im_norm() == 1.0
        assert Quaternion(1, 2, 2, 1).im_norm() == pytest.approx(3.0, abs=1e-15)

    def test_zero_iff_self_conjugate(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            q = rand_q(rng)
            assert (q.im_norm() == 0.0) == q.isclose(q.conjugate(), atol=0)
        assert Quaternion(3.5).im_norm() == 0.0


class TestLiterals:
    def test_parse_examples(self):
        assert parse_quaternion("1-2i+0.5k").isclose(Quaternion(1, -2, 0, 0.5), atol=0)
        assert parse_quaternion("i").isclose(I, atol=0)
        assert parse_quaternion("-j").isclose(-J, atol=0)
        assert parse_quaternion("2.5").isclose(Quaternion(2.5), atol=0)
        assert parse_quaternion("0").isclose(Quaternion(0), atol=0)
        assert parse_quaternion("1+i+j+k").isclose(Quaternion(1, 1, 1, 1), atol=0)
        assert parse_quaternion("3e-2i").isclose(Quaternion(0, 0.03), atol=0)

    def test_parse_rejects_junk(self):
        for bad in ("", "foo", "1+2x", "++", "1i2"):
            with pytest.raises(ValueError):
                parse_quaternion(bad)

    def test_roundtrip(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            q = rand_q(rng)
            assert parse_quaternion(format_quaternion(q)).isclose(q, atol=0)
        assert format_quaternion(Quaternion(0)) == "0"
        assert format_quaternion(Quaternion(1, -2, 0, 0.5)) == "1-2i+0.5k"


class TestArrayHelpers:
    def test_qmul_matches_scalar(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((40, 4))
        b = rng.standard_normal((40, 4))
        prod = qmul(a, b)
        for k in range(40):
            expected = Quaternion.from_array(a[k]) * Quaternion.from_array(b[k])
            assert Quaternion.from_array(prod[k]).isclose(expected, atol=0)

    def test_broadcasting(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((5, 1, 4))
        b = rng.standard_normal((1, 7, 4))
        assert qmul(a, b).shape == (5, 7, 4)
        # transposed factors still give a C-contiguous product of the same
        # bits, so sums over it add in the same order
        c = rng.standard_normal((7, 5, 4))
        for x, y in ((a, c.transpose(1, 0, 2)), (c.transpose(1, 0, 2), b)):
            prod = qmul(x, y)
            assert prod.flags.c_contiguous
            assert np.array_equal(prod, qmul(x, np.ascontiguousarray(y)))
            assert np.array_equal(prod, qmul(np.ascontiguousarray(x), y))


def sixteen_call_qmatmul(a, b):
    """The oracle: one ``@`` per pair of component matrices, four-term sums."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    vector = b.ndim == 2
    if vector:
        b = b[:, None, :]
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    c0 = a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3
    c1 = a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2
    c2 = a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1
    c3 = a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0
    out = np.stack([c0, c1, c2, c3], axis=-1)
    return out[:, 0, :] if vector else out


def _poison(rng, *arrays):
    """Write -0.0, +0.0, inf, -inf and NaN into random entries of each array."""
    for arr in arrays:
        flat = arr.reshape(-1)
        for value in (-0.0, 0.0, np.inf, -np.inf, np.nan):
            flat[rng.integers(flat.size)] = value


class TestQmatmulBits:
    """One matmul per qmatmul gives the bytes of sixteen separate calls."""

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    @pytest.mark.parametrize("k", range(1, 49))
    def test_bit_for_bit(self, k, scale):
        rng = np.random.default_rng(1000 * k + int(scale))
        n, m = 49 - k, 1 + k % 7
        for special in (False, True):
            a = scale * rng.standard_normal((n, k, 4))
            sq = scale * rng.standard_normal((k, k, 4))
            b = scale * rng.standard_normal((k, m, 4))
            v = scale * rng.standard_normal((k, 4))
            stack = scale * rng.standard_normal((5, 2, k, 4))
            if special:
                _poison(rng, a, sq, b, v, stack)
            pairs = [
                (a, v), (a, v[:, None, :]), (a, b),
                # transposed and strided views, as gram_schmidt passes
                (sq.transpose(1, 0, 2), v), (sq.transpose(1, 0, 2), sq),
                (b.transpose(1, 0, 2), a.transpose(1, 0, 2)),
                (a[:, ::-1], v[::-1]), (a, b[:, ::-1]), (sq, stack[0, 1]),
            ]
            with np.errstate(all="ignore"):
                for x, y in pairs:
                    got = qmatmul(x, y)
                    assert got.flags.c_contiguous
                    assert got.tobytes() == sixteen_call_qmatmul(x, y).tobytes()
                for x, vs in ((a, stack[:, 0]), (sq.transpose(1, 0, 2), stack[:, 1]),
                              (sq, stack.reshape(10, k, 4))):
                    got = qmatmul_stack(x, vs)
                    want = np.array([sixteen_call_qmatmul(x, u) for u in vs])
                    assert got.flags.c_contiguous and got.shape == want.shape
                    # the same bits, but a NaN may carry the other sign
                    nan = np.isnan(want)
                    assert np.array_equal(np.isnan(got), nan)
                    assert got[~nan].tobytes() == want[~nan].tobytes()
                    if not special:
                        assert got.tobytes() == want.tobytes()

    def test_shapes(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((3, 5, 4))
        assert qmatmul(a, rng.standard_normal((5, 4))).shape == (3, 4)
        assert qmatmul(a, rng.standard_normal((5, 2, 4))).shape == (3, 2, 4)
        assert qmatmul_stack(a, rng.standard_normal((6, 5, 4))).shape == (6, 3, 4)
        assert qmatmul_stack(a, np.empty((0, 5, 4))).shape == (0, 3, 4)
