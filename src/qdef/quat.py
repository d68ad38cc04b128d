"""Quaternion scalar algebra and its 2x2 complex matrix representation.

A quaternion q = q0 + q1*i + q2*j + q3*k is stored as four double-precision
components.  The imaginary units obey i^2 = j^2 = k^2 = -1 and
ij = k = -ji, jk = i = -kj, ki = j = -ik.

Multiplication is implemented by the component formulas: ``Quaternion``
writes them out, and the array product ``qmul`` is a signed term table that
adds the same terms in the same order, bit for bit the scalar product; the
matrix products ``qmatmul`` and ``qmatmul_stack`` add the products of
component matrices in that table's order.  The 2x2 complex embedding is an
independent oracle, never the implementation.

The module also provides vectorized helpers (``qmul``, ``qconj``, ...) acting
on numpy arrays whose trailing axis holds the four components.  Higher-level
modules store vectors as (n, 4) arrays and matrices as (n, m, 4) arrays and
route all algebra through these helpers.
"""

from __future__ import annotations

import math
import re

import numpy as np

ATOL = 1e-12  # default tolerance for quaternion equality


# ---------------------------------------------------------------------------
# vectorized component-array algebra
# ---------------------------------------------------------------------------

# Term m of component k of the Hamilton product a*b, at position 4m + k, is
# _SIGN * a[_LEFT] * b[_RIGHT]; each component adds its four terms left to
# right, in the order of the component formulas of ``Quaternion.__mul__``.
_LEFT = np.repeat(np.arange(4), 4)
_RIGHT = np.array([0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0])
_SIGN = np.array([1, 1, 1, 1, -1, 1, -1, 1, -1, 1, 1, -1, -1, -1, 1, 1], dtype=float)


def _signed(a):
    """Signed left factors of Hamilton products: (..., 4) -> (..., 16)."""
    return a[..., _LEFT] * _SIGN


def _qmul(sa, b):
    """Products a*b from sa = _signed(a), each component ((t0 +- t1) +- t2) +- t3:
    elementwise operations only, so each rounds as the scalar formulas do."""
    t = sa * b[..., _RIGHT]
    return ((t[..., 0:4] + t[..., 4:8]) + t[..., 8:12]) + t[..., 12:16]


def qmul(a, b):
    """Hamilton product of component arrays, broadcasting over leading axes;
    C-contiguous for any input layout, so that later sums add in one order."""
    return np.ascontiguousarray(_qmul(_signed(np.asarray(a, dtype=float)),
                                      np.asarray(b, dtype=float)))


def qconj(a):
    """Componentwise quaternionic conjugate."""
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qnormsq(a):
    """Squared norms |q|^2 = q0^2 + q1^2 + q2^2 + q3^2 along the last axis."""
    a = np.asarray(a, dtype=float)
    return np.einsum("...i,...i->...", a, a)


# Component k of a matrix product adds the products a_m @ b_r of component
# matrices in the order of the term table: (m, r, ufunc) for m = 0..3, where
# the ufunc adds the term with its sign (the first term is always +)
_MATMUL_TERMS = tuple(
    tuple((m, int(_RIGHT[4 * m + k]), np.add if _SIGN[4 * m + k] > 0 else np.subtract)
          for m in range(4))
    for k in range(4))


def _combine(p):
    """Quaternionic products from the component products p[m, r] = a_m @ b_r:
    component k adds its four terms left to right, as the four-term
    expressions of separate products do, into a C-contiguous (..., 4) array.
    No add is in place: on a single element numpy's in-place add can return
    the other of two NaNs."""
    shape = p.shape[2:]
    out = np.empty((4,) + shape)
    tmp = np.empty(shape)
    for c, ((m0, r0, _), (m1, r1, op1), (m2, r2, op2), (m3, r3, op3)) in zip(
            out, _MATMUL_TERMS):
        op1(p[m0, r0], p[m1, r1], out=c)
        op2(c, p[m2, r2], out=tmp)
        op3(tmp, p[m3, r3], out=c)
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def qmatmul(a, b):
    """Quaternionic matrix product of component arrays.

    ``a`` has shape (n, k, 4); ``b`` has shape (k, m, 4) or (k, 4) for a
    single vector, and the result (n, m, 4) or (n, 4) is C-contiguous.
    Entries multiply coefficients from the left, matching the action of a
    right-linear operator on coordinates.

    All sixteen products of component matrices a_i @ b_j come from one
    ``np.matmul`` over the component-first views ``a.transpose(2, 0, 1)`` and
    ``b.transpose(2, 0, 1)`` (``b.T[:, :, None]``, a stack of (k, 1) columns,
    for a vector).  Each pair has the strides a separate ``a_i @ b_j`` call
    would see, so numpy runs the same inner loop on it (a strided loop for a
    vector, BLAS for matrices), and component k adds its products in the
    order ((t0 +- t1) +- t2) +- t3 of the component formulas.  The result is
    bit for bit that of sixteen separate ``@`` calls, for any input layout,
    down to the sign of a NaN.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    left = a.transpose(2, 0, 1)[:, None]
    if b.ndim == 2:
        return _combine(np.matmul(left, b.T[:, :, None])[..., 0])
    return _combine(np.matmul(left, b.transpose(2, 0, 1)))


def qmatmul_stack(a, vs):
    """``qmatmul(a, v)`` for each vector v of a stack ``vs`` of shape (s, k, 4),
    as one C-contiguous (s, n, 4) array.

    The s vectors go to one ``np.matmul`` as (k, 1) columns, each on the inner
    loop of a separate product (a (k, s) block would go to BLAS as one matrix
    and round otherwise), and the adds run over all s vectors at once.  Every
    entry is bit for bit that of the s separate products, except that a NaN
    may carry the other sign: numpy's add keeps the first of two NaNs in its
    SIMD lanes and the second in the scalar tail, and the tail of a stack is
    not the tail of each vector.
    """
    a = np.asarray(a, dtype=float)
    vs = np.asarray(vs, dtype=float)
    return _combine(np.matmul(a.transpose(2, 0, 1)[:, None, None],
                              vs.transpose(2, 0, 1)[..., None])[..., 0])


# ---------------------------------------------------------------------------
# scalar quaternions
# ---------------------------------------------------------------------------

class Quaternion:
    """A quaternion scalar with component arithmetic.

    Supports +, -, *, / with other quaternions and with real numbers.
    The product is non-commutative; ``a * b`` follows the unit table above.
    """

    __slots__ = ("q0", "q1", "q2", "q3")

    def __init__(self, q0=0.0, q1=0.0, q2=0.0, q3=0.0):
        self.q0 = float(q0)
        self.q1 = float(q1)
        self.q2 = float(q2)
        self.q3 = float(q3)

    @classmethod
    def from_array(cls, arr):
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (4,):
            raise ValueError("expected a length-4 component array")
        return cls(arr[0], arr[1], arr[2], arr[3])

    def to_array(self):
        return np.array([self.q0, self.q1, self.q2, self.q3], dtype=float)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Quaternion):
            return other
        if isinstance(other, (int, float)):
            return Quaternion(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quaternion(self.q0 + o.q0, self.q1 + o.q1, self.q2 + o.q2, self.q3 + o.q3)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quaternion(self.q0 - o.q0, self.q1 - o.q1, self.q2 - o.q2, self.q3 - o.q3)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Quaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self.q0, self.q1, self.q2, self.q3
        b0, b1, b2, b3 = o.q0, o.q1, o.q2, o.q3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.q0 / other, self.q1 / other, self.q2 / other, self.q3 / other)
        if isinstance(other, Quaternion):
            return self * other.inverse()
        return NotImplemented

    # -- structure ----------------------------------------------------------

    def conjugate(self):
        return Quaternion(self.q0, -self.q1, -self.q2, -self.q3)

    def norm_sq(self):
        return self.q0 ** 2 + self.q1 ** 2 + self.q2 ** 2 + self.q3 ** 2

    def norm(self):
        return _norm(self.q0, self.q1, self.q2, self.q3)

    def inverse(self):
        big = max(abs(self.q0), abs(self.q1), abs(self.q2), abs(self.q3))
        if big == 0.0:
            raise ZeroDivisionError("quaternion inverse of zero")
        try:
            n2 = self.norm_sq()
        except OverflowError:
            n2 = math.inf
        if (n2 == 0.0 or n2 == math.inf) and big < math.inf:
            return (self / big).inverse() / big
        c = self.conjugate()
        return Quaternion(c.q0 / n2, c.q1 / n2, c.q2 / n2, c.q3 / n2)

    @property
    def real(self):
        return self.q0

    def im_norm(self):
        """sqrt(q1^2 + q2^2 + q3^2); zero exactly when the quaternion is real."""
        return _norm(self.q1, self.q2, self.q3)

    def is_real(self, atol=ATOL):
        return self.im_norm() <= atol

    def isclose(self, other, atol=ATOL):
        o = self._coerce(other)
        if o is None:
            return False
        return (abs(self.q0 - o.q0) <= atol and abs(self.q1 - o.q1) <= atol
                and abs(self.q2 - o.q2) <= atol and abs(self.q3 - o.q3) <= atol)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.isclose(o, atol=ATOL)

    def __hash__(self):
        raise TypeError("Quaternion equality is tolerance-based; not hashable")

    def __repr__(self):
        return f"Quaternion({self.q0!r}, {self.q1!r}, {self.q2!r}, {self.q3!r})"

    def __str__(self):
        return format_quaternion(self)


def _norm(*xs):
    """sqrt(x0^2 + x1^2 + ...), added left to right.  Where the squares
    overflow, or underflow to 0 with an x nonzero, it is the norm of the xs
    divided by their largest magnitude, times that magnitude."""
    sq = 0.0
    try:
        for x in xs:
            sq += x ** 2
    except OverflowError:               # a float's ** raises where * gives inf
        sq = math.inf
    big = max(map(abs, xs))
    if (sq == 0.0 or sq == math.inf) and 0.0 < big < math.inf:
        return big * _norm(*(x / big for x in xs))
    return np.sqrt(sq)


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

UNITS = {"i": I, "j": J, "k": K}


# ---------------------------------------------------------------------------
# the 2x2 complex representation (oracle)
# ---------------------------------------------------------------------------

def embed2x2(q: Quaternion) -> np.ndarray:
    """2x2 complex matrix [[z1, -conj(z2)], [z2, conj(z1)]] representing ``q``,
    with z1 = q0 + i*q3 and z2 = q2 + i*q1.

    Multiplicative: embed2x2(a*b) = embed2x2(a) @ embed2x2(b), and the
    conjugate maps to the conjugate transpose.  det equals |q|^2.
    """
    z1, z2 = complex(q.q0, q.q3), complex(q.q2, q.q1)
    return np.array([[z1, -np.conj(z2)], [z2, np.conj(z1)]], dtype=complex)


def from_embed2x2(m) -> Quaternion:
    """Inverse of ``embed2x2`` on its range (reads the first column z1, z2);
    the round trip from a quaternion is exact."""
    m = np.asarray(m, dtype=complex)
    z1, z2 = m[0, 0], m[1, 0]
    return Quaternion(z1.real, z2.imag, z2.real, z1.imag)


# ---------------------------------------------------------------------------
# textual literals
# ---------------------------------------------------------------------------

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TERM = re.compile(r"\s*([+-]?)\s*(" + _NUM + r")?\s*([ijk])?")
_SLOT = {"i": 1, "j": 2, "k": 3}


def parse_quaternion(text: str) -> Quaternion:
    """Parse a literal like ``1-2i+0.5k`` (terms optional, any order)."""
    s = text.strip()
    if not s:
        raise ValueError("empty quaternion literal")
    comps = [0.0, 0.0, 0.0, 0.0]
    pos = 0
    seen_term = False
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse quaternion literal {text!r} at {s[pos:]!r}")
        sign, num, unit = m.groups()
        if num is None and unit is None:
            raise ValueError(f"cannot parse quaternion literal {text!r} at {s[pos:]!r}")
        if seen_term and not sign:
            raise ValueError(f"missing sign between terms in {text!r}")
        value = float(num) if num is not None else 1.0
        if sign == "-":
            value = -value
        comps[_SLOT[unit] if unit else 0] += value
        seen_term = True
        pos = m.end()
    if not seen_term:
        raise ValueError(f"cannot parse quaternion literal {text!r}")
    return Quaternion(*comps)


def _fmt_float(x: float) -> str:
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def format_quaternion(q: Quaternion) -> str:
    """Literal form ``a+bi+cj+dk`` with zero terms omitted; parses back exactly."""
    parts = []
    for value, unit in ((q.q0, ""), (q.q1, "i"), (q.q2, "j"), (q.q3, "k")):
        if value == 0.0:
            continue
        text = _fmt_float(abs(value)) + unit
        if unit and abs(value) == 1.0:
            text = unit
        parts.append(("-" if value < 0 else "+", text))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, text in parts[1:]:
        out += sign + text
    return out


def random_quaternion(rng, scale=1.0) -> Quaternion:
    return Quaternion(*(scale * rng.standard_normal(4)))


def random_unit_imaginary(rng) -> Quaternion:
    """A uniformly random quaternion u with Re(u) = 0 and |u| = 1."""
    v = rng.standard_normal(3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
    return Quaternion(0.0, *(v / n))
