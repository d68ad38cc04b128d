"""Quaternion scalar algebra and its 2x2 complex matrix representation.

A quaternion q = q0 + q1*i + q2*j + q3*k is stored as four double-precision
components.  The imaginary units obey i^2 = j^2 = k^2 = -1 and
ij = k = -ji, jk = i = -kj, ki = j = -ik.

Multiplication is implemented by the component formulas: ``Quaternion``
writes them out, and the array product ``qmul`` is a signed term table that
adds the same terms in the same order, bit for bit the scalar product.  The
2x2 complex embedding is an independent oracle, never the implementation.

The module also provides vectorized helpers (``qmul``, ``qconj``, ...) acting
on numpy arrays whose trailing axis holds the four components.  Higher-level
modules store vectors as (n, 4) arrays and matrices as (n, m, 4) arrays and
route all algebra through these helpers.
"""

from __future__ import annotations

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


def qabs(a):
    """Norms |q| along the last axis."""
    return np.sqrt(qnormsq(a))


def qinv(a):
    """Componentwise inverses; raises ZeroDivisionError on a zero entry."""
    a = np.asarray(a, dtype=float)
    n2 = qnormsq(a)
    if np.any(n2 == 0.0):
        raise ZeroDivisionError("quaternion inverse of zero")
    return qconj(a) / n2[..., None]


def qmatmul(a, b):
    """Quaternionic matrix product of component arrays.

    ``a`` has shape (n, k, 4); ``b`` has shape (k, m, 4) or (k, 4) for a
    single vector.  Entries multiply coefficients from the left, matching
    the action of a right-linear operator on coordinates.
    """
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
        return np.sqrt(self.norm_sq())

    def inverse(self):
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("quaternion inverse of zero")
        c = self.conjugate()
        return Quaternion(c.q0 / n2, c.q1 / n2, c.q2 / n2, c.q3 / n2)

    @property
    def real(self):
        return self.q0

    def im_norm(self):
        """sqrt(q1^2 + q2^2 + q3^2); zero exactly when the quaternion is real."""
        return np.sqrt(self.q1 ** 2 + self.q2 ** 2 + self.q3 ** 2)

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


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

UNITS = {"i": I, "j": J, "k": K}


def conj_norm_inv(q: Quaternion):
    """Return the triple (conjugate, norm, inverse) of ``q``.

    The inverse is conj(q) / |q|^2; inverting zero raises ZeroDivisionError.
    """
    return q.conjugate(), q.norm(), q.inverse()


def im_norm(q: Quaternion) -> float:
    return q.im_norm()


# ---------------------------------------------------------------------------
# the 2x2 complex representation (oracle)
# ---------------------------------------------------------------------------

class ComplexPair:
    """The pair z1 = q0 + i*q3, z2 = q2 + i*q1 attached to a quaternion.

    The round trip Quaternion -> ComplexPair -> Quaternion is exact.
    """

    __slots__ = ("z1", "z2")

    def __init__(self, z1, z2):
        self.z1 = complex(z1)
        self.z2 = complex(z2)

    @classmethod
    def from_quaternion(cls, q: Quaternion):
        return cls(complex(q.q0, q.q3), complex(q.q2, q.q1))

    def to_quaternion(self) -> Quaternion:
        return Quaternion(self.z1.real, self.z2.imag, self.z2.real, self.z1.imag)

    def __repr__(self):
        return f"ComplexPair({self.z1!r}, {self.z2!r})"


def embed2x2(q: Quaternion) -> np.ndarray:
    """2x2 complex matrix [[z1, -conj(z2)], [z2, conj(z1)]] representing ``q``.

    Multiplicative: embed2x2(a*b) = embed2x2(a) @ embed2x2(b), and the
    conjugate maps to the conjugate transpose.  det equals |q|^2.
    """
    p = ComplexPair.from_quaternion(q)
    return np.array([[p.z1, -np.conj(p.z2)], [p.z2, np.conj(p.z1)]], dtype=complex)


def from_embed2x2(m) -> Quaternion:
    """Inverse of ``embed2x2`` on its range (reads the first column)."""
    m = np.asarray(m, dtype=complex)
    return ComplexPair(m[0, 0], m[1, 0]).to_quaternion()


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
