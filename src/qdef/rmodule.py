"""Finite-dimensional right quaternionic Hilbert module.

Vectors carry quaternion coordinates in a fixed canonical frame and scalars
act on the right: (phi * q)_k = phi_k * q.  The inner product

    <phi | psi> = sum_k conj(phi_k) * psi_k

is conjugate-symmetric, positive, additive, and linear in the right slot:
<phi | psi q> = <phi | psi> q and <phi q | psi> = conj(q) <phi | psi>.

A left scalar multiplication is an extra, basis-dependent structure: given an
orthonormal basis {e_k}, the left product is

    q . phi = sum_k e_k * q * <e_k | phi>,

which turns each left scalar into a right-linear operator.  Two different
bases define two different left products; ``delta_map`` is the isometric
isomorphism intertwining them.
"""

from __future__ import annotations

import numpy as np

from .errors import BasisError, DimensionMismatch, RankDeficient, ZeroScalar
from .quat import Quaternion, qconj, qmatmul, qmul, qnormsq

ORTHO_ATOL = 1e-10  # orthonormality validation tolerance


def _as_components(c):
    """One quaternion entry (a Quaternion, a real or four components) as an array."""
    if isinstance(c, Quaternion):
        return c.to_array()
    if isinstance(c, (int, float)):
        return np.array([float(c), 0.0, 0.0, 0.0])
    return np.asarray(c, dtype=float)


def _coerce_components(coords):
    """Accept (n, 4) arrays, lists of Quaternion, or lists of reals."""
    if isinstance(coords, np.ndarray):
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError("component array must have shape (n, 4)")
        return arr.copy()
    arr = np.array([_as_components(c) for c in coords], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("coordinates must be quaternions")
    return arr


class QVector:
    """Vector in H^n with quaternion coordinates; right scalars via ``*``."""

    __slots__ = ("components",)

    def __init__(self, coords):
        self.components = _coerce_components(coords)

    @classmethod
    def from_components(cls, arr):
        v = cls.__new__(cls)
        v.components = np.asarray(arr, dtype=float)
        return v

    @classmethod
    def basis_vector(cls, dim, k):
        arr = np.zeros((dim, 4))
        arr[k, 0] = 1.0
        return cls.from_components(arr)

    @property
    def dim(self):
        return self.components.shape[0]

    def __getitem__(self, k) -> Quaternion:
        return Quaternion.from_array(self.components[k])

    def __add__(self, other):
        self._check(other)
        return QVector.from_components(self.components + other.components)

    def __sub__(self, other):
        self._check(other)
        return QVector.from_components(self.components - other.components)

    def __neg__(self):
        return QVector.from_components(-self.components)

    def __mul__(self, q):
        """Right scalar multiplication phi * q."""
        if isinstance(q, (int, float)):
            return QVector.from_components(self.components * float(q))
        if isinstance(q, Quaternion):
            return QVector.from_components(qmul(self.components, q.to_array()))
        return NotImplemented

    def __truediv__(self, r):
        if isinstance(r, (int, float)):
            return QVector.from_components(self.components / float(r))
        return NotImplemented

    def norm_sq(self):
        return float(qnormsq(self.components).sum())

    def norm(self):
        return float(np.sqrt(self.norm_sq()))

    def isclose(self, other, atol=1e-12):
        return self.dim == other.dim and np.max(
            np.abs(self.components - other.components)) <= atol

    def _check(self, other):
        if not isinstance(other, QVector) or other.dim != self.dim:
            raise DimensionMismatch("vector dimensions differ")

    def __repr__(self):
        inner_txt = ", ".join(str(self[k]) for k in range(self.dim))
        return f"QVector([{inner_txt}])"


def inner(phi: QVector, psi: QVector) -> Quaternion:
    """Quaternion-valued inner product, conjugate-linear in the left slot."""
    phi._check(psi)
    acc = qmul(qconj(phi.components), psi.components).sum(axis=0)
    return Quaternion.from_array(acc)


class Basis:
    """A complete orthonormal family in H^n, stored as an (n, n, 4) stack.

    Such a basis induces a left scalar multiplication.  Construction raises
    BasisError for a family of k != n vectors (with k < n the left product
    would be a projection) and for one not orthonormal to ORTHO_ATOL; it
    never re-orthonormalizes its input.
    """

    __slots__ = ("matrix", "label")

    def __init__(self, vectors, label="basis"):
        if isinstance(vectors, np.ndarray) and vectors.ndim == 3:
            mat = np.asarray(vectors, dtype=float).copy()
        else:
            comps = [v.components for v in vectors]
            dims = sorted({c.shape[0] for c in comps})
            if len(dims) > 1:
                raise DimensionMismatch(
                    f"basis vectors have different dimensions {dims}")
            mat = np.array(comps, dtype=float)
        if mat.ndim != 3 or mat.shape[2] != 4:
            raise BasisError("expected a stack of quaternion vectors")
        n, dim = mat.shape[0], mat.shape[1]
        if n != dim:
            raise BasisError(f"a basis of H^{dim} needs {dim} vectors, got {n}")
        gram = qmatmul(qconj(mat), mat.transpose(1, 0, 2))   # <e_a|e_b>
        target = np.zeros_like(gram)
        target[np.arange(n), np.arange(n), 0] = 1.0
        defect = np.max(np.abs(gram - target))
        if defect > ORTHO_ATOL:
            raise BasisError(f"basis not orthonormal (defect {defect:.3e})")
        self.matrix = mat
        self.label = label

    @classmethod
    def canonical(cls, dim):
        mat = np.zeros((dim, dim, 4))
        mat[np.arange(dim), np.arange(dim), 0] = 1.0
        b = cls.__new__(cls)
        b.matrix = mat
        b.label = "canonical"
        return b

    @property
    def dim(self):
        return self.matrix.shape[1]

    def vector(self, k) -> QVector:
        return QVector.from_components(self.matrix[k].copy())

    def __len__(self):
        return self.matrix.shape[0]

    def __repr__(self):
        return f"Basis({self.label!r}, dim={self.dim})"


class LeftMul:
    """Left scalar multiplication induced by an orthonormal basis."""

    __slots__ = ("basis",)

    def __init__(self, basis: Basis):
        self.basis = basis

    @classmethod
    def canonical(cls, dim):
        return cls(Basis.canonical(dim))

    @property
    def dim(self):
        return self.basis.dim

    def __call__(self, q: Quaternion, phi: QVector) -> QVector:
        return left_scale(self, q, phi)

    def __repr__(self):
        return f"LeftMul({self.basis.label!r}, dim={self.dim})"


def left_scale(L: LeftMul, q: Quaternion, phi: QVector) -> QVector:
    """Evaluate q . phi = sum_k e_k q <e_k|phi> against the basis of ``L``."""
    if phi.dim != L.dim:
        raise DimensionMismatch("vector dimension differs from basis dimension")
    B = L.basis.matrix
    coeffs = qmul(qconj(B), phi.components[None, :, :]).sum(axis=1)   # <e_k|phi>
    scaled = qmul(q.to_array()[None, :], coeffs)                      # q <e_k|phi>
    out = qmul(B, scaled[:, None, :]).sum(axis=0)                     # e_k * (...)
    return QVector.from_components(out)


def expand(B: Basis, phi: QVector):
    """Coefficients c_k = <e_k|phi>, so that phi = sum_k e_k c_k."""
    if phi.dim != B.dim:
        raise DimensionMismatch("vector dimension differs from basis dimension")
    coeffs = qmul(qconj(B.matrix), phi.components[None, :, :]).sum(axis=1)
    return [Quaternion.from_array(c) for c in coeffs]


def reconstruct(B: Basis, coeffs) -> QVector:
    """Resum phi = sum_k e_k c_k from expansion coefficients."""
    arr = np.array([c.to_array() if isinstance(c, Quaternion) else np.asarray(c, float)
                    for c in coeffs])
    out = qmul(B.matrix, arr[:, None, :]).sum(axis=0)
    return QVector.from_components(out)


def delta_map(L1: LeftMul, L2: LeftMul, q: Quaternion, psi: QVector) -> QVector:
    """Basis-change map sending the L1 left product of q to the L2 one.

    Solves q .1 phi = psi (possible for every psi since left multiplication by
    a nonzero scalar is onto) and returns q .2 phi.  The resulting map is
    right-linear, bijective and an isometry.
    """
    if q.norm_sq() == 0.0:
        raise ZeroScalar("basis-change map requires q != 0")
    if L1.dim != L2.dim:
        raise DimensionMismatch("left multiplications live on different modules")
    phi = left_scale(L1, q.conjugate() / q.norm_sq(), psi)
    return left_scale(L2, q, phi)


def gram_schmidt(vectors, label="orthonormalized") -> Basis:
    """Right-module Gram-Schmidt with coefficients applied on the right.

    Returns a basis of H^n, so it needs exactly n right-linearly independent
    vectors: fewer raise BasisError.  Each vector is projected against all
    finished ones at once, subtracting sum_k e_k <e_k|v> (order matters
    because scalars do not commute), in two classical passes ("twice is
    enough").  Raises RankDeficient when a pivot norm falls below 1e-10.
    """
    vecs = [v if isinstance(v, QVector) else QVector(v) for v in vectors]
    if not vecs:
        raise RankDeficient("no input vectors")
    dim = vecs[0].dim
    done = np.empty((len(vecs), dim, 4))
    for k, v in enumerate(vecs):
        if v.dim != dim:
            raise DimensionMismatch("mixed dimensions in Gram-Schmidt input")
        E, conj_E = done[:k], qconj(done[:k])
        u = v.components
        for _ in range(2):
            u = u - qmatmul(E.transpose(1, 0, 2), qmatmul(conj_E, u))
        nrm = np.sqrt(qnormsq(u).sum())
        if nrm < 1e-10:
            raise RankDeficient("right-linearly dependent input detected")
        done[k] = u / nrm
    return Basis(done, label=label)


def vector_from_literals(literals) -> QVector:
    """Vector from an array of quaternion literals, e.g. ["1", "2-j"]."""
    from .quat import parse_quaternion
    return QVector([parse_quaternion(t) if isinstance(t, str)
                    else Quaternion(float(t)) for t in literals])


def basis_from_literals(rows, label="basis") -> Basis:
    """Basis from a list of literal arrays; orthonormality validated on load."""
    return Basis([vector_from_literals(r) for r in rows], label=label)


def random_qvector(rng, dim, scale=1.0) -> QVector:
    return QVector.from_components(scale * rng.standard_normal((dim, 4)))


def random_basis(rng, dim, label="random") -> Basis:
    """A Haar-ish random orthonormal basis from Gram-Schmidt of random vectors."""
    while True:
        try:
            return gram_schmidt([random_qvector(rng, dim) for _ in range(dim)],
                                label=label)
        except RankDeficient:  # essentially impossible; resample
            continue


def random_real_rotation_basis(rng, dim, label="real rotation") -> Basis:
    """A random basis whose transition matrix from the canonical one is real.

    Real transition coefficients commute with every quaternion, which is
    exactly the condition under which two left scalar multiplications satisfy
    the mixed composition laws p*(q.phi) = (pq)*phi; a genuinely quaternionic
    recombination breaks them.
    """
    R = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    mat = np.zeros((dim, dim, 4))
    mat[:, :, 0] = R.T  # row k holds basis vector k
    b = Basis.__new__(Basis)
    b.matrix = mat
    b.label = label
    return b
