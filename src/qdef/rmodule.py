"""Finite-dimensional right quaternionic Hilbert module.

Vectors carry quaternion coordinates in a fixed canonical frame and scalars
act on the right: (phi * q)_k = phi_k * q.  The inner product

    <phi | psi> = sum_k conj(phi_k) * psi_k

is conjugate-symmetric, positive, additive, and linear in the right slot:
<phi | psi q> = <phi | psi> q and <phi q | psi> = conj(q) <phi | psi>.

A left scalar multiplication is an extra, basis-dependent structure: given an
orthonormal basis {e_k}, the left product is

    q . phi = sum_k e_k * q * <e_k | phi>,

which turns each left scalar into a right-linear operator.  The basis fixes
the left product, so a ``Basis`` is what every function here and in
``qoperator`` takes for one.  Two different bases define two different left
products; ``delta_map`` is the isometric isomorphism intertwining them.
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

    Such a basis induces a left scalar multiplication (``left_scale``) and
    stands for it.  Construction raises BasisError for a family of k != n
    vectors (with k < n the left product would be a projection) and for one
    not orthonormal to ORTHO_ATOL; it never re-orthonormalizes its input.
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
        if not np.all(np.isfinite(mat)):
            raise BasisError("basis entries are not finite")
        gram = qmatmul(qconj(mat), mat.transpose(1, 0, 2))   # <e_a|e_b>
        target = np.zeros_like(gram)
        target[np.arange(n), np.arange(n), 0] = 1.0
        defect = np.max(np.abs(gram - target))
        if not defect <= ORTHO_ATOL:   # a NaN defect fails too
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


def left_scale(basis: Basis, q: Quaternion, phi: QVector) -> QVector:
    """Evaluate q . phi = sum_k e_k q <e_k|phi>, the left product of ``basis``."""
    if phi.dim != basis.dim:
        raise DimensionMismatch("vector dimension differs from basis dimension")
    B = basis.matrix
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


def delta_map(B1: Basis, B2: Basis, q: Quaternion, psi: QVector) -> QVector:
    """Basis-change map sending the B1 left product of q to the B2 one.

    Solves q .1 phi = psi (possible for every psi since left multiplication by
    a nonzero scalar is onto) and returns q .2 phi.  The resulting map is
    right-linear, bijective and an isometry.
    """
    if q.norm_sq() == 0.0:
        raise ZeroScalar("basis-change map requires q != 0")
    if B1.dim != B2.dim:
        raise DimensionMismatch("left multiplications live on different modules")
    phi = left_scale(B1, q.conjugate() / q.norm_sq(), psi)
    return left_scale(B2, q, phi)


def _qr_pass(mat):
    """One Householder QR of chi(G), G's columns the rows of ``mat`` (k, n, 4).

    Returns the pivots |R_2c,2c| and the orthonormalized vectors as a
    (k, n, 4) stack: the even columns of Q, each multiplied by the phase of
    its R diagonal entry so that the diagonal becomes real and positive, read
    back through ``unvec``.
    """
    from .embed import chi, unvec   # embed imports QVector from this module

    k, n = mat.shape[:2]
    Q, R = np.linalg.qr(chi(mat.transpose(1, 0, 2)))
    d = np.diagonal(R)[0::2]
    piv = np.abs(d)
    with np.errstate(invalid="ignore", divide="ignore"):   # a zero pivot
        cols = Q[:, 0::2] * (d / piv)
    # vector c's 2n coordinates are one run of the flattened transpose, so
    # its even and odd slots are unvec's
    return piv, unvec(cols.T.ravel()).components.reshape(k, n, 4)


def gram_schmidt(vectors, label="orthonormalized") -> Basis:
    """Right-module Gram-Schmidt, as a Householder QR of the complex embedding.

    Returns a basis of H^n, so it needs exactly n right-linearly independent
    vectors: fewer raise BasisError.  With G = E R, the right-module
    Gram-Schmidt factorization of the matrix whose columns are the vectors (E
    orthonormal, R upper triangular with a real positive diagonal), chi(G) =
    chi(E) chi(R), where chi(E) has orthonormal columns and chi(R) is upper
    triangular with the same real positive diagonal.  That QR factorization of
    chi(G) is unique, so the complex QR of chi(G), with each column of Q
    multiplied by a phase that makes R's diagonal real and positive, has
    chi(E) as Q: its even columns are vec(e_k).  Householder keeps the structure of chi only to
    condition * eps, so the QR is run again on chi(E) ("twice is enough").
    Raises RankDeficient for an entry that is not finite, when a pivot
    |R_2k,2k| (the norm the loop would divide by) is not at least 1e-10, and
    when there are more vectors than n; a dependence is raised before a
    vector of another dimension that comes after it.
    """
    vecs = [v if isinstance(v, QVector) else QVector(v) for v in vectors]
    if not vecs:
        raise RankDeficient("no input vectors")
    dim = vecs[0].dim
    m = next((k for k, v in enumerate(vecs) if v.dim != dim), len(vecs))
    if m > dim:   # a vector beyond the n-th depends on the ones before it
        raise RankDeficient("right-linearly dependent input detected")
    mat = np.array([v.components for v in vecs[:m]], dtype=float)
    if not np.all(np.isfinite(mat)):
        # LAPACK would carry a NaN in R's off-diagonal and return a clean Q
        raise RankDeficient("Gram-Schmidt input is not finite")
    piv, done = _qr_pass(mat)
    if not np.all(piv >= 1e-10):
        raise RankDeficient("right-linearly dependent input detected")
    if m < len(vecs):
        raise DimensionMismatch("mixed dimensions in Gram-Schmidt input")
    return Basis(_qr_pass(done)[1], label=label)


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
