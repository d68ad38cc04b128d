"""Complex adjoint representation of quaternionic matrices.

An n x m quaternionic matrix maps to a 2n x 2m complex matrix assembled from
per-entry 2x2 blocks.  The representation is additive and multiplicative and
sends the quaternionic adjoint to the conjugate transpose, so complex dense
linear algebra (SVD, eigenvalues, solves) can serve as a brute-force oracle:
quaternionic kernel and rank data are read off from the complex ones, halved.

The complex kernel of the image is invariant under the antilinear structure
map J that encodes right multiplication by j; its complex dimension is
therefore even, and pairing null vectors under J produces a right-quaternionic
kernel basis.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInconsistency, NoConvergence
from .rmodule import QVector
from .tolerances import DEFAULT

_PAIRING_TOL = 1e-8   # relative gap allowed between J-paired singular values


def _entries(A):
    """Accept a QOperator-like object ((.entries)) or a raw (n, m, 4) array."""
    arr = np.asarray(getattr(A, "entries", A), dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 4:
        raise ValueError("expected quaternionic matrix entries of shape (n, m, 4)")
    return arr


def chi(A) -> np.ndarray:
    """Entrywise 2x2 complex embedding of a quaternionic matrix: a 2n x 2m array."""
    E = _entries(A)
    n, m = E.shape[0], E.shape[1]
    z1 = E[..., 0] + 1j * E[..., 3]
    z2 = E[..., 2] + 1j * E[..., 1]
    out = np.empty((2 * n, 2 * m), dtype=complex)
    out[0::2, 0::2] = z1
    out[0::2, 1::2] = -np.conj(z2)
    out[1::2, 0::2] = z2
    out[1::2, 1::2] = np.conj(z1)
    return out


def vec(phi: QVector) -> np.ndarray:
    """First-column complex coordinates of a vector; preserves norms."""
    c = phi.components
    out = np.empty(2 * phi.dim, dtype=complex)
    out[0::2] = c[:, 0] + 1j * c[:, 3]
    out[1::2] = c[:, 2] + 1j * c[:, 1]
    return out


def unvec(v) -> QVector:
    """Inverse of ``vec``."""
    v = np.asarray(v, dtype=complex)
    n = v.shape[0] // 2
    comps = np.empty((n, 4))
    comps[:, 0] = v[0::2].real
    comps[:, 3] = v[0::2].imag
    comps[:, 2] = v[1::2].real
    comps[:, 1] = v[1::2].imag
    return QVector.from_components(comps)


def structure_map(v) -> np.ndarray:
    """Antilinear map J with vec(phi * j) = J(vec(phi)); J^2 = -identity."""
    v = np.asarray(v, dtype=complex)
    out = np.empty_like(v)
    out[0::2] = -np.conj(v[1::2])
    out[1::2] = np.conj(v[0::2])
    return out


class KernelBasis:
    """Right-quaternionic kernel basis extracted from the complex null space."""

    __slots__ = ("vectors", "qdim")

    def __init__(self, vectors, qdim):
        self.vectors = vectors
        self.qdim = qdim

    def __repr__(self):
        return f"KernelBasis(qdim={self.qdim})"


def kernel_q(A, rank_tol=DEFAULT.rank_tol, scale=None) -> KernelBasis:
    """Quaternionic null space of ``A`` via SVD of the complex embedding.

    Complex null vectors are paired under the structure map J (each pair spans
    one quaternionic direction); an odd complex nullity signals a broken
    embedding and raises InternalInconsistency.  ``scale`` floors the
    threshold reference for matrices that are themselves near zero (the
    largest singular value is used otherwise).
    """
    M = chi(A)
    rows, cols = M.shape
    if min(rows, cols) == 0:
        return KernelBasis([], cols // 2)
    U, s, Vh = np.linalg.svd(M)
    smax = s[0] if s.size else 0.0
    thresh = rank_tol * max(smax, scale or 0.0)
    rank = int(np.sum(s > thresh))
    nullity = cols - rank
    if nullity % 2 != 0:
        raise InternalInconsistency("complex nullity of the embedding is odd")
    if nullity == 0:
        return KernelBasis([], 0)
    N = Vh[rank:, :].conj().T  # orthonormal null basis, shape (cols, nullity)
    vectors = []
    while N.shape[1] > 0:
        v = N[:, 0]
        w = structure_map(v)
        # J leaves the null space invariant; verify before deflating.
        coeffs = N.conj().T @ w
        w_in = N @ coeffs
        if np.linalg.norm(w - w_in) > 1e-6:
            raise InternalInconsistency("null space is not J-invariant")
        w = w_in - v * (v.conj() @ w_in)
        nw = np.linalg.norm(w)
        if nw < 1e-8:
            raise InternalInconsistency("failed to pair null vectors under J")
        w = w / nw
        vectors.append(unvec(v))
        proj = N - np.outer(v, v.conj() @ N) - np.outer(w, w.conj() @ N)
        # the projection has rank two less than N; its left singular vectors
        # span its range, where an unpivoted QR's columns need not
        U, sv, _ = np.linalg.svd(proj, full_matrices=False)
        N = U[:, sv > 1e-8]
    if len(vectors) != nullity // 2:
        raise InternalInconsistency("J-pairing produced a wrong kernel count")
    return KernelBasis(vectors, nullity // 2)


def rank_q(A, rank_tol=DEFAULT.rank_tol, scale=None) -> int:
    """Rank over the quaternions: complex rank of the embedding, halved.

    Only singular values are computed, cut at ``rank_tol`` times the larger
    of the largest one and ``scale``, as in ``kernel_q``.  They also witness
    the J-structure that ``kernel_q`` checks by pairing null vectors: chi(A)
    and chi(A)* = chi(A*) commute with the antiunitary J, so each eigenspace
    of chi(A)* chi(A) is J-invariant; as J^2 = -1, v and Jv are orthogonal
    and such a space has even dimension.  Every singular value therefore has
    even multiplicity.  Sorted singular values that do not pair up to
    _PAIRING_TOL times the cut's reference raise InternalInconsistency, as
    does an odd complex rank.
    """
    M = chi(A)
    if min(M.shape) == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    ref = max(s[0], scale or 0.0)
    pairing = float(np.max(np.abs(s[0::2] - s[1::2])))
    if pairing > _PAIRING_TOL * ref:
        raise InternalInconsistency(
            f"singular values of the embedding do not pair up (defect {pairing:.3g})")
    rank = int(np.sum(s > rank_tol * ref))
    if rank % 2 != 0:
        raise InternalInconsistency("complex rank of the embedding is odd")
    return rank // 2


def eigenvalues_c(A) -> np.ndarray:
    """All 2n eigenvalues of the complex embedding, ordered by (real, imag).

    The multiset is closed under complex conjugation, a structural consequence
    of the J-symmetry of the embedding.
    """
    M = chi(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError("eigenvalues require a square matrix")
    try:
        lam = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
    order = np.lexsort((lam.imag, lam.real))
    return lam[order]


def conjugation_defect(lam) -> float:
    """How far an eigenvalue multiset is from closure under conjugation.

    Sorting by (real, |imag|) makes conjugate partners adjacent; the defect is
    the worst |lambda - conj(partner)| over consecutive pairs.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.size % 2 != 0:
        raise InternalInconsistency("odd eigenvalue count from the embedding")
    order = np.lexsort((lam.imag, np.abs(lam.imag), lam.real))
    lam = lam[order]
    return float(np.max(np.abs(lam[0::2] - np.conj(lam[1::2]))))


def operator_norm(A) -> float:
    """Largest singular value of the complex embedding (= quaternionic norm)."""
    s = np.linalg.svd(chi(A), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def min_singular_value(A) -> float:
    s = np.linalg.svd(chi(A), compute_uv=False)
    return float(s[-1]) if s.size else 0.0
