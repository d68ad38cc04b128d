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

Every SVD and eigensolver of qdef runs in this module, and each raises
NoConvergence for an embedding with an infinite or NaN entry.  So does the
sphere-kernel certificate ``kernel_certified``, one LU solve that bounds two
singular values from above where an SVD would compute them all.
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
    """Entrywise 2x2 complex embedding of a quaternionic matrix: a 2n x 2m array.

    Block [[z1, -conj(z2)], [z2, conj(z1)]], z1 = q0 + i q3, z2 = q2 + i q1,
    by real and imaginary part: a product 1j * inf would be NaN."""
    E = _entries(A)
    n, m = E.shape[0], E.shape[1]
    out = np.empty((2 * n, 2 * m), dtype=complex)
    re, im = out.real, out.imag
    re[0::2, 0::2], im[0::2, 0::2] = E[..., 0], E[..., 3]
    re[0::2, 1::2], im[0::2, 1::2] = -E[..., 2], E[..., 1]
    re[1::2, 0::2], im[1::2, 0::2] = E[..., 2], E[..., 1]
    re[1::2, 1::2], im[1::2, 1::2] = E[..., 0], -E[..., 3]
    return out


def vec(phi: QVector) -> np.ndarray:
    """First-column complex coordinates of a vector, chi's first column of the
    n x 1 matrix phi; preserves norms."""
    return chi(phi.components[:, None])[:, 0]


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


def _finite(M):
    """M itself, checked before every decomposition: an infinite or NaN entry
    raises NoConvergence, where LAPACK would return a rank of 0 or print an
    error and go on."""
    if not np.isfinite(M).all():
        raise NoConvergence("the complex embedding has a non-finite entry")
    return M


def kernel_q(A, rank_tol=DEFAULT.rank_tol, scale=None) -> list:
    """Quaternionic null space of ``A`` via SVD of the complex embedding.

    Returns the kernel vectors as a list, whose length is the quaternionic
    nullity.  The rank is ``rank_from_values`` of the SVD's own singular
    values, with its cut and checks; ``scale`` floors the cut's reference for
    matrices that are themselves near zero.  Complex null vectors are paired
    under the structure map J (each pair spans one quaternionic direction).
    """
    M = chi(A)
    rows, cols = M.shape
    if min(rows, cols) == 0:
        # no equation constrains a vector: the kernel is all of H^(cols/2)
        return [QVector.basis_vector(cols // 2, k) for k in range(cols // 2)]
    _, s, Vh = np.linalg.svd(_finite(M))
    rank = 2 * rank_from_values(s, rank_tol, scale)
    nullity = cols - rank
    if nullity == 0:
        return []
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
    return vectors


def rank_q(A, rank_tol=DEFAULT.rank_tol, scale=None) -> int:
    """Rank over the quaternions: complex rank of the embedding, halved.

    Only singular values are computed (``singular_values``), and
    ``rank_from_values`` cuts them.
    """
    return rank_from_values(singular_values(chi(A)), rank_tol, scale)


def rank_from_values(s, rank_tol=DEFAULT.rank_tol, scale=None) -> int:
    """Quaternionic rank from the singular values ``s`` of an embedding, largest first.

    The one rank cut: ``rank_q``, ``kernel_q`` and the sphere checks of
    ``spectrum.point_sspectrum`` all decide here, at ``rank_tol`` times the
    larger of the largest value and ``scale``; ``kernel_certified`` bounds
    values below the same cut.  The values also witness the
    J-structure: chi(A) and chi(A)* = chi(A*) commute with the antiunitary
    J, so each eigenspace of chi(A)* chi(A) is J-invariant; as J^2 = -1, v
    and Jv are orthogonal and such a space has even dimension.  Every
    singular value therefore has even multiplicity.  Sorted values that do
    not pair up to _PAIRING_TOL times the cut's reference raise
    InternalInconsistency, as does an odd complex rank.
    """
    if len(s) == 0:
        return 0
    ref = max(s[0], scale or 0.0)
    pairing = float(np.max(np.abs(s[0::2] - s[1::2])))
    if pairing > _PAIRING_TOL * ref:
        raise InternalInconsistency(
            f"singular values of the embedding do not pair up (defect {pairing:.3g})")
    rank = int(np.sum(s > rank_tol * ref))
    if rank % 2 != 0:
        raise InternalInconsistency("complex rank of the embedding is odd")
    return rank // 2


def kernel_certified(M, lam, rank_tol=DEFAULT.rank_tol, scale=1.0) -> bool:
    """Whether P = (M - conj(lam))(M - lam), for M = chi(A) and an n x n A,
    has quaternionic rank below n by ``rank_from_values``'s cut, shown
    without an SVD.

    For lam = re + i*im_mag, P is chi(R_q(A)) at q = re + i*im_mag.  One step
    of inverse iteration (one LU solve (M - lam) v = b, b all ones) gives a
    unit vector u = v / ||v|| with residual e = ||P u||.  P commutes with
    the antiunitary J, and u and Ju are orthonormal, so ||P x|| <= sqrt(2)
    e ||x|| on their span, and by Courant-Fischer the two smallest singular
    values of P are at most sqrt(2) e.  Where sqrt(2) e <= rank_tol *
    scale, at most 2n - 2 singular values exceed the cut, whose reference
    is never below ``scale``: the rank is at most n - 1.  A singular solve
    or a larger or non-finite bound returns False, which shows nothing.
    """
    shifted = _finite(M).astype(complex)
    shifted[np.diag_indices_from(shifted)] -= lam
    try:
        v = np.linalg.solve(shifted, np.ones(len(shifted)))
    except np.linalg.LinAlgError:
        return False
    with np.errstate(all="ignore"):
        w = shifted @ (v / np.linalg.norm(v))
        # (M - conj(lam)) w = (M - lam) w + (lam - conj(lam)) w
        bound = np.sqrt(2.0) * np.linalg.norm(shifted @ w + (lam - np.conj(lam)) * w)
    return bool(bound <= rank_tol * scale)


def _real_if_exact(M):
    """M as a real array when its imaginary part is zero, else M itself."""
    if np.iscomplexobj(M) and not M.imag.any():
        return M.real
    return M


def singular_values(M) -> np.ndarray:
    """Singular values of M, largest first, in real arithmetic for a real M.

    The one values-only SVD: every rank, norm and resolvent decision that
    needs no singular vectors takes its values here."""
    return np.linalg.svd(_real_if_exact(_finite(M)), compute_uv=False)


def normal_eigenvalues(M, skew=False) -> np.ndarray:
    """All eigenvalues of an embedding M that equals M* (or -M* with ``skew``).

    One ``eigvalsh``: of M itself, in real arithmetic when M has no
    imaginary part, or of the Hermitian -i M for a skew M, whose
    eigenvalues nu give M's as i nu.  ``eigvalsh`` reads the lower triangle
    only, so the caller vouches that M is (skew-)Hermitian as numbers, as
    chi(A) is for A equal to plus or minus A* entry for entry, or that the
    lower triangle is the one meant, as for a Gram matrix.
    """
    if skew:
        return 1j * np.linalg.eigvalsh(-1j * _finite(M))
    return np.linalg.eigvalsh(_real_if_exact(_finite(M)))


def eigenvalues_c(A) -> np.ndarray:
    """All 2n eigenvalues of the complex embedding, ordered by (real, imag).

    The multiset is closed under complex conjugation, a structural consequence
    of the J-symmetry of the embedding; ``qdef.spectrum`` pairs each
    eigenvalue with its nearest conjugate and reports the worst pair distance.
    """
    M = chi(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError("eigenvalues require a square matrix")
    try:
        lam = np.linalg.eigvals(_finite(M))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
    order = np.lexsort((lam.imag, lam.real))
    return lam[order]
