"""Spherical spectrum of finite quaternionic matrices.

The second-order polynomial R_q(A) = A^2 - 2 Re(q) A + |q|^2 I depends on q
only through (Re q, |Im q|), so its kernel is constant on the similarity
sphere [q] = {q0 + u |Im q| : u a unit imaginary}.  The point spectrum is the
set of spheres where that kernel is nontrivial; in finite dimension it is the
whole spherical spectrum (a rank argument empties the residual and continuous
parts).

Spheres are extracted from the eigenvalues of the complex embedding, which
come in conjugate pairs: each pair (lambda, conj(lambda)) folds onto the
sphere (Re lambda, |Im lambda|).  The extraction is verified, not assumed:
every sphere representative is checked to produce a nontrivial R_q kernel,
for a matrix equal to plus or minus its adjoint one no larger than the
sphere's folded multiplicity.  A matrix equal to plus or minus its adjoint
is checked from one eigvalsh; any other matrix from one SVD and then one
inverse-iteration certificate per sphere.  Only a sphere the certificate
cannot decide forms R_q(A) (``qoperator.resolvent_poly``) and takes the rank
of its embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import embed
from .errors import InternalInconsistency, PreconditionFailed, SingularSystem
from .qoperator import (QOperator, SymmetryReport, resolvent_poly,
                        symmetry_predicates)
from .quat import Quaternion, qmatmul, qnormsq
from .rmodule import Basis
from .tolerances import DEFAULT

# times max(1, max |lambda|) in point_sspectrum:
REAL_TOL = 1e-9    # |Im lambda| below this is treated as a real point
FOLD_TOL = 1e-8    # conjugate pairing / sphere clustering tolerance
REAL_SPECTRUM_TOL = 1e-8   # "all spheres real" verdict tolerance
# per dimension, relative to scale: the rounding of a normal matrix's
# eigenvalue products and of R_q's singular values (a few dim * eps each)
_ROUNDING = 64 * np.finfo(float).eps


@dataclass
class EigenSphere:
    """One eigensphere re + u*im_mag (u unit imaginary); im_mag = 0 is a point."""
    re: float
    im_mag: float
    multiplicity: int

    def representative(self) -> Quaternion:
        return Quaternion(self.re, self.im_mag, 0.0, 0.0)

    def to_dict(self):
        return {"re": self.re, "im_mag": self.im_mag, "mult": self.multiplicity}


@dataclass
class SpectrumReport:
    spheres: list
    all_real: bool
    note: str = ""

    def max_im_mag(self) -> float:
        return max((s.im_mag for s in self.spheres), default=0.0)

    def to_dict(self):
        return {
            "spheres": [s.to_dict() for s in self.spheres],
            "all_real": self.all_real,
            "note": self.note,
        }


def _fold_conjugate_pairs(lam, real_tol, fold_tol):
    """Fold a conjugation-closed eigenvalue multiset onto (re, im_mag) points."""
    reals = sorted(l.real for l in lam if abs(l.imag) <= real_tol)
    pos = sorted((l for l in lam if l.imag > real_tol), key=lambda z: (z.real, z.imag))
    neg = sorted((l for l in lam if l.imag < -real_tol), key=lambda z: (z.real, z.imag))
    if len(pos) != len(neg) or len(reals) % 2 != 0:
        raise InternalInconsistency("eigenvalues are not closed under conjugation")
    points = []
    remaining = [np.conj(z) for z in neg]
    for z in pos:
        dists = [abs(z - w) for w in remaining]
        jmin = int(np.argmin(dists))
        if dists[jmin] > fold_tol:
            raise InternalInconsistency(
                f"no conjugate partner within {fold_tol:g} for eigenvalue {z}")
        remaining.pop(jmin)
        points.append((float(z.real), float(abs(z.imag))))
    for a, b in zip(reals[0::2], reals[1::2]):
        if abs(a - b) > fold_tol:
            raise InternalInconsistency("real eigenvalues do not pair up")
        points.append((float((a + b) / 2.0), 0.0))
    return sorted(points)


def point_sspectrum(A: QOperator, verify_kernels: bool = True, *,
                    lam=None, rank_tol=DEFAULT.rank_tol) -> SpectrumReport:
    """Eigensphere list of ``A`` with kernel verification.

    Folds the embedding eigenvalues into spheres and, for each sphere
    representative q = re + i*im_mag of folded multiplicity m, compares the
    quaternionic dimension qdim of the kernel of R_q(A) with m; in finite
    dimension the report also states that the residual and continuous parts
    are empty.  The folding tolerances ``REAL_TOL`` and ``FOLD_TOL`` are
    relative to max(1, max |lambda|): eigenvalues of size s carry rounding of
    about eps * s.
    chi(R_q(A)) = (chi(A) - lambda)(chi(A) - conj(lambda)) for lambda = re
    + i*im_mag, an eigenvalue of algebraic multiplicity m (2m when im_mag =
    0, where the two factors agree).  Its complex nullity is the sum of the
    geometric multiplicities of lambda and conj(lambda), or the dimension of
    the kernel of (chi(A) - lambda)^2; either way it lies between 2 and 2m,
    so 1 <= qdim <= m in exact arithmetic.

    qdim is read from the singular values of chi(R_q(A)) alone
    (``embed.rank_from_values``), or bounded below by a certificate, from a
    decomposition other than the one whose eigenvalues were folded; the two
    never feed each other.  Where A
    equals A* or -A* as numbers, chi(A) is Hermitian or skew-Hermitian (chi
    sends the adjoint to the conjugate transpose), hence normal, and by the
    spectral theorem its eigenvectors diagonalise every chi(R_q(A)) =
    (chi(A) - lambda)(chi(A) - conj(lambda)).  So one ``eigvalsh`` per
    matrix (``embed.normal_eigenvalues``) gives the eigenvalues mu of
    chi(A), and the singular values of chi(R_q(A)) at every sphere are the
    products |mu - lambda| |mu - conj(lambda)|; ||A|| is max |mu|.  Other
    matrices take one SVD of chi(A) for ||A||, whose values also pass
    through ``embed.rank_from_values`` as the matrix's J-pairing witness.
    Each of their spheres is then first put to ``embed.kernel_certified``:
    one LU solve of chi(A) - lambda, a decomposition apart from the folded
    ``eigvals`` too, whose residual bounds two singular values of chi(R_q(A))
    below the cut, so qdim >= 1.  Only a sphere the certificate cannot
    decide (a singular solve, a bound above the cut) takes
    ``embed.rank_q(resolvent_poly(A, q))``, one values-only SVD of
    chi(R_q(A)), in real arithmetic for a real A.  The rank cut is rank_tol
    * scale, where scale = max(1, (||A|| + |q|)^2) >= ||R_q(A)||.

    qdim >= 1 is required of every matrix, and is all a certificate shows.
    The cut can also count singular values that belong to eigenvalues mu of
    other spheres, and how far they fall below the products |mu - lambda|
    |mu - conj(lambda)| depends on how far A is from normal: for
    blockdiag([[0, 1], [0.01, 0]], [[0, 1], [0.010003, 0]]) at q = 0.1 the
    product is 2.25e-10 and the singular value 4.5e-11, and a real 3x3
    matrix whose A A* - A* A has entries of 6.4e-11 still gives a simple
    sphere qdim 2.  So qdim <= m is required
    only where A equals A* or -A* as numbers: then R_q(A) is normal, its
    singular values are the products up to rounding, and the points of
    other spheres whose product lies within twice the cut (plus rounding)
    are added to m before the comparison.  A qdim outside the bounds raises
    InternalInconsistency.  ``lam`` is ``embed.eigenvalues_c(A)``, if the
    caller already holds it; ``rank_tol`` is the rank's singular-value cut.
    """
    if lam is None:
        lam = embed.eigenvalues_c(A)
    size = float(np.max(np.abs(lam), initial=1.0))
    real_tol, fold_tol = REAL_TOL * size, FOLD_TOL * size
    points = _fold_conjugate_pairs(lam, real_tol, fold_tol)
    spheres, starts = [], []       # a sphere's points are points[start:start + m]
    for at, (re, im) in enumerate(points):
        if spheres and abs(spheres[-1].re - re) <= fold_tol \
                and abs(spheres[-1].im_mag - im) <= fold_tol:
            spheres[-1].multiplicity += 1
        else:
            spheres.append(EigenSphere(re, im, 1))
            starts.append(at)
    if verify_kernels:
        adj = A.adjoint().entries
        hermitian = np.array_equal(adj, A.entries)
        normal = hermitian or np.array_equal(adj, -A.entries)
        chi_a = embed.chi(A)
        if normal:
            # eigenvalues of chi(A), apart from the folded ones in lam
            eig_a = embed.normal_eigenvalues(chi_a, skew=not hermitian)
            norm_a = float(np.max(np.abs(eig_a), initial=0.0))
            mu = np.array([complex(re, im) for re, im in points])
        else:
            sv_a = embed.singular_values(chi_a)
            # the J-pairing witness of the spheres the certificate decides
            embed.rank_from_values(sv_a, rank_tol)
            norm_a = float(sv_a[0])
        for s, at in zip(spheres, starts):
            q = s.representative()
            lam_s = complex(s.re, s.im_mag)
            # R_q can be near zero while A is O(1); floor the rank threshold
            # by the natural scale of the polynomial's assembly.
            scale = max((norm_a + abs(q.norm())) ** 2, 1.0)
            if normal:
                sv = np.abs(eig_a - lam_s) * np.abs(eig_a - lam_s.conjugate())
                rank = embed.rank_from_values(np.sort(sv)[::-1], rank_tol, scale)
            elif embed.kernel_certified(chi_a, lam_s, rank_tol, scale):
                continue       # qdim >= 1, the one bound of a non-normal sphere
            else:
                rank = embed.rank_q(resolvent_poly(A, q), rank_tol, scale)
            qdim = A.dim - rank
            if qdim < 1:
                raise InternalInconsistency(
                    f"folded sphere ({s.re}, {s.im_mag}) has trivial R_q kernel "
                    f"(dimension {qdim}, multiplicity {s.multiplicity})")
            if not normal:
                continue
            # points of other spheres where |R_q| may fall below the rank cut
            reach = (2.0 * rank_tol + _ROUNDING * A.dim) * scale
            unresolved = np.abs(mu - lam_s) * np.abs(mu - lam_s.conjugate()) <= reach
            unresolved[at:at + s.multiplicity] = False
            if qdim > s.multiplicity + int(np.sum(unresolved)):
                raise InternalInconsistency(
                    f"folded sphere ({s.re}, {s.im_mag}) has an R_q kernel of "
                    f"dimension {qdim}, above its multiplicity {s.multiplicity}")
    all_real = max((s.im_mag for s in spheres), default=0.0) <= REAL_SPECTRUM_TOL
    note = ("finite dimension: point spectrum equals the whole spherical "
            "spectrum; residual and continuous parts are empty")
    return SpectrumReport(spheres=spheres, all_real=all_real, note=note)


@dataclass
class RealityVerdict:
    self_adjoint: bool
    all_real: bool
    hypotheses_met: bool
    equivalent: bool
    max_im_mag: float


def selfadjoint_iff_real(A: QOperator, basis: Basis | None = None,
                         strict: bool = False, *,
                         preds: SymmetryReport | None = None,
                         report: SpectrumReport | None = None) -> RealityVerdict:
    """Report (self_adjoint, all_real) and assert their equivalence when valid.

    The forward direction (self-adjoint implies a real spherical spectrum)
    needs nothing extra and is always asserted.  The converse holds for
    symmetric operators with iA, jA, kA anti-symmetric; with ``strict`` a
    violated hypothesis raises PreconditionFailed instead of being reported.
    The hypotheses include symmetry, so under them the forward assertion
    already asserts the equivalence.
    ``preds`` (``symmetry_predicates(A, basis)``) and ``report``
    (``point_sspectrum(A)``) are used as given if the caller already holds them.
    """
    preds = preds or symmetry_predicates(A, basis)
    hypotheses = preds.is_symmetric and preds.all_units_anti()
    if strict and not hypotheses:
        raise PreconditionFailed(
            "converse direction needs a symmetric operator with iA, jA, kA "
            "anti-symmetric")
    report = report or point_sspectrum(A)
    self_adjoint = preds.is_symmetric
    all_real = report.all_real
    if self_adjoint and not all_real:
        raise InternalInconsistency("self-adjoint operator with non-real spectrum")
    return RealityVerdict(
        self_adjoint=self_adjoint,
        all_real=all_real,
        hypotheses_met=hypotheses,
        equivalent=self_adjoint == all_real,
        max_im_mag=report.max_im_mag(),
    )


def resolvent_inverse_norm(A: QOperator, q: Quaternion) -> float:
    """Operator norm of R_q(A)^{-1} (reciprocal smallest singular value).

    A non-finite A raises NoConvergence: R_q(A) is formed without a warning
    and ``embed.singular_values`` rejects it."""
    with np.errstate(all="ignore"):
        R = resolvent_poly(A, q)
    s = embed.singular_values(embed.chi(R))
    smin = float(s[-1]) if s.size else 0.0
    if smin <= 0.0:
        raise SingularSystem("R_q(A) is singular; q lies in the spectrum")
    return 1.0 / smin


def resolvent_bound_check(A: QOperator, q: Quaternion, samples: int = 50,
                          seed: int = 0, *,
                          preds: SymmetryReport | None = None) -> float:
    """Worst signed excess over ||R_q(A)^{-1}|| <= (q1^2+q2^2+q3^2)^{-1}.

    Solves R_q(A) x = psi through the embedding for random unit psi and also
    checks the stronger per-vector inequality
    ||R_q(A) phi|| >= (q1^2+q2^2+q3^2) ||phi||.  Requires A self-adjoint and
    q non-real.  Each sampled ratio is compared with 1, so the result is <= 0
    when the bound holds and its size is the margin.  ``preds`` is
    ``symmetry_predicates(A)``, if the caller already holds it.  A non-finite
    A raises NoConvergence, as in ``resolvent_inverse_norm``, before the
    symmetry check.
    """
    if q.im_norm() == 0.0:
        raise PreconditionFailed("resolvent bound needs a non-real shift")
    with np.errstate(all="ignore"):
        R = resolvent_poly(A, q)
    M = embed.chi(R)
    s = embed.singular_values(M)
    if not (preds or symmetry_predicates(A)).is_symmetric:
        raise PreconditionFailed("resolvent bound needs a self-adjoint operator")
    im2 = q.im_norm() ** 2
    if s[-1] <= 1e-14 * s[0]:
        raise SingularSystem("R_q(A) is numerically singular")
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((A.dim, samples, 4))
    block /= np.sqrt(qnormsq(block).sum(axis=0))[None, :, None]
    b = embed.chi(block)[:, 0::2]           # column k is vec(psi_k)
    x = np.linalg.solve(M, b)
    upper = np.linalg.norm(x, axis=0) * im2 / np.linalg.norm(b, axis=0)
    applied = qmatmul(R.entries, block)
    lower = np.sqrt(qnormsq(applied).sum(axis=0)) / im2   # ||R phi|| / (im2 * ||phi||)
    return max(float(np.max(upper - 1.0)), float(np.max(1.0 - lower)))
