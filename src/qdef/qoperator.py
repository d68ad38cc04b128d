"""Dense quaternionic matrices acting as right-linear operators on H^n.

The matrix entry A[n, m] multiplies the m-th coordinate from the left, so
application commutes with right scalars: A(phi * q) = (A phi) * q.  The
adjoint is the conjugate transpose of the entries and satisfies
<psi | A phi> = <A.adjoint() psi | phi>.

Subtracting a non-real scalar from an operator is basis-dependent: (A - q)phi
here always means apply(A, phi) - left_scale(basis, q, phi) for the left
multiplication of an explicit basis.  With the canonical basis the left
scalar operator is just diag(q), but a rotated basis gives a genuinely
different matrix.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import embed
from .errors import DimensionMismatch, InternalInconsistency, PreconditionFailed
from .quat import (UNITS, I, Quaternion, format_quaternion, parse_quaternion,
                   qconj, qmatmul, qmul, qnormsq)
from .rmodule import Basis, QVector, _as_components
from .tolerances import DEFAULT, _number

SYM_ATOL = 1e-10  # entrywise tolerance for symmetry predicates


class QOperator:
    """n x n quaternionic matrix with entries stored as an (n, n, 4) array."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        if isinstance(rows, np.ndarray) and rows.ndim == 3:
            arr = np.asarray(rows, dtype=float).copy()
        else:
            arr = np.array(
                [[_as_components(x) for x in row] for row in rows], dtype=float)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 4:
            raise ValueError("expected square quaternionic matrix entries")
        self.entries = arr

    @classmethod
    def from_entries(cls, arr):
        op = cls.__new__(cls)
        op.entries = np.asarray(arr, dtype=float)
        return op

    @classmethod
    def identity(cls, dim):
        arr = np.zeros((dim, dim, 4))
        arr[np.arange(dim), np.arange(dim), 0] = 1.0
        return cls.from_entries(arr)

    @classmethod
    def zero(cls, dim):
        return cls.from_entries(np.zeros((dim, dim, 4)))

    @classmethod
    def from_real(cls, mat):
        mat = np.asarray(mat, dtype=float)
        arr = np.zeros(mat.shape + (4,))
        arr[..., 0] = mat
        return cls.from_entries(arr)

    @property
    def dim(self):
        return self.entries.shape[0]

    def entry(self, i, j) -> Quaternion:
        return Quaternion.from_array(self.entries[i, j])

    def apply(self, phi: QVector) -> QVector:
        if phi.dim != self.dim:
            raise DimensionMismatch("operator and vector dimensions differ")
        return QVector.from_components(qmatmul(self.entries, phi.components))

    __call__ = apply

    def adjoint(self) -> QOperator:
        return QOperator.from_entries(qconj(self.entries.transpose(1, 0, 2)))

    def __add__(self, other):
        self._check(other)
        return QOperator.from_entries(self.entries + other.entries)

    def __sub__(self, other):
        self._check(other)
        return QOperator.from_entries(self.entries - other.entries)

    def __neg__(self):
        return QOperator.from_entries(-self.entries)

    def __mul__(self, r):
        if isinstance(r, (int, float)):
            return QOperator.from_entries(self.entries * float(r))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        return QOperator.from_entries(qmatmul(self.entries, other.entries))

    def isclose(self, other, atol=SYM_ATOL):
        return self.dim == other.dim and float(
            np.max(np.abs(self.entries - other.entries))) <= atol

    def max_entry_diff(self, other) -> float:
        self._check(other)
        return float(np.max(np.abs(self.entries - other.entries)))

    def is_real(self, atol=SYM_ATOL) -> bool:
        return float(np.max(np.abs(self.entries[..., 1:]))) <= atol

    def _check(self, other):
        if not isinstance(other, QOperator) or other.dim != self.dim:
            raise DimensionMismatch("operator dimensions differ")

    def __repr__(self):
        return f"QOperator(dim={self.dim})"

    # -- JSON literal format -------------------------------------------------

    def to_json(self) -> str:
        lits = [format_quaternion(self.entry(i, j))
                for i in range(self.dim) for j in range(self.dim)]
        return json.dumps({"dim": self.dim, "entries": lits})

    @classmethod
    def from_json(cls, text: str) -> QOperator:
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, obj) -> QOperator:
        dim = _number("dim", obj["dim"], True, ValueError)
        if dim < 1:
            raise ValueError(f"dim must be at least 1, got {dim}")
        lits = obj["entries"]
        if not isinstance(lits, list):
            raise ValueError(f"entries must be a list, got {type(lits).__name__}")
        if len(lits) != dim * dim:
            raise ValueError("entry count does not match dim*dim")
        try:
            # every entry canonical: all numbers in one stream; + 0.0 reads
            # -0.0 as +0.0, as parse_quaternion's 0.0 slots do
            flat = np.fromiter(map(float, chain.from_iterable(
                m.groups() for m in map(_CANONICAL.fullmatch, lits))),
                float, count=4 * len(lits)) + 0.0
        except (TypeError, AttributeError, ValueError):
            # a non-string entry, a non-canonical literal, or a canonical-
            # looking number that float() rejects: read entry by entry
            flat = np.fromiter(map(_literal_components, lits), dtype=(float, 4),
                               count=len(lits))
        arr = flat.reshape(dim, dim, 4)
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite numbers")
        return cls.from_entries(arr)


# the canonical four-term literal +a-bi+cj-dk, every sign written, no spaces.
# Its number admits more than parse_quaternion's (two dots, or no digit), but
# float() rejects exactly those, so the strings read here and their values
# are the general parser's
_CANONICAL = re.compile(
    "([+-]{0})([+-]{0})i([+-]{0})j([+-]{0})k".format(r"[\d.]+(?:[eE][+-]?\d+)?"))


def _literal_components(lit):
    if isinstance(lit, str):
        q = parse_quaternion(lit)
        return q.q0, q.q1, q.q2, q.q3
    if isinstance(lit, bool) or not isinstance(lit, (int, float)):
        raise ValueError(f"entries is not a number: {lit!r}")
    return float(lit), 0.0, 0.0, 0.0


# ---------------------------------------------------------------------------
# scalar-multiplied operators
# ---------------------------------------------------------------------------

def left_scalar(q: Quaternion, dim=None, basis: Basis | None = None) -> QOperator:
    """Matrix of the left scalar operator phi -> q . phi.

    With no ``basis`` (the canonical one) this is diag(q); for a general
    basis {e_k} the matrix is sum_k e_k q <e_k|.>, one quaternionic matrix
    product.
    """
    if basis is None:
        if dim is None:
            raise ValueError("need a dimension or a basis")
        arr = np.zeros((dim, dim, 4))
        arr[np.arange(dim), np.arange(dim)] = q.to_array()
        return QOperator.from_entries(arr)
    B = basis.matrix                                      # (k, n, 4)
    bq = qmul(B, q.to_array()[None, None, :])             # e_k q
    return QOperator.from_entries(qmatmul(bq.transpose(1, 0, 2), qconj(B)))


def shift_left_scalar(A: QOperator, q: Quaternion, basis: Basis | None = None) -> QOperator:
    """The operator (A - q), with q acting through the left product of ``basis``."""
    return A - left_scalar(q, A.dim, basis)


def scalar_op(q: Quaternion, A: QOperator, basis: Basis | None = None,
              side: str = "left") -> QOperator:
    """(qA)phi = q.(A phi) for side="left"; (Aq)phi = A(q.phi) for side="right"."""
    Lq = left_scalar(q, A.dim, basis)
    if side == "left":
        return Lq @ A
    if side == "right":
        return A @ Lq
    raise ValueError("side must be 'left' or 'right'")


@dataclass
class SymmetryReport:
    is_symmetric: bool
    is_anti_symmetric: bool
    anti: dict = field(default_factory=dict)   # unit name -> bool for eA
    max_defect: float = 0.0

    def all_units_anti(self) -> bool:
        return all(self.anti.values())


def symmetry_predicates(A: QOperator, basis: Basis | None = None) -> SymmetryReport:
    """Symmetry of A and anti-symmetry of the unit-scaled operators eA.

    ``anti[e]`` records whether (eA) equals -(eA)^adjoint entrywise, where
    (eA)phi = e.(A phi) through the left product of ``basis``.  Every
    comparison is entrywise to the absolute ``SYM_ATOL``.  PreconditionFailed
    for an operator with a non-finite entry.
    """
    if not np.isfinite(A.entries).all():
        raise PreconditionFailed("operator has a non-finite entry")
    adj = A.adjoint()
    defect = A.max_entry_diff(adj)
    report = SymmetryReport(
        is_symmetric=defect <= SYM_ATOL,
        is_anti_symmetric=float(np.max(np.abs(A.entries + adj.entries))) <= SYM_ATOL,
        max_defect=defect,
    )
    for name, unit in UNITS.items():
        eA = scalar_op(unit, A, basis, side="left")
        report.anti[name] = float(
            np.max(np.abs(eA.entries + eA.adjoint().entries))) <= SYM_ATOL
    return report


def resolvent_poly(A: QOperator, q: Quaternion) -> QOperator:
    """A^2 - 2 Re(q) A + |q|^2 I; the coefficients are real, so no basis enters.

    For symmetric A whose unit-scaled versions are anti-symmetric this equals
    (A - q)(A - conj(q)) in either factor order.
    """
    return A @ A - (2.0 * q.real) * A + q.norm_sq() * QOperator.identity(A.dim)


# ---------------------------------------------------------------------------
# norm identities
# ---------------------------------------------------------------------------

def norm_identity_check(A: QOperator, basis: Basis | None, q: Quaternion,
                        samples: int = 100, seed: int = 0, *,
                        preds: SymmetryReport | None = None) -> float:
    """Max residual of ||(A-q)phi||^2 = ||(A-q0)phi||^2 + (q1^2+q2^2+q3^2)||phi||^2.

    Requires anti-symmetry of eA for every unit e appearing in q; raises
    PreconditionFailed otherwise.  Sampled on ``samples`` unit vectors.
    ``preds`` is ``symmetry_predicates(A, basis)``, if the caller already
    holds it.
    """
    preds = preds or symmetry_predicates(A, basis)
    for name, comp in zip("ijk", (q.q1, q.q2, q.q3)):
        if comp != 0.0 and not preds.anti[name]:
            raise PreconditionFailed(f"{name}A is not anti-symmetric")
    M = shift_left_scalar(A, q, basis)
    M0 = shift_left_scalar(A, Quaternion(q.real), basis)
    im2 = q.im_norm() ** 2
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((A.dim, samples, 4))
    block /= np.sqrt(qnormsq(block).sum(axis=0))[None, :, None]
    lhs = qnormsq(qmatmul(M.entries, block)).sum(axis=0)
    rhs = qnormsq(qmatmul(M0.entries, block)).sum(axis=0) + im2 * qnormsq(block).sum(axis=0)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# self-adjointness criteria
# ---------------------------------------------------------------------------

@dataclass
class CriteriaReport:
    self_adjoint: bool
    kernels_trivial: bool
    ranges_full: bool
    max_defect: float
    agree: bool
    hypotheses_met: bool                 # iA, jA, kA all anti-symmetric
    general_q: str = ""
    general_kernels_trivial: bool | None = None
    general_ranges_full: bool | None = None


def criteria_report(A: QOperator, basis: Basis | None = None,
                    q: Quaternion | None = None,
                    rank_tol=DEFAULT.rank_tol, *,
                    preds: SymmetryReport | None = None) -> CriteriaReport:
    """Evaluate the three equivalent self-adjointness criteria.

    (a) A equals its adjoint entrywise; (b) the kernels of (adjoint(A) -+ i)
    are trivial; (c) the ranges of (A -+ i) are full.  Kernels and ranks come
    from the complex embedding.  The same is evaluated at a general non-real
    shift q (default 1+i+j+k) against its conjugate pair.

    A must be symmetric (PreconditionFailed otherwise).  The equivalence of
    (a)-(c) is guaranteed when iA is anti-symmetric; a disagreement under that
    hypothesis raises InternalInconsistency since it can only be a bug.
    ``preds`` is ``symmetry_predicates(A, basis)``, if the caller already
    holds it.
    """
    if q is None:
        q = Quaternion(1.0, 1.0, 1.0, 1.0)
    preds = preds or symmetry_predicates(A, basis)
    if not preds.is_symmetric:
        raise PreconditionFailed("operator is not symmetric")
    adj = A.adjoint()
    n = A.dim
    kernels_trivial = (
        not embed.kernel_q(shift_left_scalar(adj, I, basis), rank_tol)
        and not embed.kernel_q(shift_left_scalar(adj, -I, basis), rank_tol))
    ranges_full = (
        embed.rank_q(shift_left_scalar(A, I, basis), rank_tol) == n
        and embed.rank_q(shift_left_scalar(A, -I, basis), rank_tol) == n)
    self_adjoint = preds.is_symmetric
    agree = self_adjoint == kernels_trivial == ranges_full
    if preds.anti.get("i", False) and not agree:
        raise InternalInconsistency(
            "self-adjointness criteria disagree under valid hypotheses")
    gk = gr = None
    if q.im_norm() > 0:
        gk = (not embed.kernel_q(shift_left_scalar(adj, q, basis), rank_tol)
              and not embed.kernel_q(shift_left_scalar(adj, q.conjugate(), basis), rank_tol))
        gr = (embed.rank_q(shift_left_scalar(A, q, basis), rank_tol) == n
              and embed.rank_q(shift_left_scalar(A, q.conjugate(), basis), rank_tol) == n)
        if preds.all_units_anti() and not (self_adjoint == gk == gr):
            raise InternalInconsistency(
                "general-shift criteria disagree under valid hypotheses")
    return CriteriaReport(
        self_adjoint=self_adjoint,
        kernels_trivial=kernels_trivial,
        ranges_full=ranges_full,
        max_defect=preds.max_defect,
        agree=agree,
        hypotheses_met=preds.all_units_anti(),
        general_q=format_quaternion(q),
        general_kernels_trivial=gk,
        general_ranges_full=gr,
    )


# ---------------------------------------------------------------------------
# preset constructors
# ---------------------------------------------------------------------------

def real_symmetric(dim: int, seed: int = 0) -> QOperator:
    """Random real transpose-symmetric matrix.

    With the canonical basis, left scalars commute past real entries, so these
    operators are symmetric with iA, jA, kA all anti-symmetric -- the family
    on which every norm identity and decomposition hypothesis holds exactly.
    """
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((dim, dim))
    return QOperator.from_real((M + M.T) / 2.0)


def hermitian_random(dim: int, seed: int = 0) -> QOperator:
    """Random quaternionic matrix equal to its adjoint (real diagonal)."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim, 4))
    H = (G + qconj(G.transpose(1, 0, 2))) / 2.0
    return QOperator.from_entries(H)


def random_operator(dim: int, seed: int = 0) -> QOperator:
    rng = np.random.default_rng(seed)
    return QOperator.from_entries(rng.standard_normal((dim, dim, 4)))
