"""Deficiency indices of symmetric banded operators on half-line sequences.

A semi-infinite banded symmetric operator is given by polynomials in n, one
per band offset: A[n, n+d] for |d| <= bandwidth, acting on finitely supported
sequences.  The kernel equation of the adjoint at a shift q,

    sum_d A[n, n+d] c_{n+d} = q * c_n        (left product on coordinates),

is a forward recurrence: with invertible leading band coefficients, each of
the ``bandwidth`` free initial slots seeds one formal solution.  A formal
solution belongs to the kernel inside the Hilbert space exactly when it is
square-summable, which is decided by fitting the geometric trend of trailing
block energies; borderline fits are reported as ``inconclusive`` and never
silently counted.

The deficiency indices (n+, n-) count the square-summable solutions at +e and
-e for a unit imaginary e; (0, 0) is equivalent to (essential)
self-adjointness, the indices are independent of the chosen unit and constant
over non-real shifts, and the defect spaces at q and conj(q) intersect
trivially (directness evidence).

All shifts and seed slots of one command at one truncation length share one
forward march, and all backward re-solves and probes one reverse march.  The
unit of work is the distinct problem (a shift's slice number z, below, else
the shift itself): it is marched, checked, fitted and safeguarded once, at
its first shift, and its shifts share its verdicts.  ``deficiency`` counts
the indices and its scan in one batch, ``verify`` its indices at +-i, its
scan and its directness evidence.

Every march is complex.  With real coefficients, a solution with real seeds
at the shift q = a + bI (b = |Im q|, I a unit imaginary) stays in the slice
C_I = {x + yI}, which x + yI -> x + iy maps onto the complex numbers: such
operators march at z = a + ib, one complex product per term.  So a solution
depends on Re q and |Im q| alone, the axial symmetry of the S-spectrum: +e
and -e of a unit, and the scan's three unit directions, are one problem.
A quaternion entry a marches as its chi block [[z1, -conj(z2)], [z2,
conj(z1)]] (``embed.chi``, z1 = a0 + i a3, z2 = a2 + i a1) on the chi pairs
(z1, z2) of the c_n.  ``recurrence_residual`` checks each problem at its
first shift in Hamilton arithmetic, a route the march does not share.

Growth handling: the march rescales each solution's active window whenever
its largest |c| leaves [1e-120, 1e+120], tracking the accumulated log factor
per index, so exponentially growing or decaying solutions never overflow.
Rows are marched in blocks, and each block's windows are judged after it, in
row order, bit for bit as a row-by-row march judges them (``_settle``).  For
square-summable candidates a backward re-solve from the computed tail
cross-checks the forward pass, and for bandwidth-1 operators a
minimal-solution probe (backward march from a zero tail seed) guards against
the forward recurrence drifting off a decaying solution: its boundary row is
judged by ``recurrence_residual``, relative to the row's terms.  A
discrepancy, or a decaying probe that satisfies the boundary row, downgrades
a verdict to ``inconclusive``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import embed
from .errors import (DimensionMismatch, InternalInconsistency,
                     PreconditionFailed, SingularLeadingCoefficient,
                     StabilityViolation)
from .qoperator import SYM_ATOL, QOperator, real_symmetric, shift_left_scalar
from .quat import (UNITS, Quaternion, _qmul, _signed, format_quaternion,
                   parse_quaternion, qnormsq)
from .rmodule import Basis, QVector, inner, random_basis
from .tolerances import DEFAULT, _number

RESCALE_HI = 1e120
RESCALE_LO = 1e-120
_BLOCK_LONG = 64             # rows of a march block at most (_march)
DIAG_MATCH_TOL = 1e-12       # exact-hit tolerance for diagonal operators
RESIDUAL_TOL = 1e-10         # relative recurrence residual bound
BACKWARD_TOL = 1e-6          # forward/backward discrepancy for downgrades
BOUNDARY_TOL = 1e-8          # row-0 residual for the minimal-solution probe
GRAM_MIN_EIG = 1e-8          # directness threshold

SQUARE_SUMMABLE = "square_summable"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# element arithmetic of the recurrence (hot path)
# ---------------------------------------------------------------------------

def _normsq(a):
    """Squares summed left to right along the last axis: ((a0^2 + a1^2) +
    a2^2) + a3^2 for quaternion components, re^2 + im^2 for a complex
    number's (re, im), a^2 for a real number's one component."""
    s = a * a
    out = s[..., 0]
    for k in range(1, s.shape[-1]):
        out = out + s[..., k]
    return out


def _norms(a):
    """|a| along the last axis.  Where its squares overflow to inf, or
    underflow to 0 with a component nonzero, it is taken from ``a`` divided
    by its largest component magnitude."""
    out = np.sqrt(_normsq(a))
    odd = (out == 0.0) | np.isinf(out)
    if odd.any():
        big = np.abs(a).max(axis=-1)
        odd &= (0.0 < big) & (big < np.inf)
        out[odd] = big[odd] * np.sqrt(_normsq(a[odd] / big[odd, None]))
    return out


def _inv(a):
    """Inverses conj(a) / |a|^2 along the last axis (quaternion components,
    or a real number's one component)."""
    inv = a / _normsq(a)[..., None]
    inv[..., 1:] *= -1.0
    return inv


def _slice_of(q: Quaternion):
    """(z, I) with q = Re z + (Im z) I, Im z = |Im q| and I a unit imaginary
    (i for a real q): the complex number a real-entried recurrence marches
    for q, and the axis of the slice C_I its solutions lie in."""
    r = float(q.im_norm())
    axis = q.to_array()[1:] / r if r > 0.0 else np.array([1.0, 0.0, 0.0])
    return complex(q.q0, r), axis


# ---------------------------------------------------------------------------
# banded operators
# ---------------------------------------------------------------------------

class BandedOperator:
    """Symmetric banded operator on half-line sequences, polynomial in n.

    ``polys`` maps each band offset d to the coefficients of 1, n, n^2, ...
    of the entry A[n, n+d] (numbers or Quaternions); offsets it leaves out
    are zero, and one beyond ``bandwidth`` is a ValueError.  Finite squared
    norms, the symmetry A[n, n+d] = conj(A[n+d, n]) (to 1e-12 relative to the
    larger of 1 and both entries' norms) and the ``real_entries`` flag are
    validated on rows 0..39 (and the rows they couple to) at construction.
    """

    def __init__(self, bandwidth, polys, symmetric=True, real_entries=True,
                 description=""):
        self.bandwidth = int(bandwidth)
        self.symmetric = bool(symmetric)
        self.real_entries = bool(real_entries)
        self.description = description
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be nonnegative")
        polys = {int(d): np.array([c.to_array() if isinstance(c, Quaternion)
                                   else [float(c), 0.0, 0.0, 0.0]
                                   for c in coeffs]).reshape(-1, 4)
                 for d, coeffs in polys.items()}
        for d in polys:
            if abs(d) > self.bandwidth:
                raise ValueError(f"offset_{d} lies outside bandwidth {self.bandwidth}")
        self._polys = polys
        self._table = np.zeros((0, 2 * self.bandwidth + 1, 4))
        self._validate()

    def _rows(self, lo, hi) -> np.ndarray:
        """Entries A[n, n+d] of rows lo..hi as a (hi-lo+1, 2w+1, 4) array.

        Every polynomial is summed as acc = acc + c_k * n^k from +0.0, with
        n^k a running product, over all rows at once: the operations, and so
        the bits, of evaluating one entry in quaternion scalar arithmetic.
        Entries with n + d < 0 are zero.
        """
        w = self.bandwidth
        n = np.arange(lo, hi + 1, dtype=float)
        rows = np.zeros((len(n), 2 * w + 1, 4))
        with np.errstate(over="ignore", invalid="ignore"):
            for d, coeffs in self._polys.items():
                acc = np.zeros((len(n), 4))
                p = np.ones(len(n))
                for c in coeffs:
                    acc = acc + c * p[:, None]
                    p = p * n
                rows[:, d + w] = acc
        rows[n[:, None] + np.arange(-w, w + 1) < 0] = 0.0
        return rows

    def _symmetry_pairs(self, rows):
        """(a, defect, inside) over rows 0..rows-1: a[n, d+w] = A[n, n+d],
        defect[n, d+w] = |A[n, n+d] - conj(A[n+d, n])| / max(1, |A[n, n+d]|,
        |A[n+d, n]|) and ``inside`` marks n + d >= 0."""
        w = self.bandwidth
        tab = self.table(rows + w)
        m = np.arange(rows)[:, None] + np.arange(-w, w + 1)
        a = tab[:rows]
        b = tab[np.maximum(m, 0), np.arange(2 * w, -1, -1)] * [1.0, -1.0, -1.0, -1.0]
        scale = np.maximum(1.0, np.sqrt(np.maximum(_normsq(a), _normsq(b))))
        return a, np.sqrt(_normsq(a - b)) / scale, m >= 0

    def _validate(self):
        try:    # every entry the checks below read, before any is compared
            a, defect, inside = self._symmetry_pairs(40)
        except PreconditionFailed as exc:
            raise ValueError(str(exc)) from None
        unreal = self.real_entries & (
            np.sqrt((a[..., 1] ** 2 + a[..., 2] ** 2) + a[..., 3] ** 2) > 1e-12)
        # relative, as rounding in an entry grows with it
        asym = self.symmetric & (defect > 1e-12)
        bad = np.argwhere(inside & (unreal | asym))
        if len(bad):
            n, k = bad[0]
            d = k - self.bandwidth
            if unreal[n, k]:
                raise ValueError(f"declared real_entries but coeff({n},{d}) = "
                                 f"{Quaternion.from_array(a[n, k])}")
            raise ValueError(f"declared symmetric but coeff({n},{d}) != "
                             f"conj(coeff({n + d},{-d}))")

    def band_symmetry_defect(self, rows) -> float:
        """Largest |A[n, n+d] - conj(A[n+d, n])| / max(1, |A[n, n+d]|,
        |A[n+d, n]|) over rows 0..rows-1."""
        _, defect, inside = self._symmetry_pairs(rows)
        return float(np.max(defect, initial=0.0, where=inside))

    def coeff_tuple(self, n, d):
        """Components of A[n, n+d]: read from the table when it holds row n,
        evaluated alone otherwise, so a loop over rows stays linear."""
        w = self.bandwidth
        if abs(d) > w or n < 0:
            return (0.0, 0.0, 0.0, 0.0)
        row = self._table[n] if n < len(self._table) else self._rows(n, n)[0]
        return tuple(row[d + w].tolist())

    def table(self, N) -> np.ndarray:
        """Entries A[n, n+d] of rows 0..N as an (N+1, 2w+1, 4) array.

        Cached: the longest table built so far is kept, sliced for shorter
        ones and extended by the missing rows for longer ones.  Raises
        PreconditionFailed when a coefficient's squared norm is not finite,
        since the recurrence cannot be solved in double precision then.
        """
        built = len(self._table)
        if built <= N:
            new = self._rows(built, N)
            with np.errstate(over="ignore", invalid="ignore"):
                bad = np.argwhere(~np.isfinite(_normsq(new)))
            if len(bad):
                n, k = bad[0]
                raise PreconditionFailed(
                    f"coeff({built + n},{k - self.bandwidth}) has a non-finite "
                    "squared norm")
            self._table = np.concatenate([self._table, new])
        return self._table[:N + 1]

    def truncate(self, M) -> np.ndarray:
        """Leading M x M corner as a quaternionic entry array, from ``table``."""
        arr = np.zeros((M, M, 4))
        w = self.bandwidth
        rows = self.table(M - 1)
        for d in range(-w, w + 1):
            n = np.arange(max(0, -d), min(M, M - d))
            arr[n, n + d] = rows[n, d + w]
        return arr

    def __repr__(self):
        return f"BandedOperator(w={self.bandwidth}, {self.description!r})"


def from_config(obj) -> BandedOperator:
    """Build a BandedOperator from its JSON dict form.

    Expected shape: {"bandwidth": w, "coeff": {"type": "poly",
    "offset_-1": [...], "offset_0": [...], "offset_1": [...]},
    "real_entries": true}; polynomial coefficients are numbers or quaternion
    literals; two keys for one offset (``offset_1``, ``offset_01``) raise.
    """
    spec = obj["coeff"]
    if not isinstance(spec, dict):
        raise ValueError(f"coeff must be an object, got {type(spec).__name__}")
    if spec.get("type", "poly") != "poly":
        raise ValueError(f"unknown coefficient generator type {spec.get('type')!r}")
    offsets = {}
    for key, val in spec.items():
        if not key.startswith("offset_"):
            continue
        try:
            d = int(key[len("offset_"):])
        except ValueError:
            raise ValueError(f"{key} does not name an integer offset") from None
        if not isinstance(val, list):
            raise ValueError(f"{key} must be a list, got {type(val).__name__}")
        if d in offsets:
            raise ValueError(f"{key} names offset {d}, as an earlier key does")
        for c in val:
            if isinstance(c, bool) or not isinstance(c, (int, float, str)):
                raise ValueError(f"{key} is not a number: {c!r}")
        offsets[d] = [parse_quaternion(c) if isinstance(c, str) else c for c in val]
    flags = {key: obj.get(key, True) for key in ("symmetric", "real_entries")}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise ValueError(f"{key} must be true or false, got {value!r}")
    bandwidth = _number("bandwidth", obj["bandwidth"], True, ValueError)
    return BandedOperator(bandwidth, offsets, **flags, description=obj.get(
        "description", "banded operator from config"))


def number_operator() -> BandedOperator:
    """Diagonal operator with coeff(n, 0) = n; essentially self-adjoint."""
    return BandedOperator(0, {0: [0.0, 1.0]},
                          description="number operator diag(n)")


def free_jacobi() -> BandedOperator:
    """Three-term operator with unit off-diagonals and zero diagonal."""
    return BandedOperator(1, {-1: [1.0], 0: [0.0], 1: [1.0]},
                          description="free Jacobi, unit off-diagonals")


def jacobi_sq() -> BandedOperator:
    """Jacobi operator with off-diagonal couple (n+1)^2 between n and n+1."""
    return BandedOperator(
        1,
        {-1: [0.0, 0.0, 1.0], 0: [0.0], 1: [1.0, 2.0, 1.0]},
        description="Jacobi with (n+1)^2 off-diagonals")


PRESETS = {
    "number_operator": number_operator,
    "free_jacobi": free_jacobi,
    "jacobi_sq": jacobi_sq,
}


# ---------------------------------------------------------------------------
# formal solutions of the kernel recurrence
# ---------------------------------------------------------------------------

@dataclass
class FormalSolution:
    """Truncated solution c_0..c_N stored as mantissas with per-index log scale.

    The true coefficient is mantissas[n] * exp(log_scale[n]); the split keeps
    exponentially growing or decaying solutions representable.  Mantissas
    are complex: x + iy standing for x + yI on the slice C_I of the shift, or
    the chi pairs (z1, z2) of quaternions (see the module docstring).
    """
    mantissas: np.ndarray        # (N+1,) on a slice, (N+1, 2) chi pairs
    log_scale: np.ndarray        # (N+1,)
    q: Quaternion
    seed_slot: int
    backward_check: str = "not_run"   # "ok" | "discrepancy" | "skipped" | "not_run"

    @property
    def length(self):
        return self.mantissas.shape[0]

    def components(self, rows=slice(None)) -> np.ndarray:
        """Quaternion components (..., 4) of the mantissas at ``rows``: x + yI
        of each x + iy on a slice, q0 + q1 i + q2 j + q3 k of each chi pair."""
        m = self.mantissas[rows]
        if self.mantissas.ndim == 2:
            z1, z2 = m[..., 0], m[..., 1]
            return np.stack([z1.real, z2.imag, z2.real, z1.imag], axis=-1)
        out = np.empty(m.shape + (4,))
        out[..., 0] = m.real
        out[..., 1:] = m.imag[..., None] * _slice_of(self.q)[1]
        return out

    def values(self) -> np.ndarray:
        """True coefficients as an (N+1, 4) array; raises on overflow."""
        if np.max(self.log_scale + self._log_mags()) > 700.0:
            raise OverflowError("solution magnitudes exceed double range")
        return self.components() * np.exp(self.log_scale)[:, None]

    def _log_mags(self):
        m = self.mantissas                  # (re, im) of each complex number
        m = np.stack([m.real, m.imag], axis=-1).reshape(len(m), -1)
        with np.errstate(divide="ignore"):
            return np.log(np.sqrt(_normsq(m)))

    def log_sq_magnitudes(self) -> np.ndarray:
        """log |c_n|^2 per index (-inf where the coefficient vanishes)."""
        return 2.0 * (self._log_mags() + self.log_scale)

    def to_qvector(self) -> QVector:
        return QVector.from_components(self.values())


def _march(table, shifts, N, seeds, reverse=False):
    """Solve the banded recurrence for a batch of B solutions, either direction.

    ``table`` holds the coefficients of rows 0..N at least.  Real entries
    (N+1, 2w+1) march (B,) complex shifts on the slice; quaternion entries
    (N+1, 2w+1, 4) and (B, 4) quaternion shifts march as chi blocks on chi
    pairs (module docstring), each product one elementwise 2x2 product.
    Forward: ``seeds`` (B, w), or (B, w, 2) chi pairs, fills c_0..c_{w-1} and
    rows 0..N-w produce c_w..c_N.  Reverse: ``seeds`` (B, 2w[, 2]) fills
    c_{N-2w+1}..c_N and rows N-w..w produce down to c_0.  After every row,
    the first included, each solution rescales its active window on its own
    when the window's largest |c| leaves [RESCALE_LO, RESCALE_HI]
    (``_settle``); that is the one rescale rule.  Returns complex mantissas
    (B, N+1[, 2]) and log scales (B, N+1); every solution is bit for bit
    what it would be if marched alone.

    Rows are marched in blocks with no rescale test, and each block is then
    judged by ``_settle``; the rows after the first that rescales are
    marched again from the rescaled window.  A block ends at the row where
    the first solution is due to rescale again, by the gap between its last
    two rescales; once past it, blocks double from one row.  No block is
    longer than _BLOCK_LONG rows.  So an operator that rescales every few
    rows marches few rows twice, and one that seldom does marches long
    blocks.  The mantissas are held entry-major, so that a row reads its
    entries as whole rows of the array.
    """
    w = (table.shape[1] - 1) // 2
    tab = table[:N + 1]
    if tab.ndim == 3:
        def prep(a):
            return embed.chi(a.reshape(-1, 1, 4)).reshape(a.shape[:-1] + (2, 2))

        def mul(a, x):
            return a[..., 0] * x[..., :1] + a[..., 1] * x[..., 1:]
    else:
        prep, mul = np.asarray, np.multiply
    sq = prep(np.asarray(shifts, dtype=float if tab.ndim == 3 else complex))
    B = len(sq)
    C = np.zeros((N + 1, B) + np.shape(seeds)[2:], dtype=complex)
    comps = C.view(float).reshape(N + 1, B, -1)     # float view: (re, im) pairs
    logs = np.zeros((B, N + 1))
    scale = np.zeros(B)
    if reverse:
        rows, off = range(N - w, w - 1, -1), -w
        C[N - 2 * w + 1:] = np.swapaxes(seeds, 0, 1)
    else:
        rows, off = range(N - w + 1), w
        C[:w] = np.swapaxes(seeds, 0, 1)
    lead = tab[:, off + w].reshape(N + 1, -1)
    # singular only where |lead|^2 underflows: a lead of any other size inverts
    singular = _normsq(lead[np.array(rows)]) < np.finfo(float).tiny
    if singular.any():
        n = rows[int(np.argmax(singular))]
        raise SingularLeadingCoefficient(n, tuple(lead[n]))
    with np.errstate(all="ignore"):
        inv = prep(_inv(lead).reshape(tab[:, off + w].shape))
        # all-zero coefficients are skipped: subtracting their zero term
        # could still flip the sign of a zero sum
        terms = [(d, prep(tab[:, d + w]),
                  tab[:, d + w].reshape(N + 1, -1).any(axis=1).tolist())
                 for d in range(-w, w + 1) if d != off and tab[:, d + w].any()]
        # where each solution last rescaled, the gap before that, and the
        # row where the first of them is due again
        start, last, gap, due = 0, [0] * B, [math.inf] * B, math.inf
        while start < len(rows):
            size = min(_BLOCK_LONG, due - start if due > start else start - due + 1)
            block = rows[start:start + size]
            for n in block:
                acc = mul(sq, C[n])
                for d, coef, nonzero in terms:
                    m = n + d
                    if 0 <= m <= N and nonzero[n]:
                        acc -= mul(coef[n], C[m])
                C[n + off] = mul(inv[n], acc)
            lo, hi = sorted((block[0] + off, block[-1] + off))
            logs[:, lo:hi + 1] = scale[:, None]
            kept, hit = _settle(C, comps, logs, scale, block, w)
            start += kept
            if hit is not None:
                for b, rescaled in enumerate(hit):
                    if rescaled:
                        gap[b], last[b] = start - last[b], start
                due = min(l + g for l, g in zip(last, gap))
    return np.swapaxes(C, 0, 1), logs


def _settle(C, comps, logs, scale, block, w):
    """Judge the rows of ``block``, marched with no rescale test, as a
    row-by-row march judges each.  Returns how many of them stand (all, or
    those up to the first that rescales) and which solutions that row
    rescaled (None if no row did).

    Row n's window holds the 2w entries the next row reads: c_{n+1-w}..c_{n+w}
    forward, clipped at c_0, and c_{n-w}..c_{n+w-1} reverse.  Each solution
    whose largest |c| there (the first maximum, as Python's max) lies
    outside [RESCALE_LO, RESCALE_HI], which a NaN never does, is divided by
    it, and its log factor grows by its log.  One array pass finds the tops
    of all the windows, and the rows flagged rescale in row order.  A row's
    window holds what it and the rows before it wrote, and no row after the
    first that rescales is kept, so no bit changes.
    """
    L = len(block)
    reverse = block.step < 0
    # |c| of the entries of every window, in index order: the window of the
    # row with the k-th new entry is entries k..k+2w-1
    first = min(block[0], block[-1]) + (-w if reverse else 1 - w)
    mags = np.sqrt(_normsq(comps[max(0, first):first + L + 2 * w - 1]))
    if first < 0:                                 # clipped at c_0: repeat it
        mags = np.concatenate([mags[:1]] * -first + [mags])
    tops = _first_max([mags[k:k + L] for k in range(2 * w)])
    flagged = np.flatnonzero(((tops > RESCALE_HI) | (tops < RESCALE_LO)).any(axis=1))
    for k in (flagged[::-1] if reverse else flagged).tolist():
        lo, hi = max(0, first + k), first + k + 2 * w
        top = tops[k].tolist()
        if any(t == 0.0 or t == math.inf for t in top):
            # a norm whose squares overflow reads inf, one whose squares
            # underflow reads 0: only a top of inf or 0 can be wrong
            top = _first_max(_norms(comps[lo:hi])).tolist()
        # the others get K = 0 and the factor exp(-0) = 1, which change no bit
        K = [math.log(t) if t > RESCALE_HI or 0.0 < t < RESCALE_LO else 0.0 for t in top]
        if any(K):
            comps[lo:hi] *= np.array([math.exp(-x) for x in K])[:, None]
            logs[:, lo:hi] += np.array(K)[:, None]
            scale += K
            return (L - k if reverse else k + 1), [x != 0.0 for x in K]
    return L, None


def _first_max(mags):
    """Per solution (last axis), the first largest of the ``mags``, as
    Python's max finds it: a NaN is passed over after the first entry."""
    top = mags[0]
    for m in mags[1:]:
        top = np.where(m > top, m, top)
    return top


_RESIDUAL_ROWS = 512   # rows per chunk of the residual's array expression


def recurrence_residual(op: BandedOperator, sol: FormalSolution) -> float:
    """Max relative residual of the recurrence over all interior rows.

    Each row is evaluated in the scale of its largest log factor and divided
    by the largest of its terms, in Hamilton arithmetic at the solution's
    quaternion shift: for a slice solution this also checks the slice map.
    """
    w = op.bandwidth
    N = sol.length - 1
    tab = op.table(N)
    sq = _signed(sol.q.to_array())
    offsets = np.arange(-w, w + 1)
    worst = 0.0
    with np.errstate(all="ignore"):
        for start in range(0, N - w + 1, _RESIDUAL_ROWS):
            n = np.arange(start, min(start + _RESIDUAL_ROWS, N - w + 1))
            m = n[:, None] + offsets
            valid = (m >= 0) & (m <= N)
            m = np.clip(m, 0, N)
            lg = np.where(valid, sol.log_scale[m], -np.inf)
            ref = lg.max(axis=1, keepdims=True)
            c = np.where(valid[..., None],
                         sol.components(m) * np.exp(lg - ref)[..., None], 0.0)
            qc = _qmul(sq, c[:, w])
            t = _qmul(_signed(tab[n]), c)
            acc = t.sum(axis=1) - qc
            denom = np.maximum(np.maximum(np.sqrt(_normsq(qc)),
                                          np.sqrt(_normsq(t)).max(axis=1)),
                               1e-300)
            # NaN rows are passed over, as Python's max passes them over
            worst = float(np.fmax.reduce(np.sqrt(_normsq(acc)) / denom,
                                         initial=worst))
    return worst


def _finite(q: Quaternion, what: str) -> Quaternion:
    """``q``, or PreconditionFailed naming it when a component is infinite
    or NaN: a march or a sample at such a shift gives no number."""
    if not np.all(np.isfinite(q.to_array())):
        raise PreconditionFailed(f"{what} {q!r} has a non-finite component")
    return q


def _problems(op: BandedOperator, shifts, N: int, on_slice=None):
    """The table a march of rows 0..N >= 10 * bandwidth takes, and per shift
    its problem: its slice number z on the slice (by default, when the table
    has no imaginary components), else its quaternion components."""
    if op.bandwidth and N < 10 * op.bandwidth:
        raise PreconditionFailed(f"truncation length {N} < 10*bandwidth")
    tab = op.table(N)
    if on_slice is None:
        on_slice = op.bandwidth > 0 and not tab[..., 1:].any()
    if on_slice:
        return tab[..., 0], [_slice_of(q)[0] for q in shifts]
    return tab, [tuple(q.to_array()) for q in shifts]


def _formal_batch(op: BandedOperator, shifts, N: int):
    """Formal solutions at every shift (one list per shift), not yet checked,
    and per shift the index of the first shift of its problem (``_problems``).
    Each distinct problem is marched once, all in one forward march, and its
    shifts share its rows, each with its own q.
    """
    w = op.bandwidth
    tab, problems = _problems(op, shifts, N)
    index = {}
    first = [index.setdefault(z, i) for i, z in enumerate(problems)]
    if w == 0:                      # slot n: c_n = 1 where coeff(n, 0) = q
        batch = []
        for q in shifts:
            hits = np.sqrt(_normsq(tab[:, 0] - q.to_array())) <= DIAG_MATCH_TOL
            batch.append([FormalSolution(np.zeros((N + 1, 2), complex), np.zeros(N + 1),
                                         q, int(n), "skipped") for n in np.flatnonzero(hits)])
            for sol in batch[-1]:
                sol.mantissas[sol.seed_slot, 0] = 1.0
        return batch, first
    # slot s: c_s = 1, a chi pair on the quaternion table
    seeds = np.eye(w) if tab.ndim == 2 else np.eye(w)[..., None] * [1.0, 0.0]
    C, logs = _march(tab, [z for z in index for _ in range(w)], N,
                     np.concatenate([seeds] * len(index)))
    row = {i: r * w for r, i in enumerate(index.values())}
    return [[FormalSolution(C[row[i] + s], logs[row[i] + s], q, s) for s in range(w)]
            for q, i in zip(shifts, first)], first


def _checked(op: BandedOperator, sols):
    """``sols`` after the recurrence residual of each passed RESIDUAL_TOL."""
    if op.bandwidth:
        for sol in sols:
            res = recurrence_residual(op, sol)
            if res > RESIDUAL_TOL:
                raise InternalInconsistency(
                    f"forward recurrence residual {res:.3e} exceeds {RESIDUAL_TOL:g}")
    return sols


def formal_solutions(op: BandedOperator, q: Quaternion, N: int):
    """All independent formal solutions of (adjoint(A) - q) phi = 0, truncated.

    For bandwidth w >= 1 the w free initial slots are seeded with unit values
    and the recurrence is solved forward; for diagonal operators (w = 0) the
    rows decouple and slot n admits a nonzero coefficient only when
    coeff(n, 0) - q vanishes exactly.
    """
    return _checked(op, _formal_batch(op, [_finite(q, "shift")], N)[0][0])


# ---------------------------------------------------------------------------
# square-summability classification
# ---------------------------------------------------------------------------

@dataclass
class SummabilityVerdict:
    verdict: str
    ratio: float
    block_log_energies: list = field(default_factory=list)


def classify_l2(sol: FormalSolution, window: int = DEFAULT.window,
                ratio_margin: float = DEFAULT.ratio) -> SummabilityVerdict:
    """Fit the geometric trend of trailing block energies of a solution.

    Blocks of ``window`` consecutive |c_n|^2 sums are taken from the trailing
    half; a fitted block-to-block ratio <= 1 - ratio_margin is square-summable,
    >= 1 + ratio_margin divergent, anything in between inconclusive.
    """
    n = sol.length
    if n < 4 * window:
        raise PreconditionFailed("solution too short for the requested window")
    log_sq = sol.log_sq_magnitudes()
    nblocks = n // window
    start = nblocks // 2
    # log-sum-exp per block with the largest entry split off and tied maxima
    # counted: log1p(sum_{non-max} exp(a - max) / ties) + log(ties) + max
    blocks = log_sq[start * window:nblocks * window].reshape(-1, window)
    top = blocks.max(axis=1)
    is_top = blocks == top[:, None]
    ties = is_top.sum(axis=1)
    with np.errstate(invalid="ignore"):
        rest = np.exp(np.where(is_top, -np.inf, blocks) - top[:, None]).sum(axis=1)
        log_e = np.where(np.isneginf(top), -np.inf,
                         np.log1p(rest / ties) + np.log(ties) + top)
    if np.all(np.isinf(log_e) & (log_e < 0)):
        return SummabilityVerdict(SQUARE_SUMMABLE, 0.0, list(log_e))
    if np.any(np.isinf(log_e)):
        return SummabilityVerdict(INCONCLUSIVE, float("nan"), list(log_e))
    xs = np.arange(log_e.size, dtype=float)
    slope = np.polyfit(xs, log_e, 1)[0]
    with np.errstate(over="ignore"):   # super-geometric growth: ratio inf
        ratio = float(np.exp(slope))
    if ratio <= 1.0 - ratio_margin:
        verdict = SQUARE_SUMMABLE
    elif ratio >= 1.0 + ratio_margin:
        verdict = DIVERGENT
    else:
        # flat trend: a tail whose block energies stabilize above zero makes
        # the partial sums grow linearly, which is divergence, not doubt
        peak = np.max(log_e)
        verdict = DIVERGENT if log_e[-1] > peak + np.log(1e-12) else INCONCLUSIVE
    return SummabilityVerdict(verdict, ratio, [float(x) for x in log_e])


@dataclass
class _Entry:
    """One classified solution on its way through the safeguards; see _screen."""
    seed_slot: int
    verdict: SummabilityVerdict
    backward_check: str
    q: Quaternion
    seeds: np.ndarray | None = None
    tail_log: float = 0.0
    head: FormalSolution | None = None


def _screen(op: BandedOperator, sols, window: int, ratio_margin: float):
    """An _Entry per solution: seed slot, classify_l2 verdict, backward_check
    and its reverse-march job, copied out so the forward batch can be freed.

    A square-summable candidate (bandwidth >= 1) is marched back from
    ``seeds``, its last 2w rows, to be compared with ``head``, its first rows,
    or reads "skipped" when a rescale boundary lies inside those 2w rows.  A
    divergent bandwidth-1 solution gets a minimal-solution probe from seeds
    c_{N-1} = 1, c_N = 0.  Other entries have no ``seeds``.
    """
    w = op.bandwidth
    entries = []
    for sol in sols:
        entry = _Entry(sol.seed_slot, classify_l2(sol, window, ratio_margin),
                       sol.backward_check, sol.q)
        N = sol.length - 1
        if w and entry.verdict.verdict == SQUARE_SUMMABLE:
            tail_logs = sol.log_scale[N - 2 * w + 1:]
            # a forward march rescales its whole window at once, so the tail
            # shares one log factor: this guard, like the one for a singular
            # reverse lead in _safeguard, serves solutions that a caller of
            # classify_solution builds
            if np.max(tail_logs) - np.min(tail_logs) > 1e-9:
                entry.backward_check = "skipped"
            else:
                upto = max(2 * w, min(N // 4, 200))
                entry.seeds = sol.mantissas[N - 2 * w + 1:].copy()
                entry.tail_log = tail_logs[0]
                entry.head = replace(sol, mantissas=sol.mantissas[:upto].copy(),
                                     log_scale=sol.log_scale[:upto].copy())
        elif w == 1 and entry.verdict.verdict == DIVERGENT:
            entry.seeds = np.zeros((2,) + sol.mantissas.shape[1:])
            entry.seeds.flat[0] = 1.0
        entries.append(entry)
    return entries


def _backward_status(entry: _Entry, C, logs) -> str:
    """Compare the forward head with the backward re-solve from its tail."""
    upto = entry.head.length
    try:
        fwd = entry.head.values()
        bwd = replace(entry.head, mantissas=C[:upto],
                      log_scale=logs[:upto] + entry.tail_log).values()
    except OverflowError:
        return "discrepancy"
    scale = np.max(np.sqrt(qnormsq(fwd)))
    if scale == 0.0:
        return "ok"
    disc = np.max(np.abs(fwd - bwd)) / scale
    return "ok" if disc <= BACKWARD_TOL else "discrepancy"


def _probe_result(op: BandedOperator, entry: _Entry, C, logs, window: int,
                  ratio_margin: float):
    """Boundary-row relative residual and verdict of a minimal solution.

    Miller-style probe (bandwidth 1): the backward march from the zero tail
    seed c_{N-1} = 1, c_N = 0 converges to the minimal solution.  Cut to
    its first two rows, the probe has row 0, a(0,0) c_0 + a(0,1) c_1 = q c_0,
    as its one interior row, and ``recurrence_residual`` checks it relative
    to the largest of its terms, so the residual does not depend on the
    operator's scale.
    """
    probe = FormalSolution(C, logs, entry.q, -1)
    head = replace(probe, mantissas=C[:2], log_scale=logs[:2])
    return recurrence_residual(op, head), classify_l2(probe, window, ratio_margin)


def _safeguard(op: BandedOperator, entries, N: int, window: int, ratio_margin: float):
    """Settle the verdict and backward_check of every _Entry in place.

    The backward re-solves and minimal-solution probes of all entries with
    ``seeds`` run as one reverse march in the arithmetic (the seeds' shape) of
    their forward march, each distinct problem once (``_count_l2``);
    a discrepancy, or a probe whose decaying solution satisfies the boundary
    row, downgrades the verdict to ``inconclusive``.
    """
    marched = [entry for entry in entries if entry.seeds is not None]
    if not marched:
        return
    tab, problems = _problems(op, [entry.q for entry in marched], N,
                              marched[0].seeds.ndim == 1)
    try:
        C, logs = _march(tab, problems, N, np.array([e.seeds for e in marched]),
                         reverse=True)
    except SingularLeadingCoefficient:
        # a symmetric band's reverse leads are conjugates of its forward
        # leads, so only a non-symmetric band given to classify_solution
        # gets here
        for entry in marched:
            if entry.verdict.verdict == SQUARE_SUMMABLE:
                entry.backward_check = "skipped"
        return
    for entry, C_b, logs_b in zip(marched, C, logs):
        if entry.verdict.verdict == SQUARE_SUMMABLE:
            entry.backward_check = _backward_status(entry, C_b, logs_b)
            downgrade = entry.backward_check == "discrepancy"
        else:
            boundary_resid, minimal = _probe_result(op, entry, C_b, logs_b, window,
                                                    ratio_margin)
            # the decaying branch satisfies the boundary row: the forward
            # march likely drifted off it
            downgrade = boundary_resid <= BOUNDARY_TOL and \
                minimal.verdict == SQUARE_SUMMABLE
        if downgrade:
            entry.verdict = SummabilityVerdict(INCONCLUSIVE, entry.verdict.ratio,
                                               entry.verdict.block_log_energies)


def classify_solution(op: BandedOperator, sol: FormalSolution,
                      window: int = DEFAULT.window,
                      ratio_margin: float = DEFAULT.ratio) -> SummabilityVerdict:
    """classify_l2 plus the bidirectional safeguards of the module docstring."""
    [entry] = _screen(op, [sol], window, ratio_margin)
    _safeguard(op, [entry], sol.length - 1, window, ratio_margin)
    sol.backward_check = entry.backward_check
    return entry.verdict


# ---------------------------------------------------------------------------
# deficiency indices
# ---------------------------------------------------------------------------

@dataclass
class DeficiencyReport:
    n_plus: int
    n_minus: int
    unit: str
    status: str                      # "ok" | "inconclusive"
    self_adjoint: bool
    hypotheses_met: bool
    evidence: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def indices(self):
        return (self.n_plus, self.n_minus)

    def to_dict(self):
        return asdict(self)


# Largest batch of one march: its mantissas and log scales take 40 bytes a
# row per solution as chi pairs (24 on a slice), so a scan with a huge
# --count cannot exhaust memory.
_BATCH_BYTES = 32 * 2 ** 20


def _count_l2(op: BandedOperator, shifts, N: int, window: int, ratio_margin: float,
              keep=()):
    """Per shift: (count of square-summable solutions, evidence rows,
    any_inconclusive, its square-summable solutions if its index is in
    ``keep``, else None), from one forward and one reverse march for as many
    distinct problems as fit in _BATCH_BYTES.  Each distinct problem is
    checked, fitted and safeguarded once; its shifts' evidence rows copy its
    verdicts."""
    per_batch = max(1, _BATCH_BYTES // (40 * (N + 1) * max(op.bandwidth, 1)))
    rank = {}           # each distinct problem's place: its shifts share a batch
    part = [rank.setdefault(z, len(rank)) // per_batch
            for z in _problems(op, shifts, N)[1]]
    if len(rank) > per_batch:
        counts = {}
        for b in range(max(part) + 1):
            at = [k for k, p in enumerate(part) if p == b]
            counts.update(zip(at, _count_l2(op, [shifts[k] for k in at], N, window,
                                            ratio_margin, [at.index(k) for k in keep
                                                           if k in at])))
        return [counts[k] for k in range(len(shifts))]
    batch, first = _formal_batch(op, shifts, N)
    screened = {i: _screen(op, _checked(op, batch[i]), window, ratio_margin)
                for i in dict.fromkeys(first)}
    # the reverse march needs none of the forward mantissas; kept solutions
    # are copied out of the batch, so that it is freed
    kept = {k: [replace(sol, mantissas=sol.mantissas.copy(),
                        log_scale=sol.log_scale.copy()) for sol in batch[k]]
            for k in keep if 0 <= k < len(batch)}
    del batch
    _safeguard(op, [entry for entries in screened.values() for entry in entries], N,
               window, ratio_margin)
    counts = []
    for k, (q, i) in enumerate(zip(shifts, first)):
        rows = [{"q": format_quaternion(q), "seed_slot": e.seed_slot,
                 "verdict": e.verdict.verdict,
                 "ratio": e.verdict.ratio if math.isfinite(e.verdict.ratio) else None,
                 "backward_check": e.backward_check} for e in screened[i]]
        verdicts = [row["verdict"] for row in rows]
        l2 = None if k not in kept else [
            sol for sol, v in zip(kept[k], verdicts) if v == SQUARE_SUMMABLE]
        counts.append((verdicts.count(SQUARE_SUMMABLE), rows,
                       INCONCLUSIVE in verdicts, l2))
    return counts


def deficiency_indices(op: BandedOperator, unit: str = "i", N: int = DEFAULT.N,
                       window: int = DEFAULT.window,
                       ratio_margin: float = DEFAULT.ratio) -> DeficiencyReport:
    """Deficiency indices (n+, n-) of a symmetric banded operator.

    n+ and n- count the square-summable solutions of the kernel recurrence at
    +e and -e for the unit imaginary ``unit``.  (0, 0) is reported as the
    self-adjointness verdict.  Any unclassifiable solution marks the whole
    report ``inconclusive`` and is not counted.
    """
    counts = _count_l2(op, _unit_shifts(op, unit), N, window, ratio_margin)
    return _unit_report(op, unit, counts, N, window, ratio_margin)


def _unit_shifts(op: BandedOperator, unit: str):
    """The shifts +e, -e of ``unit``, checked as deficiency_indices checks
    its unit and operator."""
    if unit not in UNITS:
        raise ValueError("unit must be one of 'i', 'j', 'k'")
    if not op.symmetric:
        raise PreconditionFailed("deficiency indices require a symmetric operator")
    return [UNITS[unit], -UNITS[unit]]


def _unit_report(op: BandedOperator, unit: str, counts, N: int, window: int,
                 ratio_margin: float) -> DeficiencyReport:
    """deficiency_indices at ``unit`` from the ``_count_l2`` entries of its
    ``_unit_shifts``."""
    (n_plus, ev_plus, inc_p, _), (n_minus, ev_minus, inc_m, _) = counts
    for row in ev_plus:
        row["sign"] = "+"
    for row in ev_minus:
        row["sign"] = "-"
    status = INCONCLUSIVE if (inc_p or inc_m) else "ok"
    return DeficiencyReport(
        n_plus=n_plus,
        n_minus=n_minus,
        unit=unit,
        status=status,
        self_adjoint=(status == "ok" and n_plus == 0 and n_minus == 0),
        hypotheses_met=op.real_entries,
        evidence=ev_plus + ev_minus,
        params={"N": N, "window": window, "ratio_margin": ratio_margin,
                "description": op.description},
    )


# ---------------------------------------------------------------------------
# stability of the indices
# ---------------------------------------------------------------------------

def _sample_ball(rng, center: Quaternion, radius: float):
    while True:
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        offset = direction * radius * rng.random() ** 0.25
        q = center + Quaternion(*offset)
        if q.im_norm() >= 0.1 * radius:
            return q


def index_stability_scan(op: BandedOperator, center: Quaternion, count: int = 20,
                         N: int = DEFAULT.N, window: int = DEFAULT.window,
                         seed: int = 0, ratio_margin: float = DEFAULT.ratio):
    """Kernel dimension of (adjoint(A) - q) across shifts where it is constant.

    Samples ``count`` non-real shifts in the ball B(center, |Im center|),
    plus the center itself and the three unit directions scaled to
    |Im center|.  All square-summable kernel dimensions must agree; a
    discordant shift raises StabilityViolation, whose ``discordant`` holds
    every sample.
    """
    shifts = _scan_shifts(op, center, count, seed)
    scan = _scan_result(shifts, _count_l2(op, shifts, N, window, ratio_margin),
                        N, window, seed)
    if scan["status"] == "violation":
        raise StabilityViolation(scan["detail"], discordant=scan["samples"])
    return scan


def _scan_shifts(op: BandedOperator, center: Quaternion, count: int, seed: int):
    """index_stability_scan's shifts: the center, the three unit directions
    and ``count`` seeded samples; PreconditionFailed when it cannot run."""
    radius = center.im_norm()
    if radius == 0.0:
        raise PreconditionFailed("stability scan center must be non-real")
    _finite(center, "stability scan center")
    if not op.symmetric or not op.real_entries:
        raise PreconditionFailed(
            "stability scan is implemented for real-entried symmetric operators")
    rng = np.random.default_rng(seed)
    shifts = [center]
    shifts += [UNITS[u] * radius for u in ("i", "j", "k")]
    shifts += [_sample_ball(rng, center, radius) for _ in range(count)]
    return shifts


def _scan_result(shifts, counts, N: int, window: int, seed: int):
    """index_stability_scan's result from the ``_count_l2`` entries of its
    ``_scan_shifts``, or where the dimensions disagree, status "violation"
    with a ``detail`` and the samples."""
    samples = []
    dims = set()
    inconclusive = False
    for q, (d, _, inc, _) in zip(shifts, counts):
        samples.append({"q": format_quaternion(q), "dim": d,
                        "status": INCONCLUSIVE if inc else "ok"})
        if inc:
            inconclusive = True
        else:
            dims.add(d)
    if len(dims) > 1:
        return {"status": "violation", "samples": samples,
                "detail": f"kernel dimension not constant: {sorted(dims)}"}
    return {
        "constant_dim": dims.pop() if dims else None,
        "status": INCONCLUSIVE if inconclusive else "ok",
        "samples": samples,
        "params": {"N": N, "window": window, "count": len(shifts) - 4, "seed": seed,
                   "center": format_quaternion(shifts[0])},
    }


def _indices_and_scan(op: BandedOperator, unit: str, scan_shifts, N: int,
                      window: int, seed: int, ratio_margin: float):
    """deficiency_indices at ``unit`` and index_stability_scan over its
    ``scan_shifts`` (from ``_scan_shifts``) from one ``_count_l2``: the report
    and the ``_scan_result``.  On a real-entried band, the only kind the scan
    admits, dim ker(A* - q) = n+ = n- at every non-real q: a conclusive scan
    that differs from conclusive indices is a "violation" naming both."""
    counts = _count_l2(op, _unit_shifts(op, unit) + scan_shifts, N, window,
                       ratio_margin)
    report = _unit_report(op, unit, counts[:2], N, window, ratio_margin)
    scan = _scan_result(scan_shifts, counts[2:], N, window, seed)
    if (report.status == scan["status"] == "ok"
            and report.indices != (scan["constant_dim"],) * 2):
        scan = {**scan, "status": "violation",
                "detail": f"scan dimension {scan['constant_dim']} differs from "
                          f"the indices {report.indices}"}
    return report, scan


# ---------------------------------------------------------------------------
# decomposition (directness) evidence
# ---------------------------------------------------------------------------

def _gram_min_eig(vectors):
    G = np.array([[inner(a, b).to_array() for b in vectors] for a in vectors])
    return float(embed.normal_eigenvalues(embed.chi(G))[0])


def _evidence(kind, dim_plus, dim_minus, vectors, status):
    gram_min = _gram_min_eig(vectors) if vectors else None
    return {
        "kind": kind,
        "dim_plus": dim_plus,
        "dim_minus": dim_minus,
        "gram_min_eig": gram_min,
        "direct": gram_min is None or gram_min > GRAM_MIN_EIG,
        "status": status,
        "trivial_decomposition": dim_plus == 0 and dim_minus == 0,
    }


def _banded_evidence(plus, minus):
    """von_neumann_evidence's banded result from the ``_count_l2`` entries of
    q and conj(q), with their square-summable solutions kept."""
    vectors = []
    for *_, sols in (plus, minus):
        for sol in sols:
            vec = sol.to_qvector()
            vectors.append(vec / vec.norm())
    return _evidence("banded", plus[0], minus[0], vectors,
                     INCONCLUSIVE if plus[2] or minus[2] else "ok")


def von_neumann_evidence(op, q: Quaternion, N: int = DEFAULT.N,
                         window: int = DEFAULT.window, ratio_margin: float = DEFAULT.ratio):
    """Directness of the defect spaces at q and conj(q).

    Banded input: assembles the square-summable kernel solutions at q and at
    conj(q), normalizes the truncations and checks that the Gram matrix of
    the union has minimum eigenvalue above 1e-8.  Finite matrices from the
    real symmetric family have empty kernels on both sides, which reduces the
    domain decomposition to the trivial one.
    """
    if q.im_norm() == 0.0:
        raise PreconditionFailed("directness evidence needs a non-real shift")
    _finite(q, "directness evidence shift")
    if isinstance(op, BandedOperator):
        if not op.symmetric:
            raise PreconditionFailed("directness evidence needs a symmetric operator")
        return _banded_evidence(*_count_l2(op, (q, q.conjugate()), N, window,
                                           ratio_margin, keep=(0, 1)))
    if isinstance(op, QOperator):
        adj = op.adjoint()
        if op.max_entry_diff(adj) > SYM_ATOL:
            raise PreconditionFailed("directness evidence needs a symmetric operator")
        k_plus = embed.kernel_q(shift_left_scalar(adj, q))
        k_minus = embed.kernel_q(shift_left_scalar(adj, q.conjugate()))
        return _evidence("finite", len(k_plus), len(k_minus),
                         [v / v.norm() for v in k_plus + k_minus], "ok")
    raise TypeError("expected a BandedOperator or QOperator")


# ---------------------------------------------------------------------------
# truncated-matrix oracle and basis invariance
# ---------------------------------------------------------------------------

def truncated_kernel(op: BandedOperator, q: Quaternion, M: int = 60,
                     rank_tol: float = DEFAULT.rank_tol) -> list:
    """Kernel vectors of the truncated shifted matrix, boundary rows deleted.

    The leading M x M corner of (A - q) keeps only its first M - w rows (the
    rows that do not reference truncated coefficients), and the quaternionic
    nullity of the rectangle (the length of the returned list of kernel
    vectors) counts the formal solutions -- the dense embedding oracle for
    the recurrence solver.  With non-zero leads the rectangle is in echelon
    form, of nullity w; it is rank-deficient at ``rank_tol`` once its entries
    span more than 1 / rank_tol (1e10 by default).  Raises PreconditionFailed
    for M <= w.
    """
    w = op.bandwidth
    if M <= w:
        raise PreconditionFailed(f"truncation M = {M} keeps no row at bandwidth {w}")
    arr = op.truncate(M)
    arr[np.arange(M), np.arange(M)] -= q.to_array()
    return embed.kernel_q(arr[:M - w], rank_tol)


def basis_invariance_check(A: QOperator, B2: Basis, q: Quaternion,
                           trials: int = 1, seed: int = 0,
                           rank_tol: float = DEFAULT.rank_tol) -> int:
    """Discrepancy of dim ran(A - q)^perp across two left multiplications.

    The first trial uses the supplied (A, B2, q); further trials draw random
    real symmetric operators, random orthonormal bases and random non-real
    shifts of the same dimension.  Both dimensions come from embedding ranks
    and the returned maximum discrepancy must be zero.
    """
    def one(A_, B2_, q_):
        if q_.im_norm() == 0.0:
            raise PreconditionFailed("basis invariance needs a non-real shift")
        if not A_.is_real() or A_.max_entry_diff(A_.adjoint()) > SYM_ATOL:
            raise PreconditionFailed(
                "basis invariance check is implemented for the real symmetric family")
        if B2_.dim != A_.dim:
            raise DimensionMismatch("basis dimension differs from operator")
        n = A_.dim
        d1 = n - embed.rank_q(shift_left_scalar(A_, q_, None), rank_tol)
        d2 = n - embed.rank_q(shift_left_scalar(A_, q_, B2_), rank_tol)
        return abs(d1 - d2)

    worst = one(A, B2, q)
    rng = np.random.default_rng(seed)
    for _ in range(max(0, trials - 1)):
        dim = A.dim
        A_ = real_symmetric(dim, seed=int(rng.integers(2 ** 31)))
        B2_ = random_basis(rng, dim)
        q_ = Quaternion(*rng.standard_normal(4))
        while q_.im_norm() < 0.3:
            q_ = Quaternion(*rng.standard_normal(4))
        worst = max(worst, one(A_, B2_, q_))
    return worst
