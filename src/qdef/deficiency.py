"""Deficiency indices of symmetric banded operators on half-line sequences.

A semi-infinite banded symmetric operator is given by a coefficient generator
coeff(n, d) = A[n, n+d] for |d| <= bandwidth, acting on finitely supported
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

Growth handling: the march rescales its active window whenever magnitudes
leave [1e-120, 1e+120], tracking the accumulated log factor per index, so
exponentially growing or decaying solutions never overflow.  For square-
summable candidates a backward re-solve from the computed tail cross-checks
the forward pass, and for bandwidth-1 operators a minimal-solution probe
(backward march from a zero tail seed) guards against the forward recurrence
drifting off a decaying solution; discrepancies downgrade verdicts to
``inconclusive``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import embed
from .errors import (DimensionMismatch, InternalInconsistency,
                     PreconditionFailed, SingularLeadingCoefficient,
                     StabilityViolation)
from .qoperator import QOperator, shift_left_scalar
from .quat import (UNITS, Quaternion, format_quaternion, parse_quaternion,
                   qnormsq)
from .rmodule import Basis, LeftMul, QVector, inner

RESCALE_HI = 1e120
RESCALE_LO = 1e-120
RATIO_MARGIN = 1e-3          # geometric trend margin around ratio 1
DIAG_MATCH_TOL = 1e-12       # exact-hit tolerance for diagonal operators
RESIDUAL_TOL = 1e-10         # relative recurrence residual bound
BACKWARD_TOL = 1e-6          # forward/backward discrepancy for downgrades
BOUNDARY_TOL = 1e-8          # row-0 residual for the minimal-solution probe
GRAM_MIN_EIG = 1e-8          # directness threshold

SQUARE_SUMMABLE = "square_summable"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# scalar quaternion tuples (hot recurrence path)
# ---------------------------------------------------------------------------

def _hmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _habs(a):
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3])


def _hinv(a):
    n2 = a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]
    return (a[0] / n2, -a[1] / n2, -a[2] / n2, -a[3] / n2)


# ---------------------------------------------------------------------------
# banded operators
# ---------------------------------------------------------------------------

class BandedOperator:
    """Symmetric banded operator on half-line sequences, given by a generator.

    ``coeff(n, d)`` returns the entry A[n, n+d] for |d| <= bandwidth as a
    Quaternion.  The symmetry relation coeff(n, d) = conj(coeff(n+d, -d)) and
    the ``real_entries`` flag are validated on sampled rows at construction.
    """

    def __init__(self, bandwidth, coeff, symmetric=True, real_entries=True,
                 description="", validate_rows=40):
        self.bandwidth = int(bandwidth)
        self._coeff = coeff
        self.symmetric = bool(symmetric)
        self.real_entries = bool(real_entries)
        self.description = description
        self._cache = {}
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be nonnegative")
        self._validate(validate_rows)

    def _validate(self, rows):
        w = self.bandwidth
        for n in range(rows):
            for d in range(-w, w + 1):
                if n + d < 0:
                    continue
                a = self.coeff(n, d)
                if self.real_entries and a.im_norm() > 1e-12:
                    raise ValueError(
                        f"declared real_entries but coeff({n},{d}) = {a}")
                if self.symmetric:
                    b = self.coeff(n + d, -d).conjugate()
                    if not a.isclose(b, atol=1e-12):
                        raise ValueError(
                            f"declared symmetric but coeff({n},{d}) != "
                            f"conj(coeff({n + d},{-d}))")

    def coeff(self, n, d) -> Quaternion:
        if abs(d) > self.bandwidth or n < 0 or n + d < 0:
            return Quaternion(0.0)
        return self._coeff(n, d)

    def coeff_tuple(self, n, d):
        key = (n, d)
        t = self._cache.get(key)
        if t is None:
            q = self.coeff(n, d)
            t = (q.q0, q.q1, q.q2, q.q3)
            self._cache[key] = t
        return t

    def scale_real(self, factor: float) -> BandedOperator:
        """The operator factor*A (real factor, entrywise)."""
        base = self._coeff
        return BandedOperator(
            self.bandwidth,
            lambda n, d: base(n, d) * float(factor),
            symmetric=self.symmetric,
            real_entries=self.real_entries,
            description=f"{factor}*({self.description})",
        )

    def truncate(self, M) -> np.ndarray:
        """Leading M x M corner as a quaternionic entry array."""
        arr = np.zeros((M, M, 4))
        w = self.bandwidth
        for n in range(M):
            for d in range(-w, w + 1):
                m = n + d
                if 0 <= m < M:
                    arr[n, m] = self.coeff(n, d).to_array()
        return arr

    def truncated_operator(self, M) -> QOperator:
        return QOperator.from_entries(self.truncate(M))

    def __repr__(self):
        return f"BandedOperator(w={self.bandwidth}, {self.description!r})"


def _poly_eval(coeffs, n):
    acc = Quaternion(0.0)
    p = 1.0
    for c in coeffs:
        acc = acc + c * p
        p *= n
    return acc


def poly_generator(offset_polys):
    """Coefficient generator from polynomials in n, one per band offset."""
    polys = {int(d): [c if isinstance(c, Quaternion) else Quaternion(float(c))
                      for c in coeffs]
             for d, coeffs in offset_polys.items()}

    def coeff(n, d):
        poly = polys.get(d)
        if poly is None:
            return Quaternion(0.0)
        return _poly_eval(poly, n)

    return coeff


def from_config(obj) -> BandedOperator:
    """Build a BandedOperator from its JSON dict form.

    Expected shape: {"bandwidth": w, "coeff": {"type": "poly",
    "offset_-1": [...], "offset_0": [...], "offset_1": [...]},
    "real_entries": true}; polynomial coefficients are numbers or quaternion
    literals.
    """
    w = int(obj["bandwidth"])
    spec = obj["coeff"]
    if spec.get("type", "poly") != "poly":
        raise ValueError(f"unknown coefficient generator type {spec.get('type')!r}")
    offsets = {}
    for key, val in spec.items():
        if not key.startswith("offset_"):
            continue
        d = int(key[len("offset_"):])
        offsets[d] = [parse_quaternion(c) if isinstance(c, str) else Quaternion(float(c))
                      for c in val]
    return BandedOperator(
        w,
        poly_generator(offsets),
        symmetric=bool(obj.get("symmetric", True)),
        real_entries=bool(obj.get("real_entries", True)),
        description=obj.get("description", "banded operator from config"),
    )


def number_operator() -> BandedOperator:
    """Diagonal operator with coeff(n, 0) = n; essentially self-adjoint."""
    return BandedOperator(0, poly_generator({0: [0.0, 1.0]}),
                          description="number operator diag(n)")


def free_jacobi() -> BandedOperator:
    """Three-term operator with unit off-diagonals and zero diagonal."""
    return BandedOperator(1, poly_generator({-1: [1.0], 0: [0.0], 1: [1.0]}),
                          description="free Jacobi, unit off-diagonals")


def jacobi_sq() -> BandedOperator:
    """Jacobi operator with off-diagonal couple (n+1)^2 between n and n+1."""
    return BandedOperator(
        1,
        poly_generator({-1: [0.0, 0.0, 1.0], 0: [0.0], 1: [1.0, 2.0, 1.0]}),
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
    exponentially growing or decaying solutions representable.
    """
    mantissas: np.ndarray        # (N+1, 4)
    log_scale: np.ndarray        # (N+1,)
    q: Quaternion
    seed_slot: int
    backward_check: str = "not_run"   # "ok" | "discrepancy" | "skipped" | "not_run"

    @property
    def length(self):
        return self.mantissas.shape[0]

    def values(self) -> np.ndarray:
        """True coefficients as an (N+1, 4) array; raises on overflow."""
        if np.max(self.log_scale + self._log_mags()) > 700.0:
            raise OverflowError("solution magnitudes exceed double range")
        return self.mantissas * np.exp(self.log_scale)[:, None]

    @property
    def coefficients(self):
        vals = self.values()
        return [Quaternion.from_array(v) for v in vals]

    def _log_mags(self):
        mags = np.sqrt(qnormsq(self.mantissas))
        with np.errstate(divide="ignore"):
            return np.log(mags)

    def log_sq_magnitudes(self) -> np.ndarray:
        """log |c_n|^2 per index (-inf where the coefficient vanishes)."""
        return 2.0 * (self._log_mags() + self.log_scale)

    def to_qvector(self) -> QVector:
        return QVector.from_components(self.values())


def _march(op: BandedOperator, q: Quaternion, N: int, seeds, reverse=False):
    """Solve the banded recurrence in either direction with window rescaling.

    Forward: ``seeds`` fills c_0..c_{w-1}; rows 0..N-w produce c_w..c_N.
    Reverse: ``seeds`` fills c_{N-2w+1}..c_N; rows N-w..w produce down to c_0.
    Returns (mantissas, log_scale).
    """
    w = op.bandwidth
    qt = (q.q0, q.q1, q.q2, q.q3)
    C = [(0.0, 0.0, 0.0, 0.0)] * (N + 1)
    logs = np.zeros(N + 1)
    scale = 0.0

    if not reverse:
        lo, hi, step, out_off, lead_off = 0, N - w + 1, 1, w, w
        seed_idx = range(w)
    else:
        lo, hi, step, out_off, lead_off = N - w, w - 1, -1, -w, -w
        seed_idx = range(N - 2 * w + 1, N + 1)
    for idx, val in zip(seed_idx, seeds):
        C[idx] = tuple(val)

    for n in range(lo, hi, step):
        lead = op.coeff_tuple(n, lead_off)
        if _habs(lead) <= 1e-12:
            raise SingularLeadingCoefficient(n, lead)
        acc = _hmul(qt, C[n])
        for d in range(-w, w + 1):
            if d == lead_off:
                continue
            m = n + d
            if m < 0 or m > N:
                continue
            a = op.coeff_tuple(n, d)
            if a == (0.0, 0.0, 0.0, 0.0):
                continue
            t = _hmul(a, C[m])
            acc = (acc[0] - t[0], acc[1] - t[1], acc[2] - t[2], acc[3] - t[3])
        out = n + out_off
        C[out] = _hmul(_hinv(lead), acc)
        logs[out] = scale

        if not reverse:
            active = range(max(0, n + 1 - w), min(N, n + w) + 1)
        else:
            active = range(max(0, n - w), min(N, n - 1 + w) + 1)
        m_abs = max(_habs(C[idx]) for idx in active)
        if m_abs > RESCALE_HI or (0.0 < m_abs < RESCALE_LO):
            K = math.log(m_abs)
            f = math.exp(-K)
            for idx in active:
                c = C[idx]
                C[idx] = (c[0] * f, c[1] * f, c[2] * f, c[3] * f)
                logs[idx] += K
            scale += K

    return np.array(C, dtype=float), logs


def recurrence_residual(op: BandedOperator, sol: FormalSolution) -> float:
    """Max relative residual of the recurrence over all interior rows."""
    w = op.bandwidth
    N = sol.length - 1
    C = sol.mantissas
    logs = sol.log_scale
    qt = (sol.q.q0, sol.q.q1, sol.q.q2, sol.q.q3)
    worst = 0.0
    for n in range(0, N - w + 1):
        idxs = [n + d for d in range(-w, w + 1) if 0 <= n + d <= N]
        ref = max(logs[i] for i in idxs)
        terms = []
        qc = _hmul(qt, tuple(C[n] * math.exp(logs[n] - ref)))
        terms.append(_habs(qc))
        acc = tuple(-x for x in qc)
        for d in range(-w, w + 1):
            m = n + d
            if m < 0 or m > N:
                continue
            a = op.coeff_tuple(n, d)
            t = _hmul(a, tuple(C[m] * math.exp(logs[m] - ref)))
            terms.append(_habs(t))
            acc = (acc[0] + t[0], acc[1] + t[1], acc[2] + t[2], acc[3] + t[3])
        denom = max(max(terms), 1e-300)
        worst = max(worst, _habs(acc) / denom)
    return worst


def formal_solutions(op: BandedOperator, q: Quaternion, N: int):
    """All independent formal solutions of (adjoint(A) - q) phi = 0, truncated.

    For bandwidth w >= 1 the w free initial slots are seeded with unit values
    and the recurrence is solved forward; for diagonal operators (w = 0) the
    rows decouple and slot n admits a nonzero coefficient only when
    coeff(n, 0) - q vanishes exactly.
    """
    w = op.bandwidth
    if w == 0:
        sols = []
        for n in range(N + 1):
            if (op.coeff(n, 0) - q).norm() <= DIAG_MATCH_TOL:
                C = np.zeros((N + 1, 4))
                C[n, 0] = 1.0
                sols.append(FormalSolution(C, np.zeros(N + 1), q, n, "skipped"))
        return sols
    if N < 10 * w:
        raise PreconditionFailed(f"truncation length {N} < 10*bandwidth")
    for n in range(0, N - w + 1):
        if _habs(op.coeff_tuple(n, w)) <= 1e-12:
            raise SingularLeadingCoefficient(n)
    sols = []
    for slot in range(w):
        seeds = [(1.0, 0.0, 0.0, 0.0) if s == slot else (0.0,) * 4
                 for s in range(w)]
        C, logs = _march(op, q, N, seeds, reverse=False)
        sol = FormalSolution(C, logs, q, slot)
        res = recurrence_residual(op, sol)
        if res > RESIDUAL_TOL:
            raise InternalInconsistency(
                f"forward recurrence residual {res:.3e} exceeds {RESIDUAL_TOL:g}")
        sols.append(sol)
    return sols


# ---------------------------------------------------------------------------
# square-summability classification
# ---------------------------------------------------------------------------

@dataclass
class SummabilityVerdict:
    verdict: str
    ratio: float
    block_log_energies: list = field(default_factory=list)

    def __eq__(self, other):
        if isinstance(other, str):
            return self.verdict == other
        return NotImplemented


def classify_l2(sol: FormalSolution, window: int = 100,
                ratio_margin: float = RATIO_MARGIN) -> SummabilityVerdict:
    """Fit the geometric trend of trailing block energies of a solution.

    Blocks of ``window`` consecutive |c_n|^2 sums are taken from the trailing
    half; a fitted block-to-block ratio <= 1 - 1e-3 is square-summable,
    >= 1 + 1e-3 divergent, anything in between inconclusive.
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


def _backward_consistency(op: BandedOperator, sol: FormalSolution) -> str:
    """Re-solve backward from the forward tail and compare head coefficients."""
    w = op.bandwidth
    N = sol.length - 1
    tail_idx = range(N - 2 * w + 1, N + 1)
    tail_logs = sol.log_scale[list(tail_idx)]
    if np.max(tail_logs) - np.min(tail_logs) > 1e-9:
        return "skipped"  # rescale boundary inside the seed window
    try:
        C_b, logs_b = _march(op, sol.q, N, [tuple(sol.mantissas[i]) for i in tail_idx],
                             reverse=True)
    except SingularLeadingCoefficient:
        return "skipped"
    logs_b += tail_logs[0]
    upto = max(2 * w, min(N // 4, 200))
    try:
        fwd = FormalSolution(sol.mantissas[:upto], sol.log_scale[:upto], sol.q,
                             sol.seed_slot).values()
        bwd = FormalSolution(C_b[:upto], logs_b[:upto], sol.q, sol.seed_slot).values()
    except OverflowError:
        return "discrepancy"
    scale = np.max(np.sqrt(qnormsq(fwd)))
    if scale == 0.0:
        return "ok"
    disc = np.max(np.abs(fwd - bwd)) / scale
    return "ok" if disc <= BACKWARD_TOL else "discrepancy"


def _minimal_solution_probe(op: BandedOperator, q: Quaternion, N: int,
                            window: int):
    """Miller-style probe (bandwidth 1): march backward from a zero tail seed.

    Returns the boundary-row relative residual and the summability verdict of
    the minimal solution it converges to.
    """
    seeds = [(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]  # c_{N-1}=1, c_N=0
    try:
        C, logs = _march(op, q, N, seeds, reverse=True)
    except SingularLeadingCoefficient:
        return None
    # row 0: a(0,0) c_0 + a(0,1) c_1 = q c_0, in the local scale of the head
    ref = max(logs[0], logs[1])
    c0 = tuple(C[0] * math.exp(logs[0] - ref))
    c1 = tuple(C[1] * math.exp(logs[1] - ref))
    qt = (q.q0, q.q1, q.q2, q.q3)
    t0 = _hmul(op.coeff_tuple(0, 0), c0)
    t1 = _hmul(op.coeff_tuple(0, 1), c1)
    rq = _hmul(qt, c0)
    resid = _habs((t0[0] + t1[0] - rq[0], t0[1] + t1[1] - rq[1],
                   t0[2] + t1[2] - rq[2], t0[3] + t1[3] - rq[3]))
    denom = max(_habs(t0), _habs(t1), _habs(rq), _habs(c0), _habs(c1), 1e-300)
    sol = FormalSolution(C, logs, q, -1, "probe")
    verdict = classify_l2(sol, window)
    return resid / denom, verdict


def classify_solution(op: BandedOperator, sol: FormalSolution,
                      window: int = 100,
                      ratio_margin: float = RATIO_MARGIN) -> SummabilityVerdict:
    """classify_l2 plus the bidirectional safeguards of the module docstring."""
    verdict = classify_l2(sol, window, ratio_margin)
    if op.bandwidth == 0:
        return verdict
    if verdict.verdict == SQUARE_SUMMABLE:
        status = _backward_consistency(op, sol)
        sol.backward_check = status
        if status == "discrepancy":
            return SummabilityVerdict(INCONCLUSIVE, verdict.ratio,
                                      verdict.block_log_energies)
    elif verdict.verdict == DIVERGENT and op.bandwidth == 1:
        probe = _minimal_solution_probe(op, sol.q, sol.length - 1, window)
        if probe is not None:
            boundary_resid, minimal_verdict = probe
            if boundary_resid <= BOUNDARY_TOL and \
                    minimal_verdict.verdict == SQUARE_SUMMABLE:
                # the decaying branch satisfies the boundary row: the forward
                # march likely drifted off it
                return SummabilityVerdict(INCONCLUSIVE, verdict.ratio,
                                          verdict.block_log_energies)
    return verdict


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
    stability: list = field(default_factory=list)
    infinity_suspected: bool = False
    params: dict = field(default_factory=dict)

    @property
    def indices(self):
        return (self.n_plus, self.n_minus)

    def to_dict(self):
        return {
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "unit": self.unit,
            "status": self.status,
            "self_adjoint": self.self_adjoint,
            "hypotheses_met": self.hypotheses_met,
            "evidence": self.evidence,
            "stability": self.stability,
            "infinity_suspected": self.infinity_suspected,
            "params": self.params,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def _count_l2(op: BandedOperator, q: Quaternion, N: int, window: int,
              ratio_margin: float = RATIO_MARGIN):
    """(count of square-summable solutions, evidence rows, any_inconclusive)."""
    rows = []
    count = 0
    inconclusive = False
    for sol in formal_solutions(op, q, N):
        v = classify_solution(op, sol, window, ratio_margin)
        rows.append({
            "q": format_quaternion(q),
            "seed_slot": sol.seed_slot,
            "verdict": v.verdict,
            "ratio": None if math.isnan(v.ratio) else v.ratio,
            "backward_check": sol.backward_check,
        })
        if v.verdict == SQUARE_SUMMABLE:
            count += 1
        elif v.verdict == INCONCLUSIVE:
            inconclusive = True
    return count, rows, inconclusive


def deficiency_indices(op: BandedOperator, unit: str = "i", N: int = 2000,
                       window: int = 100,
                       ratio_margin: float = RATIO_MARGIN) -> DeficiencyReport:
    """Deficiency indices (n+, n-) of a symmetric banded operator.

    n+ and n- count the square-summable solutions of the kernel recurrence at
    +e and -e for the unit imaginary ``unit``.  (0, 0) is reported as the
    self-adjointness verdict.  Any unclassifiable solution marks the whole
    report ``inconclusive`` and is not counted.
    """
    if unit not in UNITS:
        raise ValueError("unit must be one of 'i', 'j', 'k'")
    if not op.symmetric:
        raise PreconditionFailed("deficiency indices require a symmetric operator")
    e = UNITS[unit]
    n_plus, ev_plus, inc_p = _count_l2(op, e, N, window, ratio_margin)
    n_minus, ev_minus, inc_m = _count_l2(op, -e, N, window, ratio_margin)
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


def index_stability_scan(op: BandedOperator, center: Quaternion,
                         count: int = 20, N: int = 2000, window: int = 100,
                         seed: int = 0, ratio_margin: float = RATIO_MARGIN):
    """Kernel dimension of (adjoint(A) - q) across shifts where it is constant.

    Samples ``count`` non-real shifts in the ball B(center, |Im center|),
    plus the center itself and the three unit directions scaled to
    |Im center|.  All square-summable kernel dimensions must agree; a
    discordant shift raises StabilityViolation.
    """
    if center.im_norm() == 0.0:
        raise PreconditionFailed("stability scan needs a non-real center")
    if not op.symmetric or not op.real_entries:
        raise PreconditionFailed(
            "stability scan is implemented for real-entried symmetric operators")
    radius = center.im_norm()
    rng = np.random.default_rng(seed)
    shifts = [center]
    shifts += [UNITS[u] * radius for u in ("i", "j", "k")]
    shifts += [_sample_ball(rng, center, radius) for _ in range(count)]
    samples = []
    dims = set()
    inconclusive = False
    for q in shifts:
        d, _, inc = _count_l2(op, q, N, window, ratio_margin)
        samples.append({"q": format_quaternion(q), "dim": d,
                        "status": INCONCLUSIVE if inc else "ok"})
        if inc:
            inconclusive = True
        else:
            dims.add(d)
    if len(dims) > 1:
        raise StabilityViolation(
            f"kernel dimension not constant: {sorted(dims)}",
            discordant=samples)
    return {
        "constant_dim": dims.pop() if dims else None,
        "status": INCONCLUSIVE if inconclusive else "ok",
        "samples": samples,
        "params": {"N": N, "window": window, "count": count, "seed": seed,
                   "center": format_quaternion(center)},
    }


# ---------------------------------------------------------------------------
# decomposition (directness) evidence
# ---------------------------------------------------------------------------

def _gram_min_eig(vectors):
    t = len(vectors)
    G = np.zeros((t, t, 4))
    for a in range(t):
        for b in range(t):
            G[a, b] = inner(vectors[a], vectors[b]).to_array()
    eigs = np.linalg.eigvalsh(embed.chi(G))
    return float(eigs[0])


def von_neumann_evidence(op, q: Quaternion, N: int = 2000, window: int = 100):
    """Directness of the defect spaces at q and conj(q).

    Banded input: assembles the square-summable kernel solutions at q and at
    conj(q), normalizes the truncations and checks that the Gram matrix of
    the union has minimum eigenvalue above 1e-8.  Finite matrices from the
    real symmetric family have empty kernels on both sides, which reduces the
    domain decomposition to the trivial one.
    """
    if q.im_norm() == 0.0:
        raise PreconditionFailed("directness evidence needs a non-real shift")
    if isinstance(op, BandedOperator):
        if not op.symmetric:
            raise PreconditionFailed("directness evidence needs a symmetric operator")
        vectors = []
        dims = {}
        inconclusive = False
        for label, shift in (("plus", q), ("minus", q.conjugate())):
            kept = 0
            for sol in formal_solutions(op, shift, N):
                v = classify_solution(op, sol, window)
                if v.verdict == SQUARE_SUMMABLE:
                    vec = sol.to_qvector()
                    vectors.append(vec / vec.norm())
                    kept += 1
                elif v.verdict == INCONCLUSIVE:
                    inconclusive = True
            dims[label] = kept
        gram_min = _gram_min_eig(vectors) if vectors else None
        return {
            "kind": "banded",
            "dim_plus": dims["plus"],
            "dim_minus": dims["minus"],
            "gram_min_eig": gram_min,
            "direct": gram_min is None or gram_min > GRAM_MIN_EIG,
            "status": INCONCLUSIVE if inconclusive else "ok",
            "trivial_decomposition": dims["plus"] == 0 and dims["minus"] == 0,
        }
    if isinstance(op, QOperator):
        adj = op.adjoint()
        if op.max_entry_diff(adj) > 1e-10:
            raise PreconditionFailed("directness evidence needs a symmetric operator")
        k_plus = embed.kernel_q(shift_left_scalar(adj, q))
        k_minus = embed.kernel_q(shift_left_scalar(adj, q.conjugate()))
        vectors = [v / v.norm() for v in k_plus.vectors + k_minus.vectors]
        gram_min = _gram_min_eig(vectors) if vectors else None
        return {
            "kind": "finite",
            "dim_plus": k_plus.qdim,
            "dim_minus": k_minus.qdim,
            "gram_min_eig": gram_min,
            "direct": gram_min is None or gram_min > GRAM_MIN_EIG,
            "status": "ok",
            "trivial_decomposition": k_plus.qdim == 0 and k_minus.qdim == 0,
        }
    raise TypeError("expected a BandedOperator or QOperator")


# ---------------------------------------------------------------------------
# truncated-matrix oracle and basis invariance
# ---------------------------------------------------------------------------

def truncated_kernel(op: BandedOperator, q: Quaternion, M: int = 60) -> embed.KernelBasis:
    """Kernel of the truncated shifted matrix, boundary rows deleted.

    The leading M x M corner of (A - q) keeps only its first M - w rows (the
    rows that do not reference truncated coefficients), and the quaternionic
    nullity of the rectangle counts the formal solutions -- the dense
    embedding oracle for the recurrence solver.
    """
    w = op.bandwidth
    arr = op.truncate(M)
    arr[np.arange(M), np.arange(M)] -= q.to_array()
    return embed.kernel_q(arr[:M - w if w else M])


def basis_invariance_check(A: QOperator, B2: Basis, q: Quaternion,
                           trials: int = 1, seed: int = 0) -> int:
    """Discrepancy of dim ran(A - q)^perp across two left multiplications.

    The first trial uses the supplied (A, B2, q); further trials draw random
    real symmetric operators, random orthonormal bases and random non-real
    shifts of the same dimension.  Both dimensions come from embedding ranks
    and the returned maximum discrepancy must be zero.
    """
    from .qoperator import real_symmetric
    from .rmodule import random_basis

    def one(A_, B2_, q_):
        if q_.im_norm() == 0.0:
            raise PreconditionFailed("basis invariance needs a non-real shift")
        if not A_.is_real() or A_.max_entry_diff(A_.adjoint()) > 1e-10:
            raise PreconditionFailed(
                "basis invariance check is implemented for the real symmetric family")
        if B2_.dim != A_.dim:
            raise DimensionMismatch("basis dimension differs from operator")
        n = A_.dim
        d1 = n - embed.rank_q(shift_left_scalar(A_, q_, None))
        d2 = n - embed.rank_q(shift_left_scalar(A_, q_, LeftMul(B2_)))
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
