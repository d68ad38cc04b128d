"""Judge each call's output against the answer known independently of qdef.

A call fails when
  * an exception escapes, or a traceback is written;
  * it exits 2 on a valid input (every generated input is valid);
  * it exits non-zero although theory says every check passes, unless the only
    cause is an ``inconclusive`` verdict;
  * it gives a confident (status ``ok``) answer that contradicts the known one;
  * two identical calls give report bytes that differ.
An honest ``inconclusive`` is not a failure.  An output the checker cannot
read raises ``Unjudged``: that is a fault of the benchmark, not a failed call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from workloads import Call

INCONCLUSIVE = "inconclusive"

# Failed verify rows that an inconclusive verdict alone can cause.
_INCONCLUSIVE_ROWS = {"deficiency_indices_conclusive", "index_stability",
                      "truncation_doubling_stable", "unit_independence"}


@dataclass
class Outcome:
    """What one call returned: exit code, output text and any escaped error."""
    code: int | None
    out: str = ""
    err: str = ""
    exc: str | None = None
    seconds: float | None = None


class Unjudged(Exception):
    """The output does not have the shape the checker reads."""


def judge(call, outcome: Outcome) -> list:
    """Reasons the call failed; an empty list means it did not."""
    try:
        return _judge(call, outcome)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise Unjudged(f"{call.label}: output could not be judged: "
                       f"{type(exc).__name__}: {exc}") from exc


def _judge(call, outcome: Outcome) -> list:
    if outcome.exc is not None:
        return [f"exception escaped: {outcome.exc.strip().splitlines()[-1]}"]
    if "Traceback (most recent call last)" in outcome.err:
        return ["traceback written to stderr"]
    if call.kind == "scan":
        return _judge_scan(call, json.loads(outcome.out))
    first_err = outcome.err.strip().splitlines()[0] if outcome.err.strip() else ""
    if outcome.code == 2:
        return [f"exit 2 on a valid input: {first_err}"]
    if not outcome.out:
        return [f"exit {outcome.code} without a report: {first_err}"]
    reasons, explained = _judge_report(call, json.loads(outcome.out))
    if outcome.code != 0 and not explained:
        reasons.append(f"exit {outcome.code} where every check should pass")
    return reasons


def _judge_report(call, report):
    """(reasons, non-zero exit explained by an inconclusive verdict)."""
    command = report["command"]
    if command == "deficiency":
        return _judge_deficiency(call, report["deficiency"])
    if command == "verify":
        if "spheres" in report["summary"]:
            return _judge_matrix_verify(call, report)
        return _judge_banded_verify(call, report)
    if command == "sspectrum":
        return _spheres(call, report["spheres"]), False
    if command == "invariance":
        if report["max_discrepancy"] != call.expect.get("max_discrepancy", 0):
            return [f"invariance discrepancy {report['max_discrepancy']}"], False
        return [], False
    if command == "report":
        reasons, explained = [], True
        for part in report["parts"].values():
            r, e = _judge_report(call, part)
            reasons += r
            if not part["passed"] and not e:
                explained = False
        return reasons, explained
    return [f"unknown command {command!r}"], False


def _judge_deficiency(call, d):
    reasons = []
    want = call.expect["indices"]
    if d["status"] == "ok" and [d["n_plus"], d["n_minus"]] != want:
        reasons.append(f"confident indices ({d['n_plus']}, {d['n_minus']}), "
                       f"known ({want[0]}, {want[1]})")
    scan = d["stability"]
    if scan["status"] == "violation":
        reasons.append(f"stability violation: {scan['detail']}")
    elif scan["status"] == "ok" and scan["constant_dim"] != want[0]:
        reasons.append(f"confident scan dim {scan['constant_dim']}, known {want[0]}")
    explained = INCONCLUSIVE in (d["status"], scan["status"])
    return reasons, explained


def _judge_banded_verify(call, report):
    reasons = []
    want = call.expect["indices"]
    base = report["summary"]
    if base["status"] == "ok" and [base["n_plus"], base["n_minus"]] != want:
        reasons.append(f"confident indices ({base['n_plus']}, {base['n_minus']}), "
                       f"known ({want[0]}, {want[1]})")
    rows = {c["name"]: c for c in report["checks"]}
    stab = rows.get("index_stability")
    if stab and stab["passed"] and stab["detail"] != f"constant dim {want[0]}":
        reasons.append(f"confident scan '{stab['detail']}', known {want[0]}")
    conclusive = rows.get("deficiency_indices_conclusive", {}).get("passed", True)
    explained = True
    for name, row in rows.items():
        if row["passed"]:
            continue
        if name not in _INCONCLUSIVE_ROWS or not _inconclusive_cause(name, row, conclusive):
            explained = False
            reasons.append(f"check {name} failed: {row['detail']}")
    return reasons, explained


def _inconclusive_cause(name, row, conclusive):
    """Whether a failed banded row can be caused by an inconclusive verdict."""
    if name == "deficiency_indices_conclusive":
        return True
    if name == "index_stability":
        return row["detail"].startswith("constant dim")   # not a violation
    if name == "truncation_doubling_stable":
        # "N=a -> (x, y), N=b -> (x, y)": equal indices leave only the doubled
        # run's status as the cause.
        left, _, right = row["detail"].partition(", N=")
        return not conclusive or left.split("-> ")[1] == right.split("-> ")[1]
    return not conclusive     # unit_independence


def _judge_matrix_verify(call, report):
    reasons = [f"check {c['name']} failed: {c['detail'] or c['residual']}"
               for c in report["checks"] if not c["passed"]]
    reasons += _spheres(call, report["summary"]["spheres"])
    return reasons, False


def _spheres(call, spheres):
    """Compare a sphere list with the oracle's points (multiplicity expanded)."""
    got = sorted((s["re"], s["im_mag"]) for s in spheres
                 for _ in range(int(s["mult"])))
    want = call.expect["spheres"]
    if len(got) != len(want):
        return [f"{len(got)} sphere points, oracle has {len(want)}"]
    tol = 1e-7 * call.expect["scale"]
    worst = max((math.hypot(a[0] - b[0], a[1] - b[1]) for a, b in zip(got, want)),
                default=0.0)
    if worst > tol:
        return [f"sphere points differ from the oracle by {worst:.3e} > {tol:.1e}"]
    return []


def _judge_scan(call, result):
    want = call.expect["constant_dim"]
    if result["status"] == "ok" and result["constant_dim"] != want:
        return [f"confident constant_dim {result['constant_dim']}, known {want}"]
    return []


def same_bytes(first: str, again: str) -> list:
    """The ac11 property: identical calls give identical report bytes."""
    return [] if first == again else ["report bytes differ between identical calls"]


# ---------------------------------------------------------------------------
# self-check: deliberately wrong answers must be counted as failed
# ---------------------------------------------------------------------------

def self_check() -> list:
    """Problems found in the checker itself; empty when it is sound."""
    def deficiency(n_plus, n_minus, status="ok", scan_dim=None, scan_status="ok"):
        return {"command": "deficiency", "passed": status == scan_status == "ok",
                "deficiency": {"n_plus": n_plus, "n_minus": n_minus,
                               "status": status,
                               "stability": {"constant_dim": scan_dim,
                                             "status": scan_status}}}

    def outcome(report, code=0, err=""):
        return Outcome(code, json.dumps(report, sort_keys=True), err)

    call = Call("self-check deficiency", "cli", expect={"indices": [1, 0]})
    spheres = [{"re": 1.0, "im_mag": 0.0, "mult": 1},
               {"re": 2.0, "im_mag": 0.5, "mult": 2}]
    sphere_call = Call("self-check sspectrum", "cli",
                       expect={"spheres": [(1.0, 0.0), (2.0, 0.5), (2.0, 0.5)],
                               "scale": 2.0})

    def sspectrum(items):
        return {"command": "sspectrum", "spheres": items, "passed": True}

    good_text = outcome(deficiency(1, 0, scan_dim=1)).out
    cases = [
        ("right answer", call, outcome(deficiency(1, 0, scan_dim=1)), False),
        ("honest inconclusive", call,
         outcome(deficiency(0, 0, "inconclusive", 1, "inconclusive"), code=1), False),
        ("swapped indices", call, outcome(deficiency(0, 1, scan_dim=1)), True),
        ("wrong scan dim", call, outcome(deficiency(1, 0, scan_dim=0)), True),
        ("stability violation", call,
         outcome(dict(deficiency(1, 0), deficiency={
             "n_plus": 1, "n_minus": 0, "status": "ok",
             "stability": {"status": "violation", "detail": "x"}}), code=1), True),
        ("exit 2", call, Outcome(2, "", "config error: x"), True),
        ("traceback", call, Outcome(0, good_text, "Traceback (most recent call last)"), True),
        ("exit 1, no report", call, Outcome(1, "", "property failure: x"), True),
        ("escaped exception", call, Outcome(None, "", "", "ValueError: x"), True),
        ("spheres right", sphere_call, outcome(sspectrum(spheres)), False),
        ("dropped sphere", sphere_call, outcome(sspectrum(spheres[:1])), True),
        ("moved sphere", sphere_call,
         outcome(sspectrum([spheres[0], dict(spheres[1], re=2.1)])), True),
    ]
    problems = [f"{name}: judged {'failed' if judge(c, o) else 'passed'}"
                for name, c, o, should_fail in cases
                if bool(judge(c, o)) != should_fail]
    for name, o in (("report of another shape", outcome({"command": "deficiency"})),
                    ("output that is not JSON", Outcome(0, "not json"))):
        try:
            judge(call, o)
            problems.append(f"{name}: judged without complaint")
        except Unjudged:
            pass
    if not same_bytes(good_text, good_text[:-1] + " ") or same_bytes(good_text, good_text):
        problems.append("altered report bytes: byte comparison is wrong")
    return problems
