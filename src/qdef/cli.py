"""Command-line harness: load an operator, run a suite, emit a report.

Commands
--------
verify      run the full invariant suite on the operator
sspectrum   eigensphere report of a finite matrix
deficiency  deficiency indices with a stability scan (banded operators)
invariance  defect-dimension invariance under a basis change
report      bundle of everything applicable to the operator

Exit status: 0 all checks pass, 1 any property failure, 2 configuration
error.  Reports are JSON (sorted keys) by default; with equal configuration
two runs produce byte-identical output.  The environment variable
QDEF_TOL_OVERRIDES may hold a JSON object overriding tolerance entries
(atol, rank_tol, ratio, window, N) for experiments.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .deficiency import (PRESETS, _indices_and_scan, _scan_shifts, _unit_shifts,
                         basis_invariance_check, from_config)
from .errors import ConfigError, PreconditionFailed, QdefError
from .qoperator import QOperator, real_symmetric
from .quat import Quaternion, parse_quaternion
from .rmodule import random_basis
from .spectrum import point_sspectrum
from .tolerances import Tolerances
from .verify import verify_banded, verify_matrix

COMMANDS = ("verify", "sspectrum", "deficiency", "invariance", "report")


def _json_scalar(obj):
    """``json.dumps`` hook: a numpy scalar as the Python value it holds
    (np.float64 is a float already and never gets here)."""
    for kind, cast in ((np.bool_, bool), (np.integer, int), (np.floating, float)):
        if isinstance(obj, kind):
            return cast(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _unique_keys(pairs):
    """json.load's object hook: a dict, or ValueError naming a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"{key} is repeated")
        obj[key] = value
    return obj


def _load_operator(args):
    """Return (kind, operator, declared): "banded" and a BandedOperator, or
    "matrix", a QOperator and the properties its file declares ("hermitian")."""
    if args.preset and args.matrix:
        raise ConfigError("give either --preset or --matrix, not both")
    if args.preset:
        maker = PRESETS.get(args.preset)
        if maker is None:
            raise ConfigError(
                f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
        return "banded", maker(), {}
    if args.matrix:
        try:
            with open(args.matrix, encoding="utf-8") as fh:   # JSON is UTF-8
                obj = json.load(fh, object_pairs_hook=_unique_keys)
            if not isinstance(obj, dict):
                raise ValueError("expected a JSON object")
            if "bandwidth" in obj:
                return "banded", from_config(obj), {}
            op = QOperator.from_dict(obj)
            if not isinstance(obj.get("hermitian", False), bool):
                raise ValueError(f"hermitian must be true or false, got {obj['hermitian']!r}")
        except OSError as exc:
            raise ConfigError(f"cannot read {args.matrix}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.matrix} is not valid JSON: {exc}")
        except KeyError as exc:
            raise ConfigError(f"{args.matrix}: {exc.args[0]} is missing")
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{args.matrix}: {exc}")
        return "matrix", op, {k: obj[k] for k in ("hermitian",) if k in obj}
    raise ConfigError("an operator is required: --preset NAME or --matrix PATH")


def _parse_q(args, default: Quaternion) -> Quaternion:
    if args.q is None:
        return default
    try:
        q = parse_quaternion(args.q)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not np.all(np.isfinite(q.to_array())):
        raise ConfigError(f"--q {args.q!r} has a non-finite component")
    return q


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _verify(args, tol: Tolerances, kind, op, declared):
    """verify's exit code and report, and the verified SpectrumReport of a
    matrix (None for a banded operator or an unverified sphere list)."""
    spectrum = None
    if kind == "banded":
        checks, extra = verify_banded(op, args.seed, tol)
        desc = op.description
    else:
        checks, extra, spectrum = verify_matrix(op, args.seed, tol, declared)
        desc = f"matrix dim {op.dim}"
    passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "operator": desc,
        "seed": args.seed,
        "tolerances": asdict(tol),
        "checks": checks,
        "summary": extra,
        "passed": passed,
    }
    return (0 if passed else 1), report, spectrum


def _cmd_verify(args, tol: Tolerances, kind, op, declared):
    return _verify(args, tol, kind, op, declared)[:2]


def _cmd_sspectrum(args, tol: Tolerances, kind, op, declared, spectrum=None):
    """sspectrum's report; ``spectrum`` is the matrix's verified
    SpectrumReport when the caller already holds one."""
    if kind == "banded":
        raise ConfigError("sspectrum expects a finite matrix (--matrix)")
    rep = point_sspectrum(op, rank_tol=tol.rank_tol) if spectrum is None else spectrum
    report = {
        "command": "sspectrum",
        "operator": f"matrix dim {op.dim}",
        "seed": args.seed,
        "tolerances": asdict(tol),
        "spheres": [s.to_dict() for s in rep.spheres],
        "all_real": rep.all_real,
        "note": rep.note,
        "passed": True,
    }
    return 0, report


def _deficiency_setup(args, kind, op):
    """The deficiency command's checks before it marches, the indices first,
    then the scan: the scan's shifts."""
    if kind != "banded":
        raise ConfigError("deficiency expects a banded operator "
                          "(--preset or a banded --matrix config)")
    _unit_shifts(op, args.unit)
    center = _parse_q(args, Quaternion(0.0, 1.0, 0.0, 0.0))
    return _scan_shifts(op, center, args.count, args.seed)


def _deficiency(args, tol: Tolerances, op, scan_shifts):
    """deficiency's exit code and report, after ``_deficiency_setup``."""
    rep, scan = _indices_and_scan(op, args.unit, scan_shifts, tol.N, tol.window,
                                  args.seed, tol.ratio)
    rep_dict = rep.to_dict()
    rep_dict["stability"] = scan
    passed = rep.status == "ok" and scan["status"] == "ok"
    report = {
        "command": "deficiency",
        "operator": op.description,
        "seed": args.seed,
        "tolerances": asdict(tol),
        "deficiency": rep_dict,
        "passed": passed,
    }
    return (0 if passed else 1), report


def _cmd_deficiency(args, tol: Tolerances, kind, op, declared):
    return _deficiency(args, tol, op, _deficiency_setup(args, kind, op))


def _cmd_invariance(args, tol: Tolerances):
    rng = np.random.default_rng(args.seed)
    A = real_symmetric(args.dim, seed=args.seed)
    B2 = random_basis(rng, args.dim)
    q = _parse_q(args, Quaternion(1.0, 1.0, -1.0, 0.0))
    if q.im_norm() == 0.0:
        raise ConfigError("invariance check needs a non-real q")
    disc = basis_invariance_check(A, B2, q, trials=args.trials, seed=args.seed,
                                  rank_tol=tol.rank_tol)
    report = {
        "command": "invariance",
        "operator": f"random real symmetric dim {args.dim}",
        "seed": args.seed,
        "trials": args.trials,
        "tolerances": asdict(tol),
        "max_discrepancy": int(disc),
        "passed": disc == 0,
    }
    return (0 if disc == 0 else 1), report


def _cmd_report(args, tol: Tolerances, kind, op, declared):
    # the deficiency part is set up before verify marches, so that its set-up
    # errors come before any error of a march
    scan_shifts = _deficiency_setup(args, kind, op) if kind == "banded" else None
    code, bundle, spectrum = _verify(args, tol, kind, op, declared)
    parts = {"verify": bundle}
    if kind == "matrix":
        c2, rep = _cmd_sspectrum(args, tol, kind, op, declared, spectrum)
        parts["sspectrum"] = rep
    else:
        c2, rep = _deficiency(args, tol, op, scan_shifts)
        parts["deficiency"] = rep
    code = max(code, c2)
    c3, rep = _cmd_invariance(args, tol)
    parts["invariance"] = rep
    code = max(code, c3)
    report = {
        "command": "report",
        "seed": args.seed,
        "tolerances": asdict(tol),
        "parts": parts,
        "passed": code == 0,
    }
    return code, report


_DISPATCH = {
    "verify": _cmd_verify,
    "sspectrum": _cmd_sspectrum,
    "deficiency": _cmd_deficiency,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, default=_json_scalar) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "text":
        return _render_text(report)
    raise ConfigError(f"unknown format {fmt!r}")


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    rows = csv.writer(buf, lineterminator="\n")   # quotes a cell with a comma
    if "spheres" in report:
        rows.writerow(("re", "im_mag", "multiplicity"))
        for s in report["spheres"]:
            rows.writerow((repr(s["re"]), repr(s["im_mag"]), str(s["mult"])))
        return buf.getvalue()
    if "checks" in report:
        rows.writerow(("check", "passed", "residual", "tolerance"))
        for c in report["checks"]:
            rows.writerow((c["name"], str(c["passed"]), str(c["residual"]),
                           str(c["tolerance"])))
        return buf.getvalue()
    rows.writerow(("key", "value"))
    for k in sorted(report):
        if k in ("tolerances", "parts", "deficiency"):
            continue
        rows.writerow((k, str(report[k])))
    if "deficiency" in report:
        d = report["deficiency"]
        for k in ("n_plus", "n_minus", "status", "self_adjoint"):
            rows.writerow((k, str(d[k])))
        for k in ("status", "constant_dim"):
            rows.writerow((f"scan_{k}", str(d["stability"].get(k))))
    for name, part in report.get("parts", {}).items():
        buf.write("\n")
        rows.writerow(("part", name))
        buf.write(_render_csv(part))
    return buf.getvalue()


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}", f"passed: {report['passed']}"]
    if "checks" in report:
        for c in report["checks"]:
            mark = "ok " if c["passed"] else "FAIL"
            res = "" if c["residual"] is None else f"  residual={c['residual']:.3e}"
            lines.append(f"  [{mark}] {c['name']}{res}")
    if "spheres" in report:
        for s in report["spheres"]:
            lines.append(f"  sphere re={s['re']:+.6g} im={s['im_mag']:.6g} "
                         f"mult={s['mult']}")
    if "deficiency" in report:
        d = report["deficiency"]
        lines.append(f"  indices: ({d['n_plus']}, {d['n_minus']})  "
                     f"status={d['status']}  self_adjoint={d['self_adjoint']}")
        lines.append(f"  scan: status={d['stability']['status']}  "
                     f"constant_dim={d['stability'].get('constant_dim')}")
    if "max_discrepancy" in report:
        lines.append(f"  max discrepancy: {report['max_discrepancy']}")
    for name, part in report.get("parts", {}).items():
        lines.append(f"{name}:")
        lines += ["  " + line for line in _render_text(part).splitlines()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdef",
        description="Verification harness for right quaternionic operator suites.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--preset", help=f"operator preset: {sorted(PRESETS)}")
    parser.add_argument("--matrix", help="path to an operator JSON file")
    parser.add_argument("--q", help="quaternion literal, e.g. '1-2i+0.5k'")
    parser.add_argument("--unit", choices=("i", "j", "k"), default="i")
    parser.add_argument("--N", type=int, default=None,
                        help="truncation length for banded solves")
    parser.add_argument("--window", type=int, default=None,
                        help="block size for summability fits")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json", dest="fmt")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--dim", type=int, default=6,
                        help="dimension for generated operators (invariance)")
    parser.add_argument("--trials", type=int, default=50,
                        help="trial count for the invariance command")
    parser.add_argument("--count", type=int, default=20,
                        help="sample count for the stability scan")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """This process's parser: parsing leaves an ArgumentParser unchanged."""
    return build_parser()


def run(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit:
        return 2, None
    try:
        tol = Tolerances.load(os.environ.get("QDEF_TOL_OVERRIDES"),
                              args.N, args.window)
        for name, low in (("dim", 1), ("trials", 1), ("count", 0), ("seed", 0)):
            if getattr(args, name) < low:
                raise ConfigError(f"--{name} must be at least {low}, "
                                  f"got {getattr(args, name)}")
        # overflow shows as a failed check or a one-line error, not as warnings
        with np.errstate(all="ignore"):
            if args.command == "invariance":
                code, report = _cmd_invariance(args, tol)
            else:
                code, report = _DISPATCH[args.command](args, tol,
                                                       *_load_operator(args))
        text = _render(report, args.fmt)
    except (ConfigError, PreconditionFailed) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2, None
    except QdefError as exc:
        sys.stderr.write(f"property failure: {exc}\n")
        return 1, None
    except (OverflowError, MemoryError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"property failure: {type(exc).__name__}: {exc}\n")
        return 1, None
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"config error: cannot write {args.out}: {exc}\n")
            return 2, None
    else:
        sys.stdout.write(text)
    return code, report


def main(argv=None):
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
