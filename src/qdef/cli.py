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
import io
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .deficiency import (PRESETS, basis_invariance_check,
                         deficiency_indices, from_config,
                         index_stability_scan)
from .errors import (ConfigError, PreconditionFailed, QdefError,
                     StabilityViolation)
from .qoperator import QOperator, real_symmetric
from .quat import Quaternion, parse_quaternion
from .rmodule import random_basis
from .spectrum import point_sspectrum
from .verify import DEFAULT_TOLERANCES, verify_banded, verify_matrix

COMMANDS = ("verify", "sspectrum", "deficiency", "invariance", "report")


@dataclass
class RunConfig:
    command: str
    preset: str | None = None
    matrix: str | None = None
    q: str | None = None
    unit: str = "i"
    seed: int = 0
    fmt: str = "json"
    out: str | None = None
    dim: int = 6
    trials: int = 50
    count: int = 20
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    declared: dict = field(default_factory=dict)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _load_tolerances(args) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    env = os.environ.get("QDEF_TOL_OVERRIDES")
    if env:
        try:
            overrides = json.loads(env)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"QDEF_TOL_OVERRIDES is not valid JSON: {exc}")
        if not isinstance(overrides, dict):
            raise ConfigError("QDEF_TOL_OVERRIDES must be a JSON object")
        for key, val in overrides.items():
            if key not in tol:
                raise ConfigError(f"unknown tolerance override {key!r}")
            try:
                tol[key] = type(tol[key])(val)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"tolerance override {key!r} is not a number: {val!r}")
    if args.N is not None:
        tol["N"] = int(args.N)
    if args.window is not None:
        tol["window"] = int(args.window)
    for key in ("N", "window"):
        if tol[key] <= 0:
            raise ConfigError(f"{key} must be positive, got {tol[key]}")
    return tol


def _load_operator(cfg: RunConfig):
    """Return ("banded", BandedOperator) or ("matrix", QOperator)."""
    if cfg.preset and cfg.matrix:
        raise ConfigError("give either --preset or --matrix, not both")
    if cfg.preset:
        maker = PRESETS.get(cfg.preset)
        if maker is None:
            raise ConfigError(
                f"unknown preset {cfg.preset!r}; choose from {sorted(PRESETS)}")
        return "banded", maker()
    if cfg.matrix:
        try:
            with open(cfg.matrix) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {cfg.matrix}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{cfg.matrix} is not valid JSON: {exc}")
        if not isinstance(obj, dict):
            raise ConfigError(f"{cfg.matrix}: expected a JSON object")
        try:
            if "bandwidth" in obj:
                return "banded", from_config(obj)
            op = QOperator.from_dict(obj)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"{cfg.matrix}: {exc}")
        cfg.declared = {k: obj[k] for k in ("hermitian",) if k in obj}
        return "matrix", op
    raise ConfigError("an operator is required: --preset NAME or --matrix PATH")


def _parse_q(cfg: RunConfig, default: Quaternion) -> Quaternion:
    if cfg.q is None:
        return default
    try:
        return parse_quaternion(cfg.q)
    except ValueError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _verify(cfg: RunConfig, kind, op):
    """verify's exit code and report, and the verified SpectrumReport of a
    matrix (None for a banded operator or an unverified sphere list)."""
    spectrum = None
    if kind == "banded":
        checks, extra = verify_banded(op, cfg.seed, cfg.tolerances)
        desc = op.description
    else:
        checks, extra, spectrum = verify_matrix(op, cfg.seed, cfg.tolerances,
                                                cfg.declared)
        desc = f"matrix dim {op.dim}"
    passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "operator": desc,
        "seed": cfg.seed,
        "tolerances": cfg.tolerances,
        "checks": checks,
        "summary": extra,
        "passed": passed,
    }
    return (0 if passed else 1), report, spectrum


def _cmd_verify(cfg: RunConfig, kind, op):
    return _verify(cfg, kind, op)[:2]


def _cmd_sspectrum(cfg: RunConfig, kind, op, spectrum=None):
    """sspectrum's report; ``spectrum`` is the matrix's verified
    SpectrumReport when the caller already holds one."""
    if kind == "banded":
        raise ConfigError("sspectrum expects a finite matrix (--matrix)")
    rep = point_sspectrum(op) if spectrum is None else spectrum
    report = {
        "command": "sspectrum",
        "operator": f"matrix dim {op.dim}",
        "seed": cfg.seed,
        "tolerances": cfg.tolerances,
        "spheres": [s.to_dict() for s in rep.spheres],
        "all_real": rep.all_real,
        "note": rep.note,
        "passed": True,
    }
    return 0, report


def _cmd_deficiency(cfg: RunConfig, kind, op):
    if kind != "banded":
        raise ConfigError("deficiency expects a banded operator "
                          "(--preset or a banded --matrix config)")
    tol = cfg.tolerances
    rep = deficiency_indices(op, cfg.unit, N=int(tol["N"]),
                             window=int(tol["window"]),
                             ratio_margin=float(tol["ratio"]))
    center = _parse_q(cfg, Quaternion(0.0, 1.0, 0.0, 0.0))
    if center.im_norm() == 0.0:
        raise ConfigError("stability scan center must be non-real")
    try:
        scan = index_stability_scan(op, center, count=cfg.count,
                                    N=int(tol["N"]), window=int(tol["window"]),
                                    seed=cfg.seed,
                                    ratio_margin=float(tol["ratio"]))
        scan_failed = scan["status"] != "ok"
    except StabilityViolation as exc:
        scan = {"status": "violation", "detail": str(exc),
                "samples": exc.discordant}
        scan_failed = True
    rep_dict = rep.to_dict()
    rep_dict["stability"] = scan
    passed = rep.status == "ok" and not scan_failed
    report = {
        "command": "deficiency",
        "operator": op.description,
        "seed": cfg.seed,
        "tolerances": cfg.tolerances,
        "deficiency": rep_dict,
        "passed": passed,
    }
    return (0 if passed else 1), report


def _cmd_invariance(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    A = real_symmetric(cfg.dim, seed=cfg.seed)
    B2 = random_basis(rng, cfg.dim)
    q = _parse_q(cfg, Quaternion(1.0, 1.0, -1.0, 0.0))
    if q.im_norm() == 0.0:
        raise ConfigError("invariance check needs a non-real q")
    disc = basis_invariance_check(A, B2, q, trials=cfg.trials, seed=cfg.seed)
    report = {
        "command": "invariance",
        "operator": f"random real symmetric dim {cfg.dim}",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "tolerances": cfg.tolerances,
        "max_discrepancy": int(disc),
        "passed": disc == 0,
    }
    return (0 if disc == 0 else 1), report


def _cmd_report(cfg: RunConfig, kind, op):
    code, bundle, spectrum = _verify(cfg, kind, op)
    parts = {"verify": bundle}
    if kind == "matrix":
        c2, rep = _cmd_sspectrum(cfg, kind, op, spectrum)
        parts["sspectrum"] = rep
    else:
        c2, rep = _cmd_deficiency(cfg, kind, op)
        parts["deficiency"] = rep
    code = max(code, c2)
    c3, rep = _cmd_invariance(cfg)
    parts["invariance"] = rep
    code = max(code, c3)
    report = {
        "command": "report",
        "seed": cfg.seed,
        "tolerances": cfg.tolerances,
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
        return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "text":
        return _render_text(report)
    raise ConfigError(f"unknown format {fmt!r}")


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    if "spheres" in report:
        buf.write("re,im_mag,multiplicity\n")
        for s in report["spheres"]:
            buf.write(f"{s['re']!r},{s['im_mag']!r},{s['mult']}\n")
        return buf.getvalue()
    if "checks" in report:
        buf.write("check,passed,residual,tolerance\n")
        for c in report["checks"]:
            buf.write(f"{c['name']},{c['passed']},{c['residual']},{c['tolerance']}\n")
        return buf.getvalue()
    buf.write("key,value\n")
    for k in sorted(report):
        if k in ("tolerances", "parts", "deficiency"):
            continue
        buf.write(f"{k},{report[k]}\n")
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
    if "max_discrepancy" in report:
        lines.append(f"  max discrepancy: {report['max_discrepancy']}")
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


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2, None
    try:
        cfg = RunConfig(
            command=args.command,
            preset=args.preset,
            matrix=args.matrix,
            q=args.q,
            unit=args.unit,
            seed=args.seed,
            fmt=args.fmt,
            out=args.out,
            dim=args.dim,
            trials=args.trials,
            count=args.count,
            tolerances=_load_tolerances(args),
        )
        for name, low in (("dim", 1), ("trials", 1), ("count", 0)):
            if getattr(cfg, name) < low:
                raise ConfigError(f"--{name} must be at least {low}, "
                                  f"got {getattr(cfg, name)}")
        # overflow shows as a failed check or a one-line error, not as warnings
        with np.errstate(all="ignore"):
            if cfg.command == "invariance":
                code, report = _cmd_invariance(cfg)
            else:
                code, report = _DISPATCH[cfg.command](cfg, *_load_operator(cfg))
        text = _render(report, cfg.fmt)
    except (ConfigError, PreconditionFailed) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2, None
    except QdefError as exc:
        sys.stderr.write(f"property failure: {exc}\n")
        return 1, None
    except (OverflowError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"property failure: {type(exc).__name__}: {exc}\n")
        return 1, None
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code, report


def main(argv=None):
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
