"""qdef benchmark: closed-loop verdict timings on the banded, dense and scan workloads.

One client in one process makes the calls one after another, in-process,
through the public entry points: ``qdef.cli.run(argv)`` for the CLI
workloads and ``qdef.deficiency.index_stability_scan`` for ``scan``.  Import
is paid once and measured apart, as ``setup_s``, in fresh interpreters.
The seeded call list is run as a fixed number of passes that fill
``--seconds`` on the reference machine (at least two, so identical calls can
be compared byte for byte), and every output is judged against an answer
known without qdef (check.py).

    python3 perfbench/run.py --workload banded --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --summary [--seed 1] [--seconds 24] [--write-baseline]
    python3 perfbench/run.py --self-check

The host's other tenants slow a core by up to a half for stretches of
seconds to minutes, which moves the wall times of a run alike.  So a fixed
kernel of this benchmark's own (``kernel``) is timed before each set-up
interpreter and, from a timer signal, every PROBE_EVERY_S while the calls
run (``SpeedProbe``; its time is taken out of the call times).  Each timing
is the measured wall time multiplied by the reference machine's mean kernel
time and divided by the mean kernel time around it: over the set-up phase,
or over the probes within max(its duration, SCALE_WINDOW_S) of the call or
pass.  So timings are seconds at the reference machine's speed.
The kernel never touches qdef, so a change to the program moves the scaled
times in full.  The unscaled times are printed beside them.

With ``--trace 1`` untraced and traced passes alternate; the traced ones give
the per-layer metrics (layers.py, unscaled) and the pair gives
``trace.overhead_ratio``.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  ``correct`` says that the checker passed its
self-check, that it could read every output and, when tracing, that the
spans are well nested and cover the traced passes; calls judged wrong are
counted in ``failed`` and ``failed_share``.
"""

import os

# BLAS threads are pinned before numpy loads, here and in every interpreter
# this script starts.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
from importlib import metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

SETUP_INTERPRETERS = 9
# Kernel runs before each set-up interpreter, the wall time between two
# probes while calls run, and the mean kernel time on the reference machine
# of baseline.json.
SETUP_KERNELS = 3
PROBE_EVERY_S = 0.4
KERNEL_REFERENCE_S = 0.0085
# A call or pass is scaled by the probes within max(its duration, this) of
# wall time centred on it.
SCALE_WINDOW_S = 2.0
_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((100, 100))
# Wall time of one pass over each call list on the reference machine of
# baseline.json (2 cores, one BLAS thread).
NOMINAL_PASS_SECONDS = {"banded": 9.5, "dense": 7.0, "scan": 14.0}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_import_seconds() -> float:
    """Fresh interpreter start to ``import qdef.cli`` done, in seconds."""
    code = "import qdef.cli, time; print(repr(time.perf_counter()))"
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip()) - t0


def import_breakdown() -> dict:
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qdef.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return layers.import_times(done.stderr.splitlines())


def kernel() -> float:
    """Wall time of a fixed kernel: an interpreted float loop and small SVDs.

    It mixes interpreted arithmetic and small numpy calls, as qdef's hot
    paths do, and takes about 9 ms on the reference machine.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60_000):
        acc += i * 0.5
    for _ in range(3):
        np.linalg.svd(_KERNEL_MATRIX)
    return time.perf_counter() - t0


class SpeedProbe:
    """Times ``kernel`` every PROBE_EVERY_S of wall time while calls run.

    A real-time interval timer raises SIGALRM; Python runs the handler in the
    main thread between two bytecodes of whatever call is running, so the
    samples follow the core's speed through long calls too.  ``samples``
    holds (midpoint, kernel time) pairs on the ``perf_counter`` clock;
    ``spent`` is the wall time the handler took, which the runner takes out
    of its call and pass timings.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        took = kernel()
        self.samples.append((t0 + took / 2.0, took))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def scale(self, start, end) -> float:
        """Reference over mean kernel time near [start, end] (SCALE_WINDOW_S)."""
        half = max(end - start, SCALE_WINDOW_S) / 2.0
        mid = (start + end) / 2.0
        return KERNEL_REFERENCE_S / statistics.fmean(
            took for t, took in self.samples if abs(t - mid) <= half)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def machine() -> dict:
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "absent"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS)}


def load_qdef():
    """Import qdef from this checkout's sources, refusing any other copy."""
    if not (SRC / "qdef" / "__init__.py").is_file():
        raise SystemExit(f"qdef sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdef.cli
    if not Path(qdef.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported qdef from {qdef.__file__}, not from {SRC}")
    return qdef


class Runner:
    """Makes the calls of one workload, one after another, in this process."""

    def __init__(self, qdef, calls):
        self.qdef = qdef
        self.calls = calls
        longest = {}
        for call in calls:
            if call.kind == "scan":
                path = call.scan["operator"]
                longest[path] = max(longest.get(path, 0), call.scan["N"])
        self.operators = {path: self._operator(path, N) for path, N in longest.items()}
        self.probe = SpeedProbe()

    def _operator(self, path, N):
        """Long-lived operator for scan calls, its coefficient cache filled to N.

        A rejected configuration is kept as its error message; every scan call
        on it counts as failed.
        """
        with open(path) as fh:
            cfg = json.load(fh)
        try:
            op = self.qdef.deficiency.from_config(cfg)
        except ValueError as exc:
            return f"operator rejected: {exc}"
        for n in range(N + 1):
            for d in range(-op.bandwidth, op.bandwidth + 1):
                op.coeff_tuple(n, d)
        return op

    def one(self, call) -> check.Outcome:
        """One call; its time leaves out what the speed probe took meanwhile."""
        spent = self.probe.spent
        outcome = self._scan(call.scan) if call.kind == "scan" else self._cli(call.argv)
        if outcome.seconds is not None:
            outcome.seconds -= self.probe.spent - spent
        return outcome

    def _cli(self, argv) -> check.Outcome:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, _ = self.qdef.cli.run(list(argv))
        except Exception:   # an escaped exception is a failed call, not a crash
            dt = time.perf_counter() - t0
            return check.Outcome(None, out.getvalue(), err.getvalue(),
                                 traceback.format_exc(), dt)
        return check.Outcome(code, out.getvalue(), err.getvalue(), None,
                             time.perf_counter() - t0)

    def _scan(self, spec) -> check.Outcome:
        op = self.operators[spec["operator"]]
        if isinstance(op, str):
            return check.Outcome(None, exc=op)
        center = self.qdef.quat.parse_quaternion(spec["center"])
        t0 = time.perf_counter()
        try:
            result = self.qdef.deficiency.index_stability_scan(
                op, center, count=spec["count"], N=spec["N"], seed=spec["seed"])
        except Exception:   # StabilityViolation included: judged as failed
            return check.Outcome(None, exc=traceback.format_exc(),
                                 seconds=time.perf_counter() - t0)
        dt = time.perf_counter() - t0
        return check.Outcome(0, json.dumps(result, sort_keys=True), seconds=dt)

    def run_pass(self):
        """Pass wall time, outcomes, and the (start, end) of the pass and calls."""
        spent = self.probe.spent
        outcomes, spans = [], []
        t0 = time.perf_counter()
        for call in self.calls:
            c0 = time.perf_counter()
            outcomes.append(self.one(call))
            spans.append((c0, time.perf_counter()))
        t1 = time.perf_counter()
        return t1 - t0 - (self.probe.spent - spent), outcomes, ((t0, t1), spans)


def tail(samples):
    """(value, percentile, n): highest percentile with ten samples beyond it.

    Nearest rank; with ten samples or fewer it is the largest.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def pass_count(workload, seconds) -> int:
    """Passes that fill ``seconds`` on the reference machine, at least two.

    The count depends on ``seconds`` alone, never on a measured time, so every
    run of a workload does the same work and has the same sample counts.
    """
    return max(2, round(seconds / NOMINAL_PASS_SECONDS[workload]))


def measure(workload, seed, seconds, traced) -> dict:
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    qdef = load_qdef()
    problems = check.self_check()
    kernel()   # the first run pays numpy's lazy set-up
    setup, setup_kernel = [], []
    for _ in range(SETUP_INTERPRETERS):
        setup_kernel += [kernel() for _ in range(SETUP_KERNELS)]
        setup.append(fresh_import_seconds())
    calls = workloads.generate(workload, seed, str(workdir))
    runner = Runner(qdef, calls)

    tracer = layers.Tracer() if traced else None
    walls = {False: [], True: []}
    first, attempted, failures, by_pass = {}, 0, [], []
    pass_scale, call_scale, spans = [], [], []
    for turn in range(pass_count(workload, seconds)):
        with_trace = traced and turn % 2 == 1
        if with_trace:
            tracer.install()
            try:
                with tracer.root():
                    wall, outcomes, _ = runner.run_pass()
            finally:
                tracer.uninstall()
        else:
            with runner.probe.running():
                wall, outcomes, (whole, parts) = runner.run_pass()
            pass_scale.append(runner.probe.scale(*whole))
            call_scale.append([runner.probe.scale(*part) for part in parts])
            spans.append(parts)
        walls[with_trace].append(wall)
        if not with_trace:
            by_pass.append([o.seconds for o in outcomes])
        for idx, (call, outcome) in enumerate(zip(calls, outcomes)):
            attempted += 1
            text = outcome.out if outcome.exc is None else outcome.exc
            try:
                reasons = check.judge(call, outcome)
            except check.Unjudged as exc:
                problems.append(str(exc))
                reasons = ["output could not be judged"]
            reasons += check.same_bytes(first.setdefault(idx, text), text)
            if reasons:
                failures.append((call.label, reasons))

    scale = {"setup": KERNEL_REFERENCE_S / statistics.fmean(setup_kernel),
             "passes": pass_scale, "calls": call_scale}
    raw = [t for row in by_pass for t in row if t is not None]
    unscaled = {"setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls[False]),
                "call_p50_s": statistics.median(raw), "call_tail_s": tail(raw)[0]}
    times = [t * f for row, factors in zip(by_pass, call_scale)
             for t, f in zip(row, factors) if t is not None]
    value, pct, n_times = tail(times)
    e2e = {"setup_s": unscaled["setup_s"] * scale["setup"],
           "wall_s": statistics.median(w * f for w, f in zip(walls[False], pass_scale)),
           "call_p50_s": statistics.median(times),
           "call_tail_s": value}
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["failed_share"] = len(failures) / attempted
    detail = {"workload": workload, "seed": seed, "why": workloads.WHY[workload],
              "calls_per_pass": len(calls), "passes": len(walls[False]),
              "pass_walls_s": walls[False], "timed_calls": n_times,
              "call_tail_percentile": pct, "setup_interpreters": len(setup),
              "attempted": attempted, "failed": len(failures),
              "failures": sorted({f"{label}: {'; '.join(r)}".replace(f"{ROOT}/", "")
                                  for label, r in failures}),
              "call_seconds": by_pass, "unscaled_s": unscaled, "scale": scale,
              "kernel_s": {"setup": setup_kernel, "probes": runner.probe.samples},
              "call_spans": spans,
              "machine": machine(), "checker_problems": problems}
    metrics = e2e
    if traced:
        per_layer = tracer.layer_metrics(len(walls[True]))
        per_layer.update(import_breakdown())
        traced_wall = statistics.median(walls[True])
        per_layer["trace.overhead_ratio"] = traced_wall / unscaled["wall_s"] - 1.0
        problems += tracer.closure_problems(walls[True])
        covered = sum(v for k, v in per_layer.items() if k.endswith(".self_s"))
        detail["trace_self_sum_s"] = covered
        tracer.write(workdir / "spans.npz")
        detail["traced_passes"] = len(walls[True])
        metrics = per_layer
    detail["metrics"] = metrics
    return {"metrics": metrics, "detail": detail, "attempted": attempted,
            "failed": len(failures), "correct": not problems}


def print_result(res, names, units):
    """Print every metric measured, then the JSON result line.

    The result line carries the metrics ``names`` lists; the lines before it
    also show the per-layer times of layers a workload may never reach.
    """
    d = res["detail"]
    print(f"# workload {d['workload']} seed {d['seed']}: {d['why']}")
    for failure in d["failures"]:
        print(f"# failed: {failure}")
    for problem in d["checker_problems"]:
        print(f"# benchmark problem: {problem}")
    notes = {"setup_s": f"n={d['setup_interpreters']} interpreters",
             "wall_s": f"n={d['passes']} passes",
             "call_p50_s": f"n={d['timed_calls']} calls",
             "call_tail_s": f"p{d['call_tail_percentile']:.1f} of n={d['timed_calls']} calls",
             "failed_share": f"{d['failed']} of {d['attempted']} calls"}
    for name, t in d["unscaled_s"].items():
        scale, runs = d["scale"]["setup"], d["kernel_s"]["setup"]
        if name != "setup_s":
            scale, runs = statistics.fmean(d["scale"]["passes"]), d["kernel_s"]["probes"]
        notes[name] += f", scaled x{scale:.4f} from {t:.6g} s (n={len(runs)} kernel runs)"
    if "traced_passes" in d:
        notes = dict.fromkeys(res["metrics"], f"per traced pass, n={d['traced_passes']}")
    for name, value in res["metrics"].items():
        unit = units.get(name) or layers.unit(name)
        print(f"{name:42s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print("# detail " + json.dumps(d, sort_keys=True))
    out = {"correct": res["correct"], "attempted": res["attempted"],
           "failed": res["failed"],
           "metrics": {n: {"value": res["metrics"][n], "unit": units[n]} for n in names}}
    print(json.dumps(out))


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def summary(seed, seconds, write_baseline):
    """Run every workload, untraced and traced, and print all metrics."""
    bench = spec()
    baseline = {"seed": seed, "seconds": seconds, "workloads": {}}
    for wl in bench["workloads"]:
        name = wl["name"]
        baseline["workloads"][name] = {"why": wl["why"]}
        for traced in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            sys.stdout.writelines(line for line in done.stdout.splitlines(keepends=True)
                                  if not line.startswith("# detail "))
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                raise SystemExit(f"{name} trace={traced} exited {done.returncode}")
            lines = done.stdout.splitlines()
            detail = json.loads(next(line for line in lines
                                     if line.startswith("# detail "))[len("# detail "):])
            result = json.loads(lines[-1])
            entry = baseline["workloads"][name]
            entry["per_layer" if traced else "end_to_end"] = detail["metrics"]
            entry.setdefault("runs", []).append({
                "trace": traced, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "passes": detail["passes"], "timed_calls": detail["timed_calls"],
                "call_tail_percentile": detail["call_tail_percentile"],
                "failures": detail["failures"]})
            baseline["machine"] = detail["machine"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    baseline["machine"]["commit"] = commit
    if write_baseline:
        with open(HERE / "baseline.json", "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--write-baseline", action="store_true",
                        help="with --summary, record perfbench/baseline.json")
    parser.add_argument("--self-check", action="store_true",
                        help="feed the checker wrong answers; exit 1 if it misses one")
    args = parser.parse_args()
    if args.self_check:
        problems = check.self_check()
        for p in problems:
            print(f"self-check: {p}")
        print("self-check: " + ("FAILED" if problems else "ok"))
        return 1 if problems else 0
    if args.summary:
        summary(args.seed, args.seconds, args.write_baseline)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    bench = spec()
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(res, names, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
