"""Print one digest of stdout, stderr and exit code per benchmark call.

Runs every call that ``perfbench/workloads.generate`` makes for the banded,
scan and dense workloads at seeds 1, 7 and 42, in this process, against the
qdef sources of this checkout, and prints one line per call:

    workload seed label sha256(exit, stdout, stderr)

Then it writes finite matrices with repeated and defective spheres, and
runs ``verify`` and ``sspectrum`` on each, one line per call:

    spheres matrix command sha256(exit, stdout, stderr)

The matrices are diag(1+2i, 1+2i), diag(1+2i, 1+2j), diag(1+2i, 1-2k, 3)
and diag(q, u q u*, q), for q = 1+2i+0.5j-k and u a unit quaternion drawn
with seed 5, each as is and rotated to U D U* (U from ``random_basis`` with
seed 5), and U J U* for J = q I + N, a Jordan block of size 2, 3 and 4.

Then it writes banded operators whose answers are known and runs one
command on each, one line per call:

    known label sha256(exit, stdout, stderr)

These are ``verify`` on the workloads' ``jacobi_config(w, 6, 1.0)`` for
w = 1 and 2, indices (w, w), and on diag(1e9 n), indices (0, 0);
``deficiency --q=0.1i`` on the zero-diagonal Jacobi operator b_n = n+1,
whose indices and scan dimension are both 0; and ``verify`` on the band
A[n, n+1] = 1, A[n+1, n] = 1 + 1e-24 (n+1)^6, symmetric to 1e-12 on the 40
rows the constructor checks and not on the 2N + 1 rows ``verify`` marches.
Then ``deficiency`` on the preset ``jacobi_sq`` at the centre ``--q=0.6i+0.8j``,
which shares the slice number i with +-i and the scan's unit directions; on
the preset ``free_jacobi``, whose six fixed shifts are one problem; and on
``jacobi_sq`` with an ``offset_2`` beyond its bandwidth 1, a config error.
Last ``deficiency`` on two bands whose entries hold imaginary parts below
the 1e-12 that ``real_entries`` allows, so that they march as quaternions,
not on the slice: free Jacobi with off-diagonals 1 +- 1e-13j, bounded, so
(0, 0), and ``jacobi_sq`` with off-diagonals (n+1)^2 (1 +- 5e-16j), gauge
equivalent to ``jacobi_sq``, so (1, 1) (Berezanskii).

After those lines it runs each demo as ``python -W error demos/NN_*.py`` in a
subprocess, on this checkout's ``src``, and prints one line per demo:

    demo file sha256(exit, stdout, stderr)

That makes 273 workload calls, 22 sphere calls, 10 known-answer calls and one
line per demo: 311 lines.

A CLI call is run through ``qdef.cli.run``; a scan call through
``index_stability_scan``, with its result as JSON on stdout, exit 0, or the
exception's last line on stderr and exit null.  Inputs are written under
``.perfbench_work/digests/`` (git-ignored) and that path reads as
``<workdir>`` in every digest, and the checkout's root reads as ``<root>`` in
a demo's output, so two checkouts compare line for line:

    python tools/output_digests.py > change.txt

No options; the workloads module is only imported, never changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench_work", "digests")
RUNS = [("banded", 1), ("banded", 7), ("banded", 42),
        ("scan", 1), ("scan", 7), ("scan", 42),
        ("dense", 1), ("dense", 7), ("dense", 42)]

sys.path.insert(0, os.path.join(ROOT, "src"))
import numpy as np  # noqa: E402
import qdef.cli  # noqa: E402
import qdef.deficiency  # noqa: E402
import qdef.quat  # noqa: E402
from qdef.qoperator import QOperator  # noqa: E402
from qdef.quat import Quaternion, random_quaternion  # noqa: E402
from qdef.rmodule import random_basis  # noqa: E402


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _last_line(exc) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, _ = qdef.cli.run(list(argv))
        except Exception as exc:    # an escaped exception is an output too
            code = None
            sys.stderr.write(_last_line(exc))
    return code, out.getvalue(), err.getvalue()


def _scan(spec):
    try:
        with open(spec["operator"]) as fh:
            op = qdef.deficiency.from_config(json.load(fh))
        result = qdef.deficiency.index_stability_scan(
            op, qdef.quat.parse_quaternion(spec["center"]), count=spec["count"],
            N=spec["N"], seed=spec["seed"])
    except Exception as exc:
        return None, "", _last_line(exc)
    return 0, json.dumps(result, sort_keys=True), ""


def _digest(code, out, err, path, mark):
    """sha256 of (exit, stdout, stderr), with ``path`` read as ``mark``."""
    blob = json.dumps([code] + [s.replace(path, mark) for s in (out, err)])
    return hashlib.sha256(blob.encode()).hexdigest()


def _diagonal(entries):
    arr = np.zeros((len(entries), len(entries), 4))
    for n, q in enumerate(entries):
        arr[n, n] = q.to_array()
    return QOperator.from_entries(arr)


def _rotated(A):
    U = QOperator.from_entries(random_basis(np.random.default_rng(5), A.dim)
                               .matrix.transpose(1, 0, 2))
    return U @ A @ U.adjoint()


def _sphere_matrices():
    """(name, QOperator) of the repeated- and defective-sphere matrices."""
    q = Quaternion(1.0, 2.0, 0.5, -1.0)
    u = random_quaternion(np.random.default_rng(5))
    u = u / u.norm()
    diagonals = {"1+2i,1+2i": [Quaternion(1, 2), Quaternion(1, 2)],
                 "1+2i,1+2j": [Quaternion(1, 2), Quaternion(1, 0, 2)],
                 "1+2i,1-2k,3": [Quaternion(1, 2), Quaternion(1, 0, 0, -2),
                                 Quaternion(3)],
                 "q,uqu*,q": [q, u * q * u.conjugate(), q]}
    for name, entries in diagonals.items():
        yield f"diag({name})", _diagonal(entries)
        yield f"rotated({name})", _rotated(_diagonal(entries))
    for k in (2, 3, 4):
        J = _diagonal([q] * k)
        J.entries[np.arange(k - 1), np.arange(1, k), 0] = 1.0
        yield f"jordan{k}", _rotated(J)


def _known_inputs(workloads):
    """(label, banded config or None, argv before --matrix) of the
    known-answer calls; a call with no config names a preset."""
    for w in (1, 2):
        yield f"verify jacobi w={w} p=6", workloads.jacobi_config(w, 6, 1.0), ["verify"]
    yield "verify diag 1e9n", workloads.diagonal_config([0.0, 1e9]), ["verify"]
    yield ("deficiency b=n+1 q=0.1i",
           {"bandwidth": 1, "coeff": {"offset_1": [1, 1], "offset_-1": [0, 1],
                                      "offset_0": [0]}},
           ["deficiency", "--q=0.1i"])
    yield ("verify band_symmetry",
           {"bandwidth": 1, "coeff": {"offset_1": [1.0], "offset_0": [0],
                                      "offset_-1": [1.0, 0, 0, 0, 0, 0, 1e-24]}},
           ["verify"])
    yield ("deficiency jacobi_sq q=0.6i+0.8j", None,
           ["deficiency", "--preset", "jacobi_sq", "--q=0.6i+0.8j"])
    yield "deficiency free_jacobi", None, ["deficiency", "--preset", "free_jacobi"]
    yield ("deficiency jacobi_sq offset_2",
           {"bandwidth": 1, "coeff": {"offset_1": [1, 2, 1], "offset_-1": [0, 0, 1],
                                      "offset_0": [0], "offset_2": [5.0]}},
           ["deficiency"])
    yield ("deficiency free_jacobi 1e-13j",
           {"bandwidth": 1, "coeff": {"offset_1": ["1+1e-13j"], "offset_-1": ["1-1e-13j"],
                                      "offset_0": [0]}},
           ["deficiency"])
    yield ("deficiency jacobi_sq 5e-16j",
           {"bandwidth": 1, "coeff": {"offset_1": ["1+5e-16j", "2+1e-15j", "1+5e-16j"],
                                      "offset_-1": [0, 0, "1-5e-16j"], "offset_0": [0]}},
           ["deficiency"])


def _demos():
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    for name in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if name.endswith(".py"):
            done = subprocess.run([sys.executable, "-W", "error", os.path.join("demos", name)],
                                  cwd=ROOT, env=env, capture_output=True, text=True)
            yield name, done.returncode, done.stdout, done.stderr


def main():
    workloads = _workloads()
    for name, seed in RUNS:
        workdir = os.path.join(WORKDIR, f"{name}-{seed}")
        for call in workloads.generate(name, seed, workdir):
            code, out, err = _scan(call.scan) if call.kind == "scan" else _cli(call.argv)
            print(name, seed, call.label, _digest(code, out, err, WORKDIR, "<workdir>"),
                  flush=True)
    workdir = os.path.join(WORKDIR, "spheres")
    os.makedirs(workdir, exist_ok=True)
    for at, (name, A) in enumerate(_sphere_matrices()):
        path = os.path.join(workdir, f"matrix{at}.json")
        with open(path, "w") as fh:
            fh.write(A.to_json())
        for command in ("verify", "sspectrum"):
            code, out, err = _cli([command, "--matrix", path])
            print("spheres", name, command, _digest(code, out, err, WORKDIR, "<workdir>"),
                  flush=True)
    workdir = os.path.join(WORKDIR, "known")
    os.makedirs(workdir, exist_ok=True)
    for at, (label, config, argv) in enumerate(_known_inputs(workloads)):
        if config is not None:
            path = os.path.join(workdir, f"band{at}.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv = argv + ["--matrix", path]
        code, out, err = _cli(argv)
        print("known", label, _digest(code, out, err, WORKDIR, "<workdir>"), flush=True)
    for name, code, out, err in _demos():
        print("demo", name, _digest(code, out, err, ROOT, "<root>"), flush=True)


if __name__ == "__main__":
    main()
