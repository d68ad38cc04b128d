"""Per-layer spans and counters, recorded from outside the program.

Every public module-level function of the layer modules is wrapped, in its
home module and under every name another qdef module bound it to with
``from .x import y``.  So are the public methods, properties and arithmetic
dunders of the classes each layer module defines, under that module's layer
name: ``Quaternion.__mul__`` is booked to ``quat`` whoever calls it.  A
method called from inside a span of its own layer gets no span of its own,
since it cannot move time between layers (``BandedOperator.coeff_tuple``
inside the recurrence march is called millions of times).  Each other
call becomes a span (name, start, end, parent) kept in memory in flat
arrays; self time is a span's duration minus the part its child spans
cover.  Counters are taken at the same boundaries.  The embed layer's SVDs
are counted through a stand-in for its ``np`` name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("quat", "rmodule", "qoperator", "embed", "spectrum", "deficiency",
          "verify", "cli")
BENCH = len(LAYERS)     # layer index of the benchmark's own spans
ROOT = "bench.pass"
# Dunders that do a layer's arithmetic or application work.
DUNDERS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                     "__matmul__", "__call__"})

# Inclusive times and call counts reported per function, as the issue lists.
TIMED = ("deficiency.formal_solutions", "deficiency.classify_solution",
         "deficiency.deficiency_indices", "deficiency.index_stability_scan",
         "deficiency.von_neumann_evidence", "deficiency.basis_invariance_check",
         "rmodule.gram_schmidt", "spectrum.point_sspectrum",
         "spectrum.resolvent_bound_check", "qoperator.criteria_report",
         "qoperator.norm_identity_check", "verify.verify_banded",
         "verify.verify_matrix")
COUNTED = ("deficiency.formal_solutions", "deficiency.classify_solution",
           "rmodule.gram_schmidt", "rmodule.inner", "quat.qmul", "quat.qmatmul",
           "embed.kernel_q", "embed.rank_q", "embed.eigenvalues_c",
           "spectrum.point_sspectrum", "qoperator.symmetry_predicates")


def _rows_marched(counters, args, kwargs, result):
    N = kwargs["N"] if "N" in kwargs else args[2]
    counters["deficiency.rows_marched"] += len(result) * (int(N) + 1)


def _classified(counters, args, kwargs, result):
    op, sol = args[0], args[1]
    counters["deficiency.inconclusive"] += result.verdict == "inconclusive"
    # the backward check runs only on square-summable candidates (w >= 1)
    if op.bandwidth >= 1 and sol.backward_check in ("ok", "discrepancy", "skipped"):
        counters["deficiency.candidates"] += 1
        counters["deficiency.backward_skipped"] += sol.backward_check == "skipped"


def _spheres(counters, args, kwargs, result):
    verify = args[1] if len(args) > 1 else kwargs.get("verify_kernels", True)
    if verify:
        counters["spectrum.spheres_verified"] += len(result.spheres)


HOOKS = {"deficiency.formal_solutions": _rows_marched,
         "deficiency.classify_solution": _classified,
         "spectrum.point_sspectrum": _spheres}


class _CountingLinalg:
    def __init__(self, counters):
        self._counters = counters

    def __getattr__(self, name):
        return getattr(np.linalg, name)

    def svd(self, a, *args, **kwargs):
        rows, cols = np.shape(a)[-2:]
        self._counters["embed.svd_calls"] += 1
        self._counters["embed.svd_work"] += rows * cols * min(rows, cols)
        return np.linalg.svd(a, *args, **kwargs)


class _NumpyWithCountingLinalg:
    def __init__(self, counters):
        self.linalg = _CountingLinalg(counters)

    def __getattr__(self, name):
        return getattr(np, name)


def _public(attr: str) -> bool:
    return not attr.startswith("_") or attr in DUNDERS


class Tracer:
    """Installs span-recording wrappers into the qdef modules and removes them."""

    def __init__(self):
        self.names = []                 # span name table; ids index it
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")        # index of the enclosing span, or -1
        self.counters = Counter()
        self._stack = []        # open spans
        self._layers = []       # layer index of each open span
        self._undo = []

    def _id(self, name) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        self._layers.append(BENCH)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._layers.pop()

    def _wrap(self, name, fn, method=False):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator; a span would not cover its work")
        nid = self._id(name)
        layer = LAYERS.index(name.split(".")[0])
        ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack, layers, counters = self._stack, self._layers, self.counters
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if method and layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            layers.append(layer)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                layers.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result
        return traced

    def _wrap_class(self, layer, cls):
        """Wrap the public methods, properties and arithmetic dunders of ``cls``."""
        done = {}
        for attr, obj in list(vars(cls).items()):
            if not _public(attr):
                continue
            if isinstance(obj, (staticmethod, classmethod)):
                new = type(obj)(self._wrap(f"{layer}.{cls.__name__}.{attr}", obj.__func__,
                                           method=True))
            elif isinstance(obj, property) and obj.fget is not None:
                new = property(self._wrap(f"{layer}.{cls.__name__}.{attr}", obj.fget,
                                          method=True),
                               obj.fset, obj.fdel, obj.__doc__)
            elif inspect.isfunction(obj):
                # an alias such as ``__call__ = apply`` shares one wrapper
                if id(obj) not in done:
                    done[id(obj)] = self._wrap(f"{layer}.{cls.__name__}.{attr}", obj,
                                                method=True)
                new = done[id(obj)]
            else:
                continue
            self._undo.append((cls, attr, obj))
            setattr(cls, attr, new)

    def install(self):
        modules = [importlib.import_module("qdef")]
        modules += [importlib.import_module(f"qdef.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        embed = modules[1 + LAYERS.index("embed")]
        self._undo.append((embed, "np", embed.np))
        embed.np = _NumpyWithCountingLinalg(self.counters)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    @contextlib.contextmanager
    def root(self):
        """One traced pass: a root span that owns every span inside it."""
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)

    def write(self, path):
        """Spans as flat arrays (``name_id`` indexes ``names``) in one .npz file."""
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent))

    def _arrays(self):
        ids = np.array(self.name_id, dtype=np.int64)
        start, end = np.array(self.start), np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        return ids, start, end, parent

    def self_times(self):
        """Duration minus child coverage, per span."""
        ids, start, end, parent = self._arrays()
        dur = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        return dur - child

    def closure_problems(self, pass_walls) -> list:
        """Ways the spans fail to account for the traced passes; empty if sound.

        Every span must be closed and lie inside its parent, sibling spans
        must not overlap (no negative self time), and the root spans must
        agree with the pass wall times taken by the runner's own clock.
        """
        ids, start, end, parent = self._arrays()
        problems = []
        slack = 1e-7
        if np.any(end < start):
            problems.append(f"{int(np.sum(end < start))} spans never closed")
        inner = np.nonzero(parent >= 0)[0]
        p = parent[inner]
        outside = (start[inner] < start[p] - slack) | (end[inner] > end[p] + slack)
        if np.any(outside):
            problems.append(f"{int(np.sum(outside))} spans lie outside their parent")
        if np.any(self.self_times() < -1e-6):
            problems.append("overlapping sibling spans (negative self time)")
        roots = parent < 0
        if np.any(ids[roots] != self._ids.get(ROOT, -1)):
            problems.append("a wrapped call ran outside every traced pass")
        root_total = float(np.sum(end[roots] - start[roots]))
        wall_total = float(sum(pass_walls))
        if abs(root_total - wall_total) > 1e-3 * len(pass_walls) + 1e-3 * wall_total:
            problems.append(f"traced passes cover {root_total:.6f} s but the runner "
                            f"timed {wall_total:.6f} s")
        return problems

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass layer metrics from the recorded spans and counters."""
        ids, start, end, parent = self._arrays()
        self_s = self.self_times()
        layer_of = np.array([(LAYERS + ("bench",)).index(n.split(".")[0])
                             for n in self.names], dtype=np.int64)
        by_layer = np.bincount(layer_of[ids], weights=self_s,
                               minlength=len(LAYERS) + 1)
        calls = np.bincount(ids, minlength=len(self.names))

        def count(name):
            return int(calls[self._ids[name]]) if name in self._ids else 0

        def inclusive(name):
            """Time of the outermost calls of ``name`` (recursion not counted twice)."""
            if name not in self._ids:
                return 0.0
            nid, total = self._ids[name], 0.0
            for i in np.nonzero(ids == nid)[0]:
                a = parent[i]
                while a >= 0 and ids[a] != nid:
                    a = parent[a]
                if a < 0:
                    total += end[i] - start[i]
            return float(total)

        c = self.counters
        out = {}
        for k, layer in enumerate(LAYERS + ("bench",)):
            out[f"{layer}.self_s"] = float(by_layer[k]) / passes
        for name in TIMED:
            out[f"{name}_s"] = inclusive(name) / passes
        for name in COUNTED:
            out[f"{name}.calls"] = count(name) / passes
        out["deficiency.rows_marched"] = c["deficiency.rows_marched"] / passes
        fs = inclusive("deficiency.formal_solutions")
        out["deficiency.rows_per_s"] = c["deficiency.rows_marched"] / fs if fs else 0.0
        n_cls = count("deficiency.classify_solution")
        out["deficiency.inconclusive_ratio"] = (c["deficiency.inconclusive"] / n_cls
                                                if n_cls else 0.0)
        cand = c["deficiency.candidates"]
        out["deficiency.backward_skipped_ratio"] = (c["deficiency.backward_skipped"]
                                                    / cand if cand else 0.0)
        out["embed.svd_calls"] = c["embed.svd_calls"] / passes
        out["embed.svd_work"] = c["embed.svd_work"] / passes
        out["spectrum.spheres_verified"] = c["spectrum.spheres_verified"] / passes
        out["trace.wall_s"] = inclusive(ROOT) / passes
        out["trace.spans"] = len(ids) / passes
        return out


def unit(name: str) -> str:
    """Unit of a metric produced by this module."""
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("rows_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def import_times(lines) -> dict:
    """qdef and scipy import seconds from ``python -X importtime`` stderr lines."""
    entries = []
    for line in lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((name.strip(), depth, int(cumulative) * 1e-6))

    def outermost(prefix):
        hits = [(d, s) for n, d, s in entries
                if n == prefix or n.startswith(prefix + ".")]
        top = min((d for d, _ in hits), default=0)
        return sum(s for d, s in hits if d == top)
    return {"import.qdef_s": outermost("qdef"), "import.scipy_s": outermost("scipy")}
