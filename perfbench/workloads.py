"""Seeded inputs for the three workloads, each with an answer known without qdef.

Every call carries its expected answer:

* banded operators come from the zero-diagonal Jacobi family
  b_n = c (n+1)^p on band offset +-w (bandwidth w; w = 2 gives two decoupled
  chains) or from real diagonal polynomials.  Their deficiency indices are
  known in closed form: (0, 0) when sum 1/b_n diverges (p <= 1, Carleman's
  criterion) and (w, w) when p >= 2 (log-concave b_n with a convergent sum,
  Berezanskii's theorem; Akhiezer, The Classical Moment Problem, ch. 1).
  A real diagonal operator is self-adjoint, so its indices are (0, 0).
* finite matrices get their sphere lists from this module's own eigenvalues
  of a complex embedding built from the generated entries.

A workload is a fixed template of call slots.  The seed draws everything
inside a slot (coefficients, shifts, units, matrix entries, order), while
the slot list fixes the input sizes, so the work in one pass over the call
list hardly depends on the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WHY = {
    "banded": "CLI deficiency/verify/report on Jacobi and diagonal operators: "
              "the recurrence march, residual and summability fit do the work",
    "dense": "CLI verify/sspectrum/invariance on finite matrices, dims 4-48: "
             "the chi embedding SVDs and right-module Gram-Schmidt do the work",
    "scan": "library index_stability_scan over many shifts on long-lived "
            "operators at N 4000-8000, with no CLI, verify or render around it",
}

# |Im q| strata for shift centres: the small band is where slow power-law
# tails get misread as square-summable.
IM_SMALL = (0.1, 0.3)
IM_LARGE = (0.5, 2.0)


@dataclass
class Call:
    """One verdict request and the answer theory gives for it."""
    label: str
    kind: str                      # "cli" or "scan"
    argv: list = field(default_factory=list)
    scan: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# literals and operator configs
# ---------------------------------------------------------------------------

def literal(q) -> str:
    """Quaternion literal that parses back to exactly these four floats."""
    return "".join(("-" if x < 0 else "+") + repr(abs(float(x))) + unit
                   for x, unit in zip(q, ("", "i", "j", "k")))


def jacobi_config(w: int, p: int, c: float) -> dict:
    """Zero-diagonal band: A[n, n+w] = c (n+1)^p, A[n, n-w] = c (n-w+1)^p."""
    up = [c * math.comb(p, k) for k in range(p + 1)]
    down = [c * math.comb(p, k) * (1 - w) ** (p - k) for k in range(p + 1)]
    return {"bandwidth": w,
            "coeff": {"type": "poly", f"offset_{w}": up,
                      f"offset_{-w}": down, "offset_0": [0]},
            "real_entries": True,
            "description": f"jacobi w={w} p={p} c={c!r}"}


def jacobi_indices(w: int, p: int) -> int:
    return w if p >= 2 else 0


def diagonal_config(coeffs) -> dict:
    return {"bandwidth": 0,
            "coeff": {"type": "poly", "offset_0": [float(x) for x in coeffs]},
            "real_entries": True,
            "description": "real diagonal polynomial"}


def centre(rng, band) -> str:
    """A non-real shift with |Im q| drawn from ``band`` and a random axis."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    im = rng.uniform(*band) * axis
    return literal((rng.uniform(-0.5, 0.5), *im))


def _write(workdir, name, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------------------
# banded
# ---------------------------------------------------------------------------

# (command, family, w, p, N, |Im q| band); family "preset:<name>" or "jacobi"
# or "diag".  N spans 1000-4000; w = 2 slots sit at the low end because each
# of their solves marches two solutions.  p = 1 centres sit in the small
# |Im q| band, where its misjudgement is steady from seed to seed; at large
# |Im q| it comes and goes with the drawn coefficient.  ``deficiency`` and
# ``report`` run the stability scan at the CLI's default shift count (20
# sampled shifts plus 4 fixed ones), as real calls do.  That makes a w = 2
# deficiency call cost about 4 s, so w = 2, p = 2 is left to the verify slot
# and the pass stays short enough for three passes in a run.
BANDED_SLOTS = [
    ("deficiency", "preset:jacobi_sq", 1, 2, 1000, IM_LARGE),
    ("verify", "preset:free_jacobi", 1, 0, 1000, IM_LARGE),
    ("report", "preset:number_operator", 0, 0, 2000, IM_LARGE),
    ("deficiency", "jacobi", 1, 0, 1000, IM_LARGE),
    ("deficiency", "jacobi", 1, 1, 1000, IM_SMALL),
    ("deficiency", "jacobi", 1, 3, 2000, IM_LARGE),
    ("deficiency", "jacobi", 2, 1, 1000, IM_SMALL),
    ("deficiency", "jacobi", 2, 3, 1000, IM_LARGE),
    ("verify", "jacobi", 2, 2, 1000, IM_LARGE),
    ("verify", "diag", 0, 0, 2000, IM_LARGE),
    ("deficiency", "diag", 0, 0, 4000, IM_SMALL),
]

# Slots whose verdict flips with the coefficient c take a fixed c, so
# failed_share does not swing from seed to seed; each fixed c is one at which
# the slot fails today.  The w = 2, p = 2 verify fails "null space is not
# J-invariant" for about 70% of c on a 0.05 grid over 0.5-2, scattered.  A
# p = 3 config fails the absolute symmetry check for all but about 1% of c
# at w = 1 (none at w = 2); c = 1.3 is rejected.  The operator is still
# written afresh for every call.
FIXED_COEFF = {("verify", 2, 2): 1.1, ("deficiency", 1, 3): 1.3,
               ("deficiency", 2, 3): 1.3, ("scan", 1, 3): 1.3}

PRESET_INDICES = {"jacobi_sq": 1, "free_jacobi": 0, "number_operator": 0}


def banded(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 1])
    calls = []
    for idx, (cmd, family, w, p, N, band) in enumerate(BANDED_SLOTS):
        unit = str(rng.choice(["i", "j", "k"]))
        argv = [cmd, "--N", str(N), "--unit", unit, f"--q={centre(rng, band)}",
                "--seed", str(int(rng.integers(1000)))]
        if family.startswith("preset:"):
            name = family.split(":", 1)[1]
            argv += ["--preset", name]
            label, n = f"{cmd} {name}", PRESET_INDICES[name]
        elif family == "jacobi":
            c = FIXED_COEFF.get((cmd, w, p), float(rng.uniform(0.5, 2.0)))
            path = _write(workdir, f"op{idx:02d}.json", jacobi_config(w, p, c))
            argv += ["--matrix", path]
            label, n = f"{cmd} jacobi w={w} p={p}", jacobi_indices(w, p)
        else:
            coeffs = rng.uniform(-2.0, 2.0, size=3)
            path = _write(workdir, f"op{idx:02d}.json", diagonal_config(coeffs))
            argv += ["--matrix", path]
            label, n = f"{cmd} diagonal", 0
        if cmd == "report":
            argv += ["--dim", "6", "--trials", "10"]
        calls.append(Call(label, "cli", argv, expect={"indices": [n, n]}))
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

DENSE_KINDS = ("real_symmetric", "hermitian", "general")
DENSE_DIMS = (4, 8, 16, 24, 32, 48)
# Entry scale is an input property the checks depend on: unit-size entries,
# and entries of order 1e3-1e4, which the absolute check tolerances meet.
DENSE_SCALES = ((0.5, 2.0), (1e3, 1e4))
INVARIANCE_SLOTS = ((4, 10), (8, 10), (16, 5), (24, 3), (24, 10))


def dense_entries(rng, kind: str, n: int, scale: float) -> np.ndarray:
    if kind == "real_symmetric":
        M = rng.standard_normal((n, n))
        E = np.zeros((n, n, 4))
        E[..., 0] = (M + M.T) / 2.0
    elif kind == "hermitian":
        G = rng.standard_normal((n, n, 4))
        E = (G + G.transpose(1, 0, 2) * np.array([1.0, -1.0, -1.0, -1.0])) / 2.0
        E[np.arange(n), np.arange(n), 1:] = 0.0
    else:
        E = rng.standard_normal((n, n, 4))
    return E * scale


def embedding(E: np.ndarray) -> np.ndarray:
    """Complex 2n x 2n image of quaternion entries q = z1 + z2 j."""
    z1 = E[..., 0] + 1j * E[..., 1]
    z2 = E[..., 2] + 1j * E[..., 3]
    n = E.shape[0]
    out = np.empty((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = z1
    out[:n, n:] = z2
    out[n:, :n] = -np.conj(z2)
    out[n:, n:] = np.conj(z1)
    return out


def sphere_points(E: np.ndarray, hermitian: bool) -> list:
    """Eigensphere points (re, |im|), one per quaternionic eigenvalue, sorted.

    The 2n embedding eigenvalues come in conjugate pairs; each pair is one
    point of the spherical spectrum.
    """
    M = embedding(E)
    if hermitian:
        lam = np.linalg.eigvalsh(M)
        pts = [(float((a + b) / 2.0), 0.0) for a, b in zip(lam[0::2], lam[1::2])]
    else:
        lam = np.linalg.eigvals(M)
        pts = [(float(z.real), float(z.imag)) for z in lam if z.imag > 0]
        if len(pts) != E.shape[0]:
            raise ValueError("embedding eigenvalues are not in conjugate pairs")
    return sorted(pts)


def dense(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 2])
    calls = []
    for kind in DENSE_KINDS:
        for n in DENSE_DIMS:
            for band in DENSE_SCALES:
                scale = float(rng.uniform(*band))
                E = dense_entries(rng, kind, n, scale)
                obj = {"dim": n,
                       "entries": [literal(E[i, j]) for i in range(n)
                                   for j in range(n)]}
                if kind == "hermitian":
                    obj["hermitian"] = True
                path = _write(workdir, f"{kind}-{n}-{len(calls):03d}.json", obj)
                expect = {"spheres": sphere_points(E, kind != "general"),
                          "scale": scale * n}
                tag = f"{kind} dim={n} scale={'unit' if band[0] < 1e3 else 'large'}"
                seed_arg = str(int(rng.integers(1000)))
                calls.append(Call(f"verify {tag}", "cli",
                                  ["verify", "--matrix", path, "--seed", seed_arg],
                                  expect=expect))
                calls.append(Call(f"sspectrum {tag}", "cli",
                                  ["sspectrum", "--matrix", path], expect=expect))
    for dim, trials in INVARIANCE_SLOTS:
        calls.append(Call(f"invariance dim={dim} trials={trials}", "cli",
                          ["invariance", "--dim", str(dim), "--trials", str(trials),
                           "--seed", str(int(rng.integers(10 ** 6))),
                           f"--q={centre(rng, IM_LARGE)}"],
                          expect={"max_discrepancy": 0}))
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

# (w, p, N, |Im q| band); one long-lived operator per (w, p).  Each call
# samples the program's default 20 shifts (24 with the fixed ones), so one
# call at N = 4000 takes about 4.5 s on the reference machine and a pass
# holds only a few calls.  p = 0 (answer 0) is left to the scans inside the
# banded workload's deficiency calls.
SCAN_SLOTS = [
    (1, 1, 4000, IM_SMALL),
    (1, 2, 8000, IM_SMALL),
    (1, 3, 4000, IM_SMALL),
]
SCAN_COUNT = 20


def scan(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 3])
    configs = {}
    calls = []
    for w, p, N, band in SCAN_SLOTS:
        if (w, p) not in configs:
            c = FIXED_COEFF.get(("scan", w, p), float(rng.uniform(0.5, 2.0)))
            cfg = jacobi_config(w, p, c)
            configs[(w, p)] = _write(workdir, f"scan-w{w}-p{p}.json", cfg)
        spec = {"operator": configs[(w, p)], "center": centre(rng, band),
                "count": SCAN_COUNT, "N": N, "seed": int(rng.integers(1000))}
        calls.append(Call(f"scan w={w} p={p} N={N}", "scan", scan=spec,
                          expect={"constant_dim": jacobi_indices(w, p)}))
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]


GENERATORS = {"banded": banded, "dense": dense, "scan": scan}


def generate(workload: str, seed: int, workdir: str) -> list:
    """Write the inputs of one workload and a manifest; return the calls."""
    os.makedirs(workdir, exist_ok=True)
    calls = GENERATORS[workload](seed, workdir)
    manifest = {"workload": workload, "seed": seed, "why": WHY[workload],
                "calls": [vars(c) for c in calls]}
    _write(workdir, "manifest.json", manifest)
    return calls
