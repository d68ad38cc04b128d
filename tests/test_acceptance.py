"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import qdef
from qdef import (I, J, LeftMul, Quaternion, basis_invariance_check, chi,
                  delta_map, deficiency_indices, embed2x2, formal_solutions,
                  hermitian_random, index_stability_scan, inner, jacobi_sq,
                  left_scale, norm_identity_check, random_basis,
                  random_operator, random_qvector, random_real_rotation_basis,
                  real_symmetric, resolvent_inverse_norm, resolvent_poly,
                  selfadjoint_iff_real, shift_left_scalar,
                  truncated_kernel, von_neumann_evidence,
                  criteria_report)
from qdef.errors import PreconditionFailed


def report(n, text):
    print(f"[AC{n:02d}] PASS: {text}")


def rand_q(rng, floor=0.0):
    while True:
        q = Quaternion(*rng.standard_normal(4))
        if q.im_norm() >= floor:
            return q


def test_ac01_embedding_homomorphism():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_scalar = 0.0
    worst_det = 0.0
    for _ in range(1000):
        a, b = rand_q(rng), rand_q(rng)
        diff = np.max(np.abs(embed2x2(a * b) - embed2x2(a) @ embed2x2(b)))
        worst_scalar = max(worst_scalar, diff)
        worst_det = max(worst_det, abs(np.linalg.det(embed2x2(a)) - a.norm_sq()))
    worst_matrix = 0.0
    for k in range(100):
        A = random_operator(4, seed=2 * k)
        B = random_operator(4, seed=2 * k + 1)
        diff = np.max(np.abs(chi(A @ B) - chi(A) @ chi(B)))
        worst_matrix = max(worst_matrix, diff)
    elapsed = time.time() - t0
    assert worst_scalar <= 1e-12
    assert worst_det <= 1e-12
    assert worst_matrix <= 1e-12
    assert elapsed < 5.0
    report(1, f"embedding homomorphism: scalar {worst_scalar:.2e}, "
              f"matrix {worst_matrix:.2e}, det {worst_det:.2e}, {elapsed:.2f}s")


def test_ac02_left_multiplication_axioms():
    rng = np.random.default_rng(202)
    worst = {k: 0.0 for k in ("a", "b", "c", "d", "e", "f", "pro_a", "pro_b")}
    for _ in range(500):
        dim = int(rng.integers(2, 9))
        L = LeftMul(random_basis(rng, dim))
        R = LeftMul(random_real_rotation_basis(rng, dim))
        L1 = LeftMul.canonical(dim)
        p, q = rand_q(rng), rand_q(rng)
        phi, psi = random_qvector(rng, dim), random_qvector(rng, dim)
        scale = max(1.0, p.norm() * q.norm() * phi.norm() * psi.norm())
        qphi = left_scale(L, q, phi)
        # (a) additivity in the vector and compatibility with right scalars
        ra = max((left_scale(L, q, phi + psi) - qphi - left_scale(L, q, psi)).norm(),
                 (left_scale(L, q, phi * p) - qphi * p).norm())
        worst["a"] = max(worst["a"], ra / scale)
        # (b) norm multiplicativity
        worst["b"] = max(worst["b"],
                         abs(qphi.norm() - q.norm() * phi.norm()) / scale)
        # (c) composition within one product
        rc = (left_scale(L, q, left_scale(L, p, phi))
              - left_scale(L, q * p, phi)).norm()
        worst["c"] = max(worst["c"], rc / scale)
        # (d) conjugate shifts across the inner product
        rd = (inner(left_scale(L, q.conjugate(), phi), psi)
              - inner(phi, left_scale(L, q, psi))).norm()
        worst["d"] = max(worst["d"], rd / scale)
        # (e) reals commute
        worst["e"] = max(worst["e"],
                         (left_scale(L, Quaternion(1.5), phi) - phi * 1.5).norm()
                         / scale)
        # (f) basis vectors commute with left scalars
        k = int(rng.integers(dim))
        bk = L.basis.vector(k)
        worst["f"] = max(worst["f"],
                         (left_scale(L, q, bk) - bk * q).norm() / scale)
        # surjectivity of left multiplication by q != 0
        if q.norm() > 1e-3:
            sol = left_scale(L, q.conjugate() / q.norm_sq(), psi)
            worst["pro_a"] = max(worst["pro_a"],
                                 (left_scale(L, q, sol) - psi).norm() / scale)
        # mixed products across two bases with a real transition matrix
        rb = max((left_scale(R, p, left_scale(L1, q, phi))
                  - left_scale(R, p * q, phi)).norm(),
                 (left_scale(L1, p, left_scale(R, q, phi))
                  - left_scale(L1, p * q, phi)).norm())
        worst["pro_b"] = max(worst["pro_b"], rb / scale)
    assert all(v <= 1e-12 for v in worst.values()), worst
    report(2, "left multiplication axioms over 500 trials, worst residual "
              f"{max(worst.values()):.2e}")


def test_ac03_norm_identities():
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(50):
        dim = 3 + k % 8
        A = real_symmetric(dim, seed=k)
        L = LeftMul.canonical(dim)
        shifts = [I, -I]
        shifts += [I * s * lam for lam in (0.5, 1.0, 3.0) for s in (1.0, -1.0)]
        shifts += [rand_q(rng) for _ in range(20)]
        for q in shifts:
            worst = max(worst, norm_identity_check(A, L, q, samples=100, seed=k))
    assert worst <= 1e-10
    report(3, f"shifted norm identities on 50 operators, worst {worst:.2e}")


def test_ac04_resolvent_factorization():
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in range(50):
        dim = 3 + k % 8
        A = real_symmetric(dim, seed=k)
        q = rand_q(rng)
        R = resolvent_poly(A, q)
        F1 = shift_left_scalar(A, q) @ shift_left_scalar(A, q.conjugate())
        F2 = shift_left_scalar(A, q.conjugate()) @ shift_left_scalar(A, q)
        for _ in range(20):
            phi = random_qvector(rng, dim)
            phi = phi / phi.norm()
            worst = max(worst, (R(phi) - F1(phi)).norm(),
                        (R(phi) - F2(phi)).norm())
    assert worst <= 1e-10
    report(4, f"resolvent factorization in both orders, worst {worst:.2e}")


def test_ac05_selfadjointness_criteria():
    checked = 0
    for k in range(100):
        dim = 2 + k % 7
        A = hermitian_random(dim, seed=k)
        cr = criteria_report(A)
        assert cr.self_adjoint == cr.kernels_trivial == cr.ranges_full, \
            f"criteria disagree on hermitian seed {k}"
        v = selfadjoint_iff_real(A)
        assert v.self_adjoint and v.max_im_mag <= 1e-8
        checked += 1
    for k in range(100):
        dim = 2 + k % 7
        A = random_operator(dim, seed=10_000 + k)
        with pytest.raises(PreconditionFailed):
            criteria_report(A)
        v = selfadjoint_iff_real(A)
        assert not v.self_adjoint and v.max_im_mag > 1e-8
        checked += 1
    report(5, f"criteria equivalence and spectral verdicts on {checked} matrices")


def test_ac06_resolvent_bound():
    rng = np.random.default_rng(606)
    worst_excess = -np.inf
    for k in range(50):
        dim = 2 + k % 7
        A = hermitian_random(dim, seed=k)
        for _ in range(20):
            q = rand_q(rng, floor=0.15)
            bound = 1.0 / q.im_norm() ** 2
            worst_excess = max(worst_excess,
                               resolvent_inverse_norm(A, q) - bound)
    assert worst_excess <= 1e-8
    report(6, f"resolvent norm bound on 1000 shifts, worst excess "
              f"{worst_excess:.2e}")


def test_ac07_deficiency_presets():
    t0 = time.time()
    expected = {"number_operator": (0, 0), "free_jacobi": (0, 0),
                "jacobi_sq": (1, 1)}
    for name, want in expected.items():
        op = qdef.PRESETS[name]()
        for unit in ("i", "j", "k"):
            rep = deficiency_indices(op, unit, N=2000, window=100)
            assert rep.indices == want and rep.status == "ok", (name, unit)
        rep4000 = deficiency_indices(op, "i", N=4000, window=100)
        assert rep4000.indices == want and rep4000.status == "ok"
        scan = index_stability_scan(op, I, count=20, N=2000, window=100,
                                    seed=7)
        assert scan["status"] == "ok"
        assert scan["constant_dim"] == want[0]
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(7, f"preset indices {expected} stable over N doubling, units, "
              f"and 20-shift scans in {elapsed:.1f}s")


def test_ac08_oracle_agreement():
    for name in ("number_operator", "free_jacobi", "jacobi_sq"):
        op = qdef.PRESETS[name]()
        for q in (I, -I, J, -J):
            dense = truncated_kernel(op, q, 60).qdim
            recur = len(formal_solutions(op, q, 60))
            assert dense == recur, (name, str(q), dense, recur)
    report(8, "recurrence and truncated-embedding kernel dimensions agree "
              "exactly at M=60 on all presets")


def test_ac09_von_neumann_directness():
    for q in (I, I * 2.0, Quaternion(1, 1, 1, 0)):
        ev = von_neumann_evidence(jacobi_sq(), q, N=2000)
        assert (ev["dim_plus"], ev["dim_minus"]) == (1, 1)
        assert ev["gram_min_eig"] > 1e-8
    gram_mins = []
    for k in range(10):
        A = hermitian_random(3 + k % 4, seed=k)
        ev = von_neumann_evidence(A, I)
        assert ev["dim_plus"] == 0 and ev["dim_minus"] == 0
        assert ev["trivial_decomposition"]
        B = real_symmetric(3 + k % 4, seed=k)
        ev = von_neumann_evidence(B, Quaternion(0.5, 1, -1, 2))
        assert ev["trivial_decomposition"]
    report(9, "defect spaces direct on the limit-circle preset; finite "
              "hermitian kernels empty")


def test_ac10_basis_invariance():
    rng = np.random.default_rng(1010)
    A = real_symmetric(6, seed=0)
    B2 = random_basis(rng, 6)
    disc = basis_invariance_check(A, B2, Quaternion(1, 1, -1, 0),
                                  trials=50, seed=42)
    assert disc == 0
    worst = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        L1 = LeftMul.canonical(dim)
        L2 = LeftMul(random_basis(rng, dim))
        q = rand_q(rng, floor=0.1)
        psi1 = random_qvector(rng, dim)
        psi2 = random_qvector(rng, dim)
        psi1 = psi1 / psi1.norm()
        psi2 = psi2 / psi2.norm()
        d1 = delta_map(L1, L2, q, psi1)
        d2 = delta_map(L1, L2, q, psi2)
        worst = max(worst, (inner(d1, d2) - inner(psi1, psi2)).norm())
    assert worst <= 1e-12
    report(10, f"defect dimensions basis-invariant over 50 trials; basis-"
               f"change isometry residual {worst:.2e} over 500 pairs")


def test_ac11_cli_determinism_and_exit_codes(tmp_path):
    base = [sys.executable, "-m", "qdef"]
    # determinism
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["verify", "--preset", "number_operator", "--seed", "7",
            "--N", "600", "--window", "60"]
    r1 = subprocess.run(base + args + ["--out", str(out1)])
    r2 = subprocess.run(base + args + ["--out", str(out2)])
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    # exit 0 on a passing matrix
    A = hermitian_random(4, seed=5)
    obj = json.loads(A.to_json())
    obj["hermitian"] = True
    good = tmp_path / "good.json"
    good.write_text(json.dumps(obj))
    assert subprocess.run(base + ["verify", "--matrix", str(good)]).returncode == 0
    # exit 1 on an induced failure: perturbed hermitian entry
    bad = dict(obj)
    bad["entries"] = list(obj["entries"])
    bad["entries"][1] = "9+j"
    badp = tmp_path / "bad.json"
    badp.write_text(json.dumps(bad))
    assert subprocess.run(base + ["verify", "--matrix", str(badp)]).returncode == 1
    # exit 2 on malformed config
    ugly = tmp_path / "ugly.json"
    ugly.write_text("{not json")
    assert subprocess.run(base + ["verify", "--matrix", str(ugly)]).returncode == 2
    report(11, "CLI byte-identical under equal seeds; exit codes 0/1/2 observed")
