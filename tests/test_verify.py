"""verify_matrix's sampled rows and their behaviour under a change of scale."""

import numpy as np
import pytest

import qdef.spectrum
import qdef.verify
from qdef import embed
from qdef.qoperator import QOperator, hermitian_random, random_operator, real_symmetric
from qdef.quat import qnormsq, random_quaternion
from qdef.rmodule import QVector, inner, random_qvector
from qdef.tolerances import DEFAULT
from qdef.verify import (_adjoint_identity, _range_perp, _right_linearity,
                         verify_matrix)

KINDS = {"real_symmetric": real_symmetric, "hermitian": hermitian_random,
         "general": random_operator}
SAMPLED = ("adjoint_identity", "right_linearity", "range_perp_equals_adjoint_kernel")


# the per-vector loops that the stacked rows replace, kept as the oracle

def _norm(v):
    return float(np.sqrt(qnormsq(v.components).sum()))


def loop_adjoint_identity(A, adj, rng):
    worst = 0.0
    for _ in range(20):
        phi = random_qvector(rng, A.dim)
        psi = random_qvector(rng, A.dim)
        phi = phi / phi.norm()
        psi = psi / psi.norm()
        worst = max(worst, (inner(psi, A(phi)) - inner(adj(psi), phi)).norm())
    return worst


def loop_right_linearity(A, rng):
    worst = 0.0
    for _ in range(10):
        phi = random_qvector(rng, A.dim)
        psi = random_qvector(rng, A.dim)
        x = random_quaternion(rng)
        y = random_quaternion(rng)
        lhs = A(phi * x + psi * y)
        rhs = A(phi) * x + A(psi) * y
        worst = max(worst, _norm(lhs - rhs) / max(_norm(lhs), 1.0))
    return worst


def loop_range_perp(A, kernel):
    worst = 0.0
    for v in kernel:
        for m in range(A.dim):
            col = QVector.from_components(A.entries[:, m, :])
            worst = max(worst, inner(v, col).norm())
    return worst


def _matrices(kind, dim, seed):
    """The matrix, and a copy with its first column zeroed, whose adjoint has a
    kernel for the range_perp row to sample."""
    A = KINDS[kind](dim, seed=seed)
    entries = A.entries.copy()
    entries[:, 0] = 0.0
    return A, QOperator.from_entries(entries)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 2, 7, 48])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_stacked_rows_equal_per_vector_loops(kind, dim, seed):
    """Residual for residual, and the generator ends where the loops leave it,
    since random_basis and the norm-identity shifts draw after these rows."""
    plain, zeroed = _matrices(kind, dim, seed)
    assert embed.kernel_q(zeroed.adjoint(), DEFAULT.rank_tol)
    for A in (plain, zeroed):
        adj = A.adjoint()
        kernel = embed.kernel_q(adj, DEFAULT.rank_tol)
        loops, stacks = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (loops, stacks):
            rng.standard_normal((dim, dim, 4))     # the embedding_homomorphism draw
        want = {"adjoint_identity": loop_adjoint_identity(A, adj, loops),
                "right_linearity": loop_right_linearity(A, loops),
                "range_perp_equals_adjoint_kernel": loop_range_perp(A, kernel)}
        assert want == {"adjoint_identity": _adjoint_identity(A, adj, stacks),
                        "right_linearity": _right_linearity(A, stacks),
                        "range_perp_equals_adjoint_kernel": _range_perp(A, kernel)}
        assert loops.bit_generator.state == stacks.bit_generator.state
        checks, _, _ = verify_matrix(A, seed, DEFAULT)
        got = {row["name"]: row["residual"] for row in checks if row["name"] in SAMPLED}
        assert {k: repr(v) for k, v in got.items()} == {k: repr(float(v))
                                                        for k, v in want.items()}


# Scale covariance: for c > 0, cA is symmetric exactly when A is, and its
# spheres are c times A's, so every verify row must pass or fail on cA as it
# does on A.  The cases that fail today are known failures with their cause.

SCALES = [1e-14, 1e-12, 1e-11, 1e-8, 1e-4, 1e4, 1e6, 1e8]

SYM_ATOL_CAUSE = ("symmetry_predicates compares with the absolute SYM_ATOL = "
                  "1e-10, so a small matrix reads as symmetric and "
                  "anti-symmetric and runs the Hermitian-only rows")
FOLD_FLOOR = ("point_sspectrum folds and clusters eigenvalues with tolerances "
              "relative to max(1, max |lambda|), absolute below 1, so the "
              "spheres of a small matrix merge")

ROW_FAILURES = {
    ("hermitian", 1e-14): SYM_ATOL_CAUSE,
    ("hermitian", 1e-12): SYM_ATOL_CAUSE,
    ("hermitian", 1e-11): SYM_ATOL_CAUSE,
    ("general", 1e-14): SYM_ATOL_CAUSE,
    ("general", 1e-12): SYM_ATOL_CAUSE,
    ("general", 1e-11): SYM_ATOL_CAUSE,
}
SPHERE_FAILURES = {
    **{("real_symmetric", c): FOLD_FLOOR for c in (1e-14, 1e-12, 1e-11, 1e-8)},
    **{("hermitian", c): FOLD_FLOOR for c in (1e-14, 1e-12, 1e-11, 1e-8)},
    **{("general", c): FOLD_FLOOR for c in (1e-14, 1e-12, 1e-11)},
}


def _cases(failures):
    return [pytest.param(kind, c, marks=pytest.mark.xfail(strict=True,
                                                          reason=failures[kind, c]))
            if (kind, c) in failures else (kind, c)
            for kind in sorted(KINDS) for c in SCALES]


@pytest.fixture(scope="module")
def unscaled():
    return {kind: verify_matrix(make(8, seed=3), 0, DEFAULT)
            for kind, make in KINDS.items()}


@pytest.mark.parametrize("kind, c", _cases(ROW_FAILURES))
def test_rows_are_scale_covariant(unscaled, kind, c):
    checks, _, _ = verify_matrix(KINDS[kind](8, seed=3) * c, 0, DEFAULT)
    base = unscaled[kind][0]
    assert ([(row["name"], row["passed"]) for row in checks]
            == [(row["name"], row["passed"]) for row in base])


@pytest.mark.parametrize("kind, c", _cases(SPHERE_FAILURES))
def test_spheres_are_scale_covariant(unscaled, kind, c):
    _, summary, _ = verify_matrix(KINDS[kind](8, seed=3) * c, 0, DEFAULT)
    base = unscaled[kind][1]["spheres"]
    spheres = summary["spheres"]
    assert [s["mult"] for s in spheres] == [s["mult"] for s in base]
    radius = max(max(abs(s["re"]), s["im_mag"]) for s in base)
    for s, b in zip(spheres, base):
        assert abs(s["re"] - c * b["re"]) <= 1e-9 * c * radius
        assert abs(s["im_mag"] - c * b["im_mag"]) <= 1e-9 * c * radius


# The limits of adjoint_identity and eigenvalue_conjugation_closure grow with
# ||chi(A)||_F, and must still catch a relative error of 1e-6 in what their
# rows compare, at any scale (as TestScaledLimits does for the product rows).

def _perturb_adjoint(real):
    # the adjoint that A is compared with, off by a relative 1e-6
    return lambda A, adj, rng: real(A, QOperator.from_entries(adj.entries * (1.0 + 1e-6)),
                                    rng)


def _perturb_pairing(real):
    # one eigenvalue of each conjugate pair off by a relative 1e-6: the worst
    # pair distance the fold reports grows by 1e-6 of the largest eigenvalue
    def fold(lam, *tols):
        points, closure = real(lam, *tols)
        return points, closure + 1e-6 * float(np.max(np.abs(lam)))
    return fold


class TestRelativeLimits:
    # row -> (owner and name of the function the row reads, how to perturb
    # what it compares)
    INJECT = {
        "adjoint_identity": (qdef.verify, "_adjoint_identity", _perturb_adjoint),
        "eigenvalue_conjugation_closure": (qdef.spectrum, "_fold_conjugate_pairs",
                                           _perturb_pairing),
    }

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    @pytest.mark.parametrize("name", sorted(INJECT))
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_relative_error_fails(self, kind, name, scale, monkeypatch):
        owner, attr, perturb = self.INJECT[name]
        monkeypatch.setattr(owner, attr, perturb(getattr(owner, attr)))
        checks, _, _ = verify_matrix(KINDS[kind](8, seed=3) * scale, 0, DEFAULT)
        row = {c["name"]: c for c in checks}[name]
        assert not row["passed"], row
