import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qdef.cli
import qdef.deficiency
import qdef.embed
import qdef.verify
from qdef import (I, QVector, RealityVerdict, free_jacobi, hermitian_random,
                  index_stability_scan)
from qdef.cli import main
from qdef.errors import StabilityViolation

DATA = Path(__file__).parent / "data"


def write_matrix(path, dim=4, seed=5, declare=True, perturb=False):
    A = hermitian_random(dim, seed=seed)
    obj = json.loads(A.to_json())
    if declare:
        obj["hermitian"] = True
    if perturb:
        obj["entries"][1] = "9+j"  # breaks the adjoint symmetry
    path.write_text(json.dumps(obj))
    return path


class TestExitCodes:
    def test_pass_case(self, tmp_path, capsys):
        m = write_matrix(tmp_path / "h.json")
        assert main(["verify", "--matrix", str(m), "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True

    def test_induced_failure(self, tmp_path, capsys):
        m = write_matrix(tmp_path / "h.json", perturb=True)
        assert main(["verify", "--matrix", str(m), "--seed", "3"]) == 1
        out = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in out["checks"] if not c["passed"]]
        assert "declared_hermitian" in failed

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["verify", "--matrix", str(bad)]) == 2

    def test_missing_operator(self):
        assert main(["verify"]) == 2

    def test_unknown_preset(self):
        assert main(["verify", "--preset", "no_such_thing"]) == 2

    def test_missing_file(self):
        assert main(["sspectrum", "--matrix", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize("argv,text,err", [
        (["deficiency", "--preset", "free_jacobi", "--matrix"], "{}",
         "give either --preset or --matrix, not both"),
        (["verify", "--matrix"], "[1, 2]", "{path}: expected a JSON object"),
        (["sspectrum", "--preset", "free_jacobi"], None,
         "sspectrum expects a finite matrix (--matrix)"),
    ], ids=["preset-and-matrix", "matrix-list", "sspectrum-banded"])
    def test_config_error_message(self, argv, text, err, tmp_path, capsys):
        path = tmp_path / "m.json"
        if text is not None:
            path.write_text(text)
            argv = argv + [str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {err.format(path=path)}\n"

    @pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
    def test_unwritable_out(self, target, tmp_path, capsys):
        out = tmp_path / target
        assert main(["deficiency", "--preset", "free_jacobi", "--N", "200",
                     "--window", "20", "--count", "0", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--preset", "number_operator", "--seed", "7",
                "--N", "400", "--window", "50"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_deficiency_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["deficiency", "--preset", "jacobi_sq", "--N", "800",
                "--window", "80", "--seed", "11", "--count", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCommands:
    def test_sspectrum_spheres(self, tmp_path, capsys):
        m = tmp_path / "diag.json"
        m.write_text(json.dumps({"dim": 2, "entries": ["1", "0", "0", "2"]}))
        assert main(["sspectrum", "--matrix", str(m)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["spheres"] == [{"re": 1.0, "im_mag": 0.0, "mult": 1},
                                  {"re": 2.0, "im_mag": 0.0, "mult": 1}]
        assert out["all_real"] is True

    def test_sspectrum_text(self, tmp_path, capsys):
        m = tmp_path / "diag.json"
        m.write_text(json.dumps({"dim": 2, "entries": ["1", "0", "0", "2"]}))
        assert main(["sspectrum", "--matrix", str(m), "--format", "text"]) == 0
        assert capsys.readouterr().out == (
            "command: sspectrum\n"
            "passed: True\n"
            "  sphere re=+1 im=0 mult=1\n"
            "  sphere re=+2 im=0 mult=1\n")

    def test_sspectrum_csv(self, tmp_path, capsys):
        m = tmp_path / "diag.json"
        m.write_text(json.dumps({"dim": 2, "entries": ["1", "0", "0", "2"]}))
        assert main(["sspectrum", "--matrix", str(m), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "re,im_mag,multiplicity"
        assert len(lines) == 3

    def test_deficiency_report(self, tmp_path, capsys):
        code = main(["deficiency", "--preset", "jacobi_sq", "--N", "800",
                     "--window", "80", "--count", "4"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["deficiency"]["n_plus"] == 1
        assert out["deficiency"]["n_minus"] == 1
        assert out["deficiency"]["stability"]["constant_dim"] == 1

    def test_huge_diagonal_self_adjoint(self, tmp_path, capsys):
        # diag 1e40 with unit off-diagonals is bounded and self-adjoint: a
        # solution passes |c| = 1e154, where the squares of its norm overflow
        p = tmp_path / "band.json"
        p.write_text(json.dumps({"bandwidth": 1, "coeff": {
            "type": "poly", "offset_-1": [1.0], "offset_0": [1e40], "offset_1": [1.0]}}))
        code = main(["deficiency", "--matrix", str(p), "--N", "400", "--window", "40",
                     "--count", "2", "--q=0.1+0.5i"])
        out = json.loads(capsys.readouterr().out)["deficiency"]
        assert code == 0
        assert (out["n_plus"], out["n_minus"], out["status"]) == (0, 0, "ok")
        assert out["self_adjoint"] and out["stability"]["constant_dim"] == 0

    def test_overflowed_ratio_is_null(self, tmp_path, capsys):
        # the block ratio of a solution growing like 1e40 per row overflows;
        # the report holds null there, not the non-JSON token Infinity
        p = tmp_path / "band.json"
        p.write_text(json.dumps({"bandwidth": 1, "coeff": {
            "type": "poly", "offset_-1": [1.0], "offset_0": [1e40], "offset_1": [1.0]}}))
        code = main(["deficiency", "--matrix", str(p), "--N", "400", "--window", "40",
                     "--count", "2", "--q=0.1+0.5i"])

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)["deficiency"]
        assert code == 0
        assert [row["ratio"] for row in out["evidence"]] == [None, None]

    def test_deficiency_on_matrix_rejected(self, tmp_path):
        m = write_matrix(tmp_path / "h.json")
        assert main(["deficiency", "--matrix", str(m)]) == 2

    def test_banded_config_file(self, tmp_path, capsys):
        cfg = {"bandwidth": 1,
               "coeff": {"type": "poly", "offset_-1": [0, 0, 1],
                         "offset_0": [0], "offset_1": [1, 2, 1]},
               "real_entries": True}
        p = tmp_path / "band.json"
        p.write_text(json.dumps(cfg))
        code = main(["deficiency", "--matrix", str(p), "--N", "800",
                     "--window", "80", "--count", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["deficiency"]["n_plus"] == 1

    def test_invariance(self, capsys):
        code = main(["invariance", "--dim", "4", "--trials", "5", "--seed", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["max_discrepancy"] == 0

    def test_invariance_real_q_rejected(self):
        assert main(["invariance", "--q", "3", "--trials", "1"]) == 2

    def test_report_bundle(self, tmp_path, capsys):
        code = main(["report", "--preset", "number_operator", "--N", "400",
                     "--window", "50", "--trials", "3", "--dim", "3",
                     "--count", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(out["parts"]) == {"verify", "deficiency", "invariance"}

    def test_text_format(self, capsys):
        code = main(["verify", "--preset", "number_operator", "--N", "400",
                     "--window", "50", "--format", "text"])
        text = capsys.readouterr().out
        assert code == 0 and text.startswith("command: verify")

    SMALL = ["--preset", "number_operator", "--N", "400", "--window", "50",
             "--count", "2", "--trials", "2", "--dim", "3"]

    def test_csv_carries_the_answer(self, capsys):
        assert main(["deficiency", *self.SMALL, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value" and lines[5:] == [
            "n_plus,0", "n_minus,0", "status,ok", "self_adjoint,True",
            "scan_status,ok", "scan_constant_dim,0"]
        assert main(["report", *self.SMALL, "--format", "csv"]) == 0
        sections = capsys.readouterr().out.split("\n\n")
        assert [s.splitlines()[:2] for s in sections[1:]] == [
            ["part,verify", "check,passed,residual,tolerance"],
            ["part,deficiency", "key,value"], ["part,invariance", "key,value"]]
        assert sections[2].endswith("scan_status,ok\nscan_constant_dim,0")
        assert "max_discrepancy,0" in sections[3].splitlines()

    def test_csv_rows_have_two_fields(self, capsys):
        # the free Jacobi description holds a comma: the cell is quoted
        assert main(["deficiency", "--preset", "free_jacobi", "--N", "400",
                     "--window", "40", "--count", "2", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        assert ["operator", "free Jacobi, unit off-diagonals"] in rows

    def test_text_carries_the_answer(self, capsys):
        assert main(["deficiency", *self.SMALL, "--format", "text"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "  indices: (0, 0)  status=ok  self_adjoint=True",
            "  scan: status=ok  constant_dim=0"]
        assert main(["report", *self.SMALL, "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if not line.startswith(" ")] == [
            "command: report", "passed: True", "verify:", "deficiency:", "invariance:"]
        assert "    indices: (0, 0)  status=ok  self_adjoint=True" in lines
        assert "    [ok ] deficiency_indices_conclusive" in lines
        assert lines[-1] == "    max discrepancy: 0"

    def test_q_flag_parsing(self, capsys):
        code = main(["deficiency", "--preset", "number_operator", "--N", "400",
                     "--window", "50", "--q", "1+i", "--count", "2"])
        assert code == 0
        capsys.readouterr()

    def test_bad_q_literal(self):
        assert main(["deficiency", "--preset", "number_operator",
                     "--q", "wat"]) == 2


class TestBasisInvarianceCanFail:
    """A nonzero discrepancy reaches the verdict and the exit code."""

    def test_verify_matrix_row_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(qdef.verify, "basis_invariance_check",
                            lambda *args, **kwargs: 1)
        argv = ["verify", "--matrix", str(DATA / "matrix_real_symmetric.json")]
        assert main(argv) == 1
        out = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in out["checks"] if not c["passed"]]
        assert failed == ["defect_dimension_basis_invariance"]

    def test_invariance_command_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(qdef.cli, "basis_invariance_check",
                            lambda *args, **kwargs: 1)
        assert main(["invariance", "--dim", "4", "--trials", "2", "--seed", "2"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["max_discrepancy"] == 1 and out["passed"] is False


def failed_rows(argv, capsys):
    """The names of the rows that fail, after asserting that verify exits 1."""
    assert main(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False
    return [c["name"] for c in out["checks"] if not c["passed"]]


@pytest.fixture
def one_more_at_last_sample(monkeypatch):
    """``make(count)`` has the last sample of a scan about I with ``count``
    samples and seed 0 count one square-summable solution more."""
    def make(count):
        # the shifts depend on the centre, count and seed alone
        last = qdef.deficiency._scan_shifts(free_jacobi(), I, count, 0)[-1]
        real = qdef.deficiency._count_l2

        def counting(op, shifts, *args, **kwargs):
            return [(dim + (q == last), *rest) for q, (dim, *rest)
                    in zip(shifts, real(op, shifts, *args, **kwargs))]

        monkeypatch.setattr(qdef.deficiency, "_count_l2", counting)
        monkeypatch.setattr(qdef.verify, "_count_l2", counting)
    return make


class TestScanDisagreement:
    """A scan whose samples disagree on the kernel dimension reads
    "violation" in a report and raises StabilityViolation from the library."""

    DETAIL = "kernel dimension not constant: [0, 1]"

    def test_deficiency_reports_the_violation(self, one_more_at_last_sample, capsys):
        one_more_at_last_sample(4)
        assert main(["deficiency", "--preset", "free_jacobi", "--N", "400",
                     "--window", "50", "--count", "4"]) == 1
        out = capsys.readouterr().out
        assert '"status": "violation"' in out
        scan = json.loads(out)["deficiency"]["stability"]
        assert sorted(scan) == ["detail", "samples", "status"]
        assert (scan["status"], scan["detail"]) == ("violation", self.DETAIL)
        assert [(s["dim"], s["status"]) for s in scan["samples"]] == \
            [(0, "ok")] * 7 + [(1, "ok")]

    def test_verify_fails_the_index_stability_row(self, one_more_at_last_sample,
                                                  capsys):
        one_more_at_last_sample(8)
        assert main(TestVerifyRowsCanFail.BANDED) == 1
        out = json.loads(capsys.readouterr().out)
        assert [(c["name"], c["detail"]) for c in out["checks"] if not c["passed"]] == \
            [("index_stability", self.DETAIL)]

    def test_library_scan_raises(self, one_more_at_last_sample):
        one_more_at_last_sample(4)
        with pytest.raises(StabilityViolation, match=r"^kernel dimension not "
                                                     r"constant: \[0, 1\]$") as caught:
            index_stability_scan(free_jacobi(), I, count=4, N=400, window=50)
        assert [(s["dim"], s["status"]) for s in caught.value.discordant] == \
            [(0, "ok")] * 7 + [(1, "ok")]


class TestVerifyRowsCanFail:
    """Each row reads passed: false, and verify exits 1, when the input it
    judges is wrong."""

    MATRIX = ["verify", "--matrix", str(DATA / "matrix_real_symmetric.json")]
    BANDED = ["verify", "--preset", "number_operator", "--N", "400", "--window", "40"]

    def test_rank_nullity(self, monkeypatch, capsys):
        # a non-symmetric matrix: no criteria row takes the rank as well
        monkeypatch.setattr(qdef.embed, "rank_q", lambda A, *args, **kwargs: A.dim - 1)
        argv = ["verify", "--matrix", str(DATA / "matrix_general.json")]
        assert failed_rows(argv, capsys) == ["rank_nullity"]

    def test_self_adjointness_criteria_agree(self, monkeypatch, capsys):
        real = qdef.verify.criteria_report
        monkeypatch.setattr(qdef.verify, "criteria_report", lambda *args, **kwargs:
                            dataclasses.replace(real(*args, **kwargs), agree=False))
        assert failed_rows(self.MATRIX, capsys) == ["self_adjointness_criteria_agree"]

    def test_spectrum_real_iff_self_adjoint(self, monkeypatch, capsys):
        verdict = RealityVerdict(self_adjoint=True, all_real=False, hypotheses_met=True,
                                 equivalent=False, max_im_mag=1.0)
        monkeypatch.setattr(qdef.verify, "selfadjoint_iff_real",
                            lambda *args, **kwargs: verdict)
        assert failed_rows(self.MATRIX, capsys) == ["spectrum_real_iff_self_adjoint"]

    def test_truncated_matrix_oracle_agreement(self, monkeypatch, capsys):
        # w + 1 vectors: more than any banded operator of bandwidth w has
        monkeypatch.setattr(qdef.verify, "truncated_kernel", lambda op, q, M, *args: [
            QVector.basis_vector(M, k) for k in range(op.bandwidth + 1)])
        assert failed_rows(self.BANDED, capsys) == ["truncated_matrix_oracle_agreement"]

    def test_defect_space_directness(self, monkeypatch, capsys):
        real = qdef.verify._banded_evidence
        monkeypatch.setattr(qdef.verify, "_banded_evidence",
                            lambda *args: {**real(*args), "direct": False})
        assert failed_rows(self.BANDED, capsys) == ["defect_space_directness"]

    def test_self_adjoint_iff_zero_indices(self, monkeypatch, capsys):
        real = qdef.verify._unit_report

        def flipped(*args):
            r = real(*args)
            return dataclasses.replace(r, self_adjoint=not r.self_adjoint)

        monkeypatch.setattr(qdef.verify, "_unit_report", flipped)
        assert failed_rows(self.BANDED, capsys) == ["self_adjoint_iff_zero_indices"]


class TestEnvOverrides:
    def test_tolerance_override_applied(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QDEF_TOL_OVERRIDES", json.dumps({"N": 444, "window": 55}))
        code = main(["deficiency", "--preset", "number_operator", "--count", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["tolerances"]["N"] == 444
        assert out["tolerances"]["window"] == 55
        assert out["deficiency"]["params"]["N"] == 444

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QDEF_TOL_OVERRIDES", json.dumps({"N": 444}))
        code = main(["deficiency", "--preset", "number_operator", "--N", "500",
                     "--window", "50", "--count", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["tolerances"]["N"] == 500

    def test_ratio_override_reaches_verify(self, capsys, monkeypatch):
        monkeypatch.setenv("QDEF_TOL_OVERRIDES", json.dumps({"ratio": 0.5}))
        argv = ["--preset", "jacobi_sq", "--N", "1000"]
        main(["deficiency", *argv])
        deficiency = json.loads(capsys.readouterr().out)["deficiency"]
        main(["verify", *argv])
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["params"]["ratio_margin"] == 0.5
        assert (summary["n_plus"], summary["n_minus"]) == \
            (deficiency["n_plus"], deficiency["n_minus"])

    @pytest.mark.parametrize("rank_tol,row", [
        (0.0, "sphere_kernel_verification"),          # point_sspectrum
        (0.5, "self_adjointness_criteria_agree"),     # criteria_report
    ])
    def test_rank_tol_override_moves_row(self, rank_tol, row, capsys, monkeypatch):
        argv = ["verify", "--matrix", str(DATA / "matrix_real_symmetric.json")]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("QDEF_TOL_OVERRIDES", json.dumps({"rank_tol": rank_tol}))
        assert main(argv) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["passed"] for c in checks if c["name"] == row] == [False]

    def test_rank_tol_override_reaches_sspectrum(self, capsys, monkeypatch):
        monkeypatch.setenv("QDEF_TOL_OVERRIDES", json.dumps({"rank_tol": 0.0}))
        argv = ["sspectrum", "--matrix", str(DATA / "matrix_real_symmetric.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("property failure: folded sphere")

    def test_atol_override_moves_band_symmetry(self, tmp_path, capsys, monkeypatch):
        # A[n+1, n] - A[n, n+1] = 1e-13: within the constructor's 1e-12 check
        band = tmp_path / "band.json"
        band.write_text(json.dumps({"bandwidth": 1, "real_entries": True, "coeff": {
            "type": "poly", "offset_-1": [1.0 + 1e-13], "offset_0": [0.0],
            "offset_1": [1.0]}}))
        argv = ["verify", "--matrix", str(band), "--N", "400", "--window", "50"]
        verdicts = []
        for env in ({}, {"atol": 1e-14}):
            monkeypatch.setenv("QDEF_TOL_OVERRIDES", json.dumps(env))
            main(argv)
            checks = json.loads(capsys.readouterr().out)["checks"]
            verdicts += [c["passed"] for c in checks if c["name"] == "band_symmetry"]
        assert verdicts == [True, False]

    @pytest.mark.parametrize("command", ["deficiency", "verify"])
    @pytest.mark.parametrize("field,value,flags", [
        ("ratio", 0.25, ["--N", "800", "--window", "80"]),
        ("window", 40, ["--N", "800"]),
        ("N", 480, []),
    ])
    def test_banded_override_reaches_every_fit(self, command, field, value, flags,
                                               capsys, monkeypatch):
        """Every summability fit (probes included) and every march of the
        command uses the overridden value."""
        seen = {"N": set(), "window": set(), "ratio": set()}
        real_fit = qdef.deficiency.classify_l2
        real_batch = qdef.deficiency._formal_batch

        def fit(sol, window, ratio_margin):
            seen["window"].add(window)
            seen["ratio"].add(ratio_margin)
            return real_fit(sol, window, ratio_margin)

        def batch(op, shifts, N, *arithmetic):
            seen["N"].add(N)
            return real_batch(op, shifts, N, *arithmetic)

        monkeypatch.setattr(qdef.deficiency, "classify_l2", fit)
        monkeypatch.setattr(qdef.deficiency, "_formal_batch", batch)
        monkeypatch.setenv("QDEF_TOL_OVERRIDES", json.dumps({field: value}))
        assert main([command, "--preset", "free_jacobi", "--count", "2", *flags]) == 0
        capsys.readouterr()
        expected = {value}
        if field == "N" and command == "verify":
            expected = {value, 2 * value}       # and the doubled run
        assert seen[field] == expected

    def test_bad_env_is_config_error(self, monkeypatch):
        monkeypatch.setenv("QDEF_TOL_OVERRIDES", "{nope")
        assert main(["verify", "--preset", "number_operator"]) == 2

    @pytest.mark.parametrize("overrides,message", [
        ([1], "QDEF_TOL_OVERRIDES must be a JSON object"),
        ({"N": [1]}, "tolerance override 'N' is not a number: [1]"),
        # float() of the integer overflows
        ({"N": 10 ** 400}, "tolerance override 'N' is not a number: " + "1" + "0" * 400),
    ], ids=["list", "N-list", "N-beyond-double"])
    def test_bad_env_value_is_config_error(self, overrides, message, monkeypatch,
                                           capsys):
        monkeypatch.setenv("QDEF_TOL_OVERRIDES", json.dumps(overrides))
        assert main(["verify", "--preset", "number_operator"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_unknown_key_rejected(self, monkeypatch):
        monkeypatch.setenv("QDEF_TOL_OVERRIDES", json.dumps({"mystery": 1}))
        assert main(["verify", "--preset", "number_operator"]) == 2


def band_config(offdiagonal, diagonal=(0.0,)):
    return {"bandwidth": 1, "coeff": {"type": "poly", "offset_-1": offdiagonal,
                                      "offset_0": list(diagonal),
                                      "offset_1": offdiagonal}}


BAND_ARGV = ["deficiency", "--N", "400", "--window", "50", "--count", "0", "--matrix"]
# A[n, n+1] = (n+1)^2 + j
QUATERNION_BAND = {"bandwidth": 1, "real_entries": False,
                   "coeff": {"type": "poly", "offset_-1": ["-1j", 0.0, 1.0],
                             "offset_0": [0.0], "offset_1": ["1+1j", 2.0, 1.0]}}

BAD_INPUT = [
    # (label, argv, QDEF_TOL_OVERRIDES, matrix entries or operator JSON or
    # None, expected exit)
    ("window-zero", ["deficiency", "--preset", "free_jacobi", "--window", "0"],
     None, None, 2),
    ("window-negative", ["deficiency", "--preset", "free_jacobi", "--window", "-3"],
     None, None, 2),
    ("N-zero", ["deficiency", "--preset", "free_jacobi", "--N", "0"], None, None, 2),
    ("count-negative", ["deficiency", "--preset", "free_jacobi", "--count", "-1"],
     None, None, 2),
    ("dim-zero", ["invariance", "--dim", "0"], None, None, 2),
    # once a ValueError traceback from numpy's default_rng
    ("seed-negative-deficiency", ["deficiency", "--preset", "free_jacobi", "--seed", "-1"],
     None, None, 2),
    ("seed-negative-verify-banded", ["verify", "--preset", "free_jacobi", "--seed", "-1"],
     None, None, 2),
    ("seed-negative-verify-matrix", ["verify", "--seed", "-1", "--matrix"], None,
     [1, 0, 0, 2], 2),
    ("seed-negative-invariance", ["invariance", "--seed", "-1"], None, None, 2),
    ("trials-zero", ["invariance", "--trials", "0"], None, None, 2),
    ("env-window-zero", ["deficiency", "--preset", "free_jacobi"], {"window": 0},
     None, 2),
    ("env-N-negative", ["verify", "--preset", "free_jacobi"], {"N": -5}, None, 2),
    ("env-N-text", ["verify", "--preset", "free_jacobi"], {"N": "many"}, None, 2),
    # once read as the number 100
    ("env-N-numeric-text", ["verify", "--preset", "free_jacobi"], {"N": "100"}, None, 2),
    # NaN once made every ratio test false, so jacobi_sq read (0, 0) with exit 0
    ("env-ratio-nan", ["deficiency", "--preset", "jacobi_sq", "--N", "1000",
                       "--count", "2"], {"ratio": float("nan")}, None, 2),
    ("env-ratio-one", ["deficiency", "--preset", "free_jacobi"], {"ratio": 1.0},
     None, 2),
    ("env-ratio-zero", ["deficiency", "--preset", "free_jacobi"], {"ratio": 0},
     None, 2),
    ("env-atol-negative", ["verify", "--preset", "free_jacobi"], {"atol": -1e-12},
     None, 2),
    ("env-atol-inf", ["verify", "--preset", "free_jacobi"], {"atol": float("inf")},
     None, 2),
    ("env-rank-tol-negative", ["sspectrum", "--matrix"], {"rank_tol": -1.0},
     [1, 0, 0, 2], 2),
    ("env-N-fraction", ["deficiency", "--preset", "free_jacobi"], {"N": 2.7}, None, 2),
    ("env-window-bool", ["deficiency", "--preset", "free_jacobi"], {"window": True},
     None, 2),
    # a 7 TiB coefficient table: the allocation fails at once, never test an N
    # whose table could be allocated
    ("N-huge", ["deficiency", "--preset", "free_jacobi", "--N", "1000000000000"],
     None, None, 1),
    # row indices are floats, exact below 2**53: larger N is a config error
    ("N-beyond-float", ["deficiency", "--preset", "free_jacobi", "--N",
                        "100000000000000000000"], None, None, 2),
    ("env-N-beyond-float", ["verify", "--preset", "free_jacobi"], {"N": 2 ** 53},
     None, 2),
    ("nan-entry", ["verify", "--matrix"], None, [1, float("nan"), 0, 2], 2),
    ("inf-entry", ["sspectrum", "--matrix"], None,
     [1, float("inf"), float("-inf"), 2], 2),
    ("overflow-verify", ["verify", "--matrix"], None, ["1e308", "0", "0", "1e308"], 1),
    ("overflow-sspectrum", ["sspectrum", "--matrix"], None,
     ["1e308", "0", "0", "1e308"], 1),
    ("count-zero", ["deficiency", "--preset", "free_jacobi", "--N", "400",
                    "--window", "50", "--count", "0"], None, None, 0),
    # an infinite shift once marched as 24 infinite shifts (deficiency) or
    # failed an SVD (invariance)
    ("q-overflow-deficiency", ["deficiency", "--preset", "free_jacobi", "--q", "1e400i"],
     None, None, 2),
    ("q-overflow-invariance", ["invariance", "--q", "1e400i", "--dim", "3",
                               "--trials", "2"], None, None, 2),
    ("nan-band", BAND_ARGV, None, band_config([float("nan")]), 2),
    ("overflow-band", BAND_ARGV, None, band_config([1e308]), 2),
    # (n)^60 on the diagonal: finite on the 40 validated rows, overflowing
    # squared norms from row 371 on
    ("overflow-band-past-row-40", BAND_ARGV, None,
     band_config([1.0], diagonal=[0.0] * 60 + [1.0]), 2),
]


class TestBadInput:
    @pytest.mark.parametrize("argv,env,entries,expected",
                             [case[1:] for case in BAD_INPUT],
                             ids=[case[0] for case in BAD_INPUT])
    def test_message_not_traceback(self, argv, env, entries, expected, tmp_path,
                                   capsys, monkeypatch):
        if env is not None:
            monkeypatch.setenv("QDEF_TOL_OVERRIDES", json.dumps(env))
        if entries is not None:
            m = tmp_path / "m.json"
            obj = entries if isinstance(entries, dict) else {"dim": 2, "entries": entries}
            m.write_text(json.dumps(obj))
            argv = argv + [str(m)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err + "".join(
            warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
            for w in caught)
        assert code in (0, 1, 2) and code == expected, (code, err)
        assert "Traceback" not in err
        if code:
            lines = err.splitlines()
            assert len(lines) == 1, err     # no numpy warnings before it
            assert lines[0].startswith(
                "config error: " if code == 2 else "property failure: ")
        if isinstance(entries, dict):
            assert "non-finite squared norm" in err
        if env is not None:                 # the message names the bad key
            assert any(f"'{key}'" in err or f"error: {key} " in err for key in env)


@pytest.mark.parametrize("q", ["1e-200i", "1e200+1e-200i", "1e300i"])
def test_shift_at_the_ends_of_the_double_range(q, capsys):
    # once refused as real (|Im q| read 0) or ended by an OverflowError
    code = main(["deficiency", "--preset", "free_jacobi", "--N", "400", "--window", "40",
                 "--count", "3", f"--q={q}"])
    captured = capsys.readouterr()
    assert code in (0, 1) and captured.err == ""
    report = json.loads(captured.out)["deficiency"]
    assert (report["n_plus"], report["n_minus"], report["status"]) == (0, 0, "ok")


@pytest.mark.parametrize("command", ["verify", "sspectrum", "report"])
def test_dim_zero_matrix_is_config_error(command, tmp_path, capsys):
    # once a zero-size reduction traceback in verify, and accepted by sspectrum
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"dim": 0, "entries": []}))
    assert main([command, "--matrix", str(m)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {m}: dim must be at least 1, got 0\n"


_JACOBI = '"coeff": {"offset_-1": [1], "offset_0": [0], "offset_1": [1]}'


@pytest.mark.parametrize("command,text,message", [
    # once an AttributeError traceback
    ("deficiency", '{"bandwidth": 1, "coeff": [1, 2]}', "coeff must be an object, got list"),
    # once "property failure: OverflowError"
    ("deficiency", '{"bandwidth": 1e400, %s}' % _JACOBI, "bandwidth is not finite: inf"),
    ("verify", '{"dim": 1e400, "entries": []}', "dim is not finite: inf"),
    # once read one character per entry
    ("verify", '{"dim": 2, "entries": "1234"}', "entries must be a list, got str"),
    # once read as true
    ("deficiency", '{"bandwidth": 1, "real_entries": "no", %s}' % _JACOBI,
     "real_entries must be true or false, got 'no'"),
    ("deficiency", '{"bandwidth": 1, "symmetric": "false", %s}' % _JACOBI,
     "symmetric must be true or false, got 'false'"),
    ("verify", '{"dim": 2, "entries": ["1", "0", "0", "1"], "hermitian": "no"}',
     "hermitian must be true or false, got 'no'"),
    # once truncated to the operator of dim 2, bandwidth 1 and dim 1
    ("verify", '{"dim": 2.7, "entries": ["1", "0", "0", "1"]}',
     "dim is not an integer: 2.7"),
    ("deficiency", '{"bandwidth": 1.9, %s}' % _JACOBI, "bandwidth is not an integer: 1.9"),
    ("verify", '{"dim": true, "entries": ["1"]}', "dim is not a number: True"),
    # once read one character per coefficient, as the coefficients 1 and 2
    ("deficiency", '{"bandwidth": 0, "coeff": {"offset_0": "12"}}',
     "offset_0 must be a list, got str"),
    # once read as 1.0
    ("deficiency", '{"bandwidth": 1, "coeff": {"offset_-1": [1], "offset_0": [0], '
                   '"offset_1": [true]}}', "offset_1 is not a number: True"),
    ("verify", '{"dim": 1, "entries": [true]}', "entries is not a number: True"),
    # once Python's own message, which named no key
    ("deficiency", '{"bandwidth": 1, "coeff": {"offset_x": [1]}}',
     "offset_x does not name an integer offset"),
    ("deficiency", '{"bandwidth": 1, "coeff": {"offset_1.5": [1]}}',
     "offset_1.5 does not name an integer offset"),
    ("deficiency", '{"bandwidth": 1, "coeff": {"offset_0": [null]}}',
     "offset_0 is not a number: None"),
    ("deficiency", '{"bandwidth": 1, "coeff": {"offset_0": [[1, 2]]}}',
     "offset_0 is not a number: [1, 2]"),
    ("deficiency", '{"bandwidth": 1, "coeff": {"offset_0": [{"re": 1}]}}',
     "offset_0 is not a number: {'re': 1}"),
    ("verify", '{"dim": 1, "entries": [null]}', "entries is not a number: None"),
    ("verify", '{"dim": 1, "entries": [[1]]}', "entries is not a number: [1]"),
    ("verify", '{"dim": 1, "entries": [{}]}', "entries is not a number: {}"),
    ("deficiency", '{"bandwidth": 1}', "coeff is missing"),
    ("verify", '{"entries": [1]}', "dim is missing"),
    ("verify", '{"dim": 1}', "entries is missing"),
    # once read as the numbers 1 and 2
    ("deficiency", '{"bandwidth": "1", %s}' % _JACOBI, "bandwidth is not a number: '1'"),
    ("verify", '{"dim": "2", "entries": ["1", "0", "0", "1"]}',
     "dim is not a number: '2'"),
    ("deficiency", '{"bandwidth": -1, %s}' % _JACOBI, "bandwidth must be nonnegative"),
    ("deficiency", '{"bandwidth": 1, "coeff": {"type": "table", "offset_0": [1]}}',
     "unknown coefficient generator type 'table'"),
], ids=["coeff-list", "bandwidth-inf", "dim-inf", "entries-string",
        "real_entries-string", "symmetric-string", "hermitian-string", "dim-fraction",
        "bandwidth-fraction", "dim-bool", "offset-string", "offset-bool", "entries-bool",
        "offset-key-text", "offset-key-fraction", "offset-null", "offset-list",
        "offset-object", "entries-null", "entries-list", "entries-object",
        "coeff-missing", "dim-missing", "entries-missing", "bandwidth-string",
        "dim-string", "bandwidth-negative", "coeff-type-unknown"])
def test_malformed_operator_file_is_config_error(command, text, message, tmp_path,
                                                 capsys):
    m = tmp_path / "m.json"
    m.write_text(text)
    assert main([command, "--matrix", str(m), "--N", "200", "--window", "20",
                 "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {m}: {message}\n"


@pytest.mark.parametrize("command,key,obj", [
    ("verify", "dim", {"dim": 2, "entries": ["1", "0", "0", "1"]}),
    ("deficiency", "bandwidth", {"bandwidth": 1, "coeff": {
        "offset_-1": [1], "offset_0": [0], "offset_1": [1]}}),
])
def test_integral_float_fields_are_integers(command, key, obj, tmp_path, capsys):
    m = tmp_path / "m.json"
    outputs = []
    for value in (obj[key], float(obj[key])):
        m.write_text(json.dumps({**obj, key: value}))
        code = main([command, "--matrix", str(m), "--N", "200", "--window", "20",
                     "--count", "1"])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0][0] in (0, 1)
    assert outputs[0] == outputs[1]


def test_json_renders_numpy_scalars():
    report = {"flag": np.bool_(True), "count": np.int64(3), "ratio": np.float32(0.5)}
    assert json.loads(qdef.cli._render(report, "json")) == {"flag": True, "count": 3,
                                                            "ratio": 0.5}
    for obj in (np.complex128(1j), np.array([1.0]), object()):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            qdef.cli._json_scalar(obj)


class TestErrorPrecedence:
    """A command sets up every stage before anything marches: a set-up error
    (unit, scan centre, scan applicability) comes first, then the first march
    to fail, in batch order, names the error."""

    @pytest.mark.parametrize("argv,band,err", [
        # the scan's centre is read before the indices march
        (["deficiency", "--preset", "free_jacobi", "--N", "5", "--q", "1"], None,
         "stability scan center must be non-real"),
        (["deficiency", "--preset", "free_jacobi", "--N", "400", "--window", "50",
          "--q", "1"], None, "stability scan center must be non-real"),
        (["deficiency", "--preset", "free_jacobi", "--N", "400", "--window", "50",
          "--q", "1e400i"], None, "--q '1e400i' has a non-finite component"),
        (["deficiency", "--N", "5", "--matrix"], QUATERNION_BAND,
         "stability scan is implemented for real-entried symmetric operators"),
        (["deficiency", "--N", "600", "--window", "60", "--matrix"], QUATERNION_BAND,
         "stability scan is implemented for real-entried symmetric operators"),
        (["verify", "--N", "600", "--window", "60", "--matrix"], QUATERNION_BAND,
         "stability scan is implemented for real-entried symmetric operators"),
        (["verify", "--N", "5", "--matrix"], QUATERNION_BAND,
         "stability scan is implemented for real-entried symmetric operators"),
        # once "property failure: MemoryError" from the march's 7 TiB table
        (["deficiency", "--preset", "free_jacobi", "--N", "1000000000000", "--q", "1"],
         None, "stability scan center must be non-real"),
    ])
    def test_first_error(self, argv, band, err, tmp_path, capsys):
        if band is not None:
            path = tmp_path / "band.json"
            path.write_text(json.dumps(band))
            argv = argv + [str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {err}\n"

    def test_verify_raises_the_earlier_stage_error(self, monkeypatch, capsys):
        residual = qdef.deficiency.recurrence_residual

        # the scan's samples, in the shared batch, and the doubled run, a
        # later batch, fail with different residuals: the shared batch's
        # failure is the error
        def failing(op, sol):
            if sol.length == 1201:
                return 1.0
            return 2.0 if sol.q.q0 != 0.0 else residual(op, sol)

        monkeypatch.setattr(qdef.deficiency, "recurrence_residual", failing)
        assert main(["verify", "--preset", "jacobi_sq", "--N", "600",
                     "--window", "60"]) == 1
        assert capsys.readouterr().err == \
            "property failure: forward recurrence residual 2.000e+00 exceeds 1e-10\n"

    def test_verify_answers_bandwidth_7(self, tmp_path, capsys):
        # diag(n) plus a bounded symmetric perturbation: self-adjoint, (0, 0);
        # the oracle once marched 60 rows of its own, too few for w >= 7
        path = tmp_path / "band.json"
        path.write_text(json.dumps({"bandwidth": 7, "coeff": {
            "offset_-7": [1.0], "offset_0": [0.0, 1.0], "offset_7": [1.0]}}))
        assert main(["verify", "--N", "4000", "--window", "100",
                     "--matrix", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["checks"]) == 7 and all(c["passed"] for c in out["checks"])
        assert (out["summary"]["n_plus"], out["summary"]["n_minus"]) == (0, 0)

    @staticmethod
    def count_marches(monkeypatch):
        """The N of every _march from now on."""
        marches = []
        real_march = qdef.deficiency._march

        def counting(table, shifts, N, seeds, reverse=False):
            marches.append(N)
            return real_march(table, shifts, N, seeds, reverse)

        monkeypatch.setattr(qdef.deficiency, "_march", counting)
        return marches

    def test_verify_refuses_before_marching(self, tmp_path, capsys, monkeypatch):
        marches = self.count_marches(monkeypatch)
        path = tmp_path / "band.json"
        path.write_text(json.dumps(QUATERNION_BAND))
        assert main(["verify", "--N", "2000", "--window", "60",
                     "--matrix", str(path)]) == 2
        assert capsys.readouterr().err == ("config error: stability scan is implemented "
                                           "for real-entried symmetric operators\n")
        assert marches == []

    @pytest.mark.parametrize("argv,err", [
        # the 60-row dense oracle keeps no row at bandwidth 60, whatever N is
        (["verify", "--N", "2000", "--window", "100", "--matrix", "W60"],
         "truncation M = 60 keeps no row at bandwidth 60"),
        (["report", "--N", "2000", "--window", "100", "--matrix", "W60"],
         "truncation M = 60 keeps no row at bandwidth 60"),
        # report sets up its deficiency part before verify marches
        (["report", "--preset", "jacobi_sq", "--q", "1"],
         "stability scan center must be non-real"),
    ], ids=["verify-w60", "report-w60", "report-real-q"])
    def test_set_up_error_before_marching(self, argv, err, tmp_path, capsys,
                                          monkeypatch):
        marches = self.count_marches(monkeypatch)
        path = tmp_path / "band.json"
        path.write_text(json.dumps({"bandwidth": 60, "coeff": {
            "offset_-60": [1.0], "offset_0": [0.0, 1.0], "offset_60": [1.0]}}))
        assert main([str(path) if a == "W60" else a for a in argv]) == 2
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert marches == []


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_module_entry_point():
    done = subprocess.run(
        [sys.executable, "-m", "qdef", "deficiency", "--preset", "free_jacobi",
         "--N", "400", "--window", "50", "--count", "0"],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert json.loads(done.stdout)["deficiency"]["self_adjoint"] is True


def test_cli_run_does_not_import_scipy():
    code = ("import sys, qdef.cli; "
            "code = qdef.cli.main(['deficiency', '--preset', 'free_jacobi', "
            "'--N', '400', '--window', '50', '--count', '0']); "
            "print(code, 'scipy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"
