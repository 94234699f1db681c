"""Command dispatch, record emission, determinism, exit codes."""

import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mostinf import cli
from mostinf.cli import RunRecord, emit, main
from mostinf.cube import BooleanFunction, format_truth_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def strip_timing(record):
    return {k: v for k, v in record.items() if k != "wall_time_ms"}


class TestEmit:
    def test_json_sorted_keys_and_float_width(self):
        rec = RunRecord("demo", {"x": 1}, seed=3)
        rec.add("value", 1.0 / 3.0)
        rec.passed = True
        text = emit(rec, "json").decode()
        obj = json.loads(text)
        assert list(obj) == sorted(obj)
        assert "0.33333333333333331" in text

    def test_empty_results_still_valid(self):
        rec = RunRecord("demo", {}, seed=0)
        obj = json.loads(emit(rec, "json"))
        assert obj["results"] == []
        assert obj["version"]

    def test_byte_identical_across_calls(self):
        rec = RunRecord("demo", {"a": 0.1}, seed=1)
        rec.add("m", 0.25)
        assert emit(rec, "json") == emit(rec, "json")
        assert emit(rec, "csv") == emit(rec, "csv")

    def test_csv_shape(self):
        rec = RunRecord("demo", {}, seed=0)
        rec.add("alpha_margin", 0.5)
        rec.add("count", 7)
        lines = emit(rec, "csv").decode().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "alpha_margin,0.5"
        assert lines[2] == "count,7"

    def test_rejects_non_finite(self):
        rec = RunRecord("demo", {}, seed=0)
        rec.add("bad", float("nan"))
        with pytest.raises(ValueError):
            emit(rec, "json")


class TestBooleanCommands:
    def test_verify_passes(self, capsys):
        code, obj = run_json(capsys, "boolean", "verify", "--n", "2",
                             "--alpha", "0.3")
        assert code == 0
        assert obj["pass"] is True
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["max_mi"] == pytest.approx(0.11870910076930738,
                                                  abs=1e-12)
        assert metrics["argmax_is_dictators"] is True

    def test_verify_rerun_is_deterministic(self, capsys):
        _, first = run_json(capsys, "boolean", "verify", "--n", "3",
                            "--alpha", "0.2", "--seed", "5")
        _, second = run_json(capsys, "boolean", "verify", "--n", "3",
                             "--alpha", "0.2", "--seed", "5")
        assert strip_timing(first) == strip_timing(second)

    def test_verify_csv_dump_small_n(self, capsys):
        code, out = run_cli(capsys, "boolean", "verify", "--n", "2",
                            "--alpha", "0.3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "function_index,mi"
        assert len(lines) == 17

    def test_mi_file_roundtrip(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        f = BooleanFunction(3, rng.integers(0, 2, 8))
        path = tmp_path / "table.tt"
        path.write_text(format_truth_table(f))
        code, obj = run_json(capsys, "boolean", "mi", "--tt", str(path),
                             "--alpha", "0.2")
        assert code == 0
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["path_difference"] <= 1e-10

    def test_mi_multi_output(self, capsys, tmp_path):
        path = tmp_path / "multi.tt"
        path.write_text("n=2 k=2\n0 1 2 3\n")
        code, obj = run_json(capsys, "boolean", "mi", "--tt", str(path),
                             "--alpha", "0.0", "--multi", "2")
        assert code == 0
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["mi"] == pytest.approx(2.0, abs=1e-9)

    def test_family_and_k_comparison(self, capsys):
        code, obj = run_json(capsys, "boolean", "family", "--kind", "and_k",
                             "--n", "4", "--k", "2", "--alpha", "0.2")
        assert code == 0
        names = [m["name"] for m in obj["results"]]
        assert "mi_exact_form" in names and "mi_simple_form" in names

    def test_perfect_code(self, capsys):
        code, obj = run_json(capsys, "boolean", "perfect-code",
                             "--alpha", "0.1")
        assert code == 0
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["per_bit"] > metrics["bound"]
        assert obj["pass"] is True

    def test_lex_failure(self, capsys):
        code, obj = run_json(capsys, "boolean", "lex-failure", "--k", "10",
                             "--n", "500", "--alpha", "0.48")
        assert code == 0
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["ball_wins"] is True

    @pytest.mark.parametrize("k,n,alpha", [("3", "3", "0"),
                                           ("1", "1", "0.2")])
    def test_lex_failure_with_n_at_k(self, capsys, k, n, alpha):
        # Mean 2^-k on n = k bits is the one-point ball, of radius 0.
        code, obj = run_json(capsys, "boolean", "lex-failure", "--k", k,
                             "--n", n, "--alpha", alpha)
        assert code == 0
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["w1_ball"] == pytest.approx(int(n) * 4.0 ** -int(n))

    def test_taylor(self, capsys):
        code, obj = run_json(capsys, "boolean", "taylor", "--n", "6",
                             "--trials", "25", "--seed", "2")
        assert code == 0
        assert obj["pass"] is True

    def test_verify_n5_partial_scan(self, capsys, tmp_path):
        ckpt = tmp_path / "n5.json"
        code, obj = run_json(capsys, "boolean", "verify", "--n", "5",
                             "--alpha", "0.3", "--checkpoint", str(ckpt),
                             "--chunk", "4096", "--max-chunks", "1")
        assert code == 0  # incomplete scan is informational, not a failure
        assert "pass" not in obj
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["scan_complete"] is False
        assert metrics["functions_scanned"] == 2 * 4096


class TestSeedDeterminism:
    def test_randomized_command_bit_identical(self, capsys):
        args = ["sphere", "polarize-check", "--grid", "16", "--rho", "0.3",
                "--trials", "3", "--seed", "9"]
        _, first = run_json(capsys, *args)
        _, second = run_json(capsys, *args)
        assert strip_timing(first) == strip_timing(second)

    def test_mc_command_bit_identical(self, capsys):
        args = ["gauss", "factor-check", "--bigN", "9", "--n", "2",
                "--seed", "6", "--trials", "10", "--samples", "2000"]
        _, first = run_json(capsys, *args)
        _, second = run_json(capsys, *args)
        assert strip_timing(first) == strip_timing(second)


class TestSphereCommands:
    def test_polarize_check(self, capsys):
        code, obj = run_json(capsys, "sphere", "polarize-check", "--grid",
                             "32", "--rho", "0.3", "--psi", "neg-entropy",
                             "--trials", "5", "--seed", "7")
        assert code == 0
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["failures"] == 0
        assert metrics["checks"] == 5 * 31

    def test_rearrange_json(self, capsys):
        code, obj = run_json(capsys, "sphere", "rearrange", "--grid", "32",
                             "--rho", "0.5", "--steps", "100", "--seed", "3")
        assert code == 0
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["l1_monotone"] is True
        assert metrics["j_monotone"] is True

    def test_rearrange_csv_trace(self, capsys):
        code, out = run_cli(capsys, "sphere", "rearrange", "--grid", "16",
                            "--rho", "0.4", "--steps", "10", "--seed", "3",
                            "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,J,l1_distance"
        assert len(lines) == 12

    def test_mc(self, capsys):
        code, obj = run_json(capsys, "sphere", "mc", "--dim", "3",
                             "--points", "400", "--seed", "11")
        assert code == 0
        assert obj["pass"] is True


class TestGaussCommands:
    def test_halfspace_vs(self, capsys):
        code, obj = run_json(capsys, "gauss", "halfspace-vs", "--measure",
                             "0.5", "--rho", "0.6", "--seed", "4")
        assert code == 0
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["margin"] >= -1e-8

    def test_halfspace_vs_explicit_spec(self, capsys):
        code, obj = run_json(capsys, "gauss", "halfspace-vs", "--measure",
                             "0.5", "--rho", "0.5", "--spec",
                             "[[-0.6745, 0.6745]]")
        assert code == 0
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["set_measure"] == pytest.approx(0.5, abs=1e-3)

    def test_halfspace_vs_spec_ignores_the_measure(self, capsys):
        # A --spec union reads neither --measure nor --pieces, so neither
        # is checked or recorded.
        code, obj = run_json(capsys, "gauss", "halfspace-vs", "--measure",
                             "nan", "--rho", "0.5", "--spec",
                             "[[-0.6745, 0.6745]]")
        assert code == 0
        assert sorted(obj["params"]) == ["rho", "spec"]

    def test_kernel_limit_pass_and_csv(self, capsys):
        code, obj = run_json(capsys, "gauss", "kernel-limit", "--n", "2",
                             "--rho", "0.5", "--bigN", "50,200,1000")
        assert code == 0 and obj["pass"] is True
        code, out = run_cli(capsys, "gauss", "kernel-limit", "--n", "2",
                            "--rho", "0.5", "--bigN", "50,200", "--format",
                            "csv")
        assert out.splitlines()[0] == "N,value,reference,abs_err,rel_err"

    def test_kernel_limit_detects_non_monotone(self, capsys):
        # Feeding the N list in decreasing order makes the monotonicity
        # check fail, exercising the nonzero exit path.
        code, obj = run_json(capsys, "gauss", "kernel-limit", "--n", "2",
                             "--rho", "0.5", "--bigN", "1000,200,50")
        assert code == 1
        assert obj["pass"] is False

    def test_factor_check(self, capsys):
        code, obj = run_json(capsys, "gauss", "factor-check", "--bigN", "9",
                             "--n", "2", "--seed", "3", "--trials", "50",
                             "--samples", "4000")
        assert code == 0
        metrics = {m["name"]: m["value"] for m in obj["results"]}
        assert metrics["a_bound_violations"] == 0
        assert metrics["factorization_worst_rel"] <= 1e-9


def assert_one_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("mostinf: error: ")
    assert len(err.splitlines()) == 1
    return err


class TestDispatchErrors:
    def test_usage_error_exit_2(self, capsys):
        assert main(["boolean", "verify", "--n"]) == 2
        assert "--n: expected one argument" in assert_one_error_line(capsys)

    def test_unknown_command_exit_2(self, capsys):
        assert main(["quantum"]) == 2
        assert "'quantum'" in assert_one_error_line(capsys)

    def test_alpha_range_enforced(self, capsys):
        assert main(["boolean", "verify", "--n", "2", "--alpha", "0.7"]) == 2
        assert "alpha must lie in [0, 0.5]" in assert_one_error_line(capsys)

    def test_help_exits_0_with_help_on_stdout(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sphere", "mc", "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: mostinf sphere mc ")
        assert err == ""

    @pytest.mark.parametrize("argv", [
        ["boolean", "verify", "--n", "7", "--alpha", "0.1"],
        ["gauss", "halfspace-vs", "--measure", "1.5", "--rho", "0.5"],
        ["boolean", "mi", "--tt", "no-such-table.tt", "--alpha", "0.2"],
        ["boolean", "verify", "--n", "2", "--alpha", "0.1",
         "--out", "no-such-dir/record.json"],
        ["boolean", "mi", "--tt", "no-n.tt", "--alpha", "0.2"],
        ["boolean", "mi", "--tt", "no-conv.tt", "--alpha", "0.2"],
        ["boolean", "mi", "--tt", "empty.tt", "--alpha", "0.2",
         "--multi", "2"],
        ["gauss", "factor-check", "--bigN", "9", "--n", "2",
         "--samples", "1"],
        ["boolean", "family", "--kind", "majority", "--n", "41",
         "--alpha", "0.1"],
        ["boolean", "taylor", "--n", "45"],
        ["sphere", "mc", "--dim", "4", "--points", "0"],
        ["sphere", "mc", "--dim", "4", "--points", "2000000"],
        ["sphere", "mc", "--dim", "100000", "--points", "2000"],
        ["boolean", "taylor", "--n", "4", "--trials", "-1"],
        ["sphere", "rearrange", "--grid", "16", "--rho", "0.5",
         "--steps", "-1"],
        ["sphere", "polarize-check", "--grid", "16", "--rho", "0.3",
         "--trials", "-3"],
        ["gauss", "kernel-limit", "--n", "0", "--rho", "0.5",
         "--bigN", "50,200"],
        ["boolean", "verify", "--n", "5", "--alpha", "0.1",
         "--max-chunks", "-1"],
        ["boolean", "verify", "--n", "4", "--alpha", "0.1", "--chunk", "0"],
        ["boolean", "verify", "--n", "5", "--alpha", "0.2",
         "--max-chunks", "0"],
        ["gauss", "kernel-limit", "--n", "2", "--rho", "0.5",
         "--bigN", "50,200,50"],
        ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5",
         "--spec", ""],
        ["gauss", "factor-check", "--bigN", "253", "--n", "2"],
        ["gauss", "factor-check", "--bigN", "1000", "--n", "2"],
        ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5",
         "--spec", "[0.5, 1.5]"],
        ["gauss", "factor-check", "--bigN", "20", "--n", "12"],
        ["gauss", "factor-check", "--bigN", "300", "--n", "290"],
        ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5",
         "--spec", "null"],
        ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5",
         "--spec", "[[0.1, 0.5, 0.9]]"],
        ["sphere", "polarize-check", "--grid", "5794", "--rho", "0.3",
         "--trials", "1"],
        ["boolean", "verify", "--n", "5", "--alpha", "0.3", "--chunk",
         "2147483648", "--max-chunks", "1"],
        ["boolean", "mi", "--tt", "multi.tt", "--alpha", "0.2",
         "--multi", "-1"],
        ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5",
         "--pieces", "-1"],
        ["sphere", "mc", "--dim", "800", "--points", "2"],
        ["sphere", "mc", "--dim", "5000", "--points", "2"],
        ["gauss", "kernel-limit", "--n", "10000", "--rho", "0.5",
         "--bigN", "50"],
        ["gauss", "kernel-limit", "--n", "10000", "--rho", "0.5",
         "--bigN", "2000000"],
        ["boolean", "verify", "--n"],
        ["quantum"],
        ["sphere", "mc", "--dim", "4", "--points", "x"],
        ["boolean", "family", "--kind", "parity", "--n", "3",
         "--alpha", "0.1"],
        ["boolean", "verify", "--n", "2", "--alpha", "0.1", "--bogus"],
        ["boolean", "verify", "--n", "2", "--alpha", "0.7"],
        ["sphere", "rearrange", "--grid", "16", "--rho", "1.5"],
        ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "nan"],
        ["sphere", "polarize-check", "--grid", "16", "--rho", "0.3",
         "--psi", "foo"],
        ["sphere", "polarize-check", "--grid", "16", "--rho", "0.3",
         "--psi", "abs:0.5"],
        ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5",
         "--pieces", "2147483648"],
        ["gauss", "factor-check", "--bigN", "9", "--n", "2",
         "--samples", "2147483648"],
        ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5",
         "--spec", "[[true, 2]]"],
    ])
    def test_bad_input_exit_2_one_line(self, capsys, tmp_path, monkeypatch,
                                       argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "no-n.tt").write_text("conv=zero_one\n0110\n")
        (tmp_path / "no-conv.tt").write_text("n=2\n0110\n")
        (tmp_path / "empty.tt").write_text("")
        (tmp_path / "multi.tt").write_text("n=2\n0 1 2 3\n")
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("mostinf: error: ")
        assert len(err.splitlines()) == 1

    def test_multi_zero_names_the_output_bits(self, capsys, tmp_path):
        # --multi 0 is a multi-output call with no output bit, not the
        # binary path, which would reject the header for lacking conv=.
        table = tmp_path / "multi.tt"
        table.write_text("n=2\n0 1 2 3\n")
        assert main(["boolean", "mi", "--tt", str(table), "--alpha", "0.2",
                     "--multi", "0"]) == 2
        assert "output bits k=0 must be >= 1" in capsys.readouterr().err

    def test_rejected_psi_reports_the_reason(self, capsys):
        for power in ("0.5", "nan", "inf"):
            assert main(["sphere", "polarize-check", "--grid", "8", "--rho",
                         "0.3", "--psi", f"abs:{power}"]) == 2
            err = assert_one_error_line(capsys)
            assert "abs_power requires p >= 1" in err
            assert "_psi" not in err

    def test_truncated_checkpoint_exit_2(self, capsys, tmp_path):
        ckpt = tmp_path / "scan.json"
        ckpt.write_text('{"n": 5, "alpha": 0.3, "ne')
        code = main(["boolean", "verify", "--n", "5", "--alpha", "0.3",
                     "--checkpoint", str(ckpt)])
        assert code == 2
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("next", "x"), ("next", 2.5), ("next", None), ("next", -4),
        ("next", 500), ("max_mi", "a"), ("witnesses", [256])])
    def test_bad_checkpoint_value_exit_2(self, capsys, tmp_path, key, value):
        ckpt = tmp_path / "scan.json"
        argv = ["boolean", "verify", "--n", "3", "--alpha", "0.1", "--chunk",
                "16", "--checkpoint", str(ckpt)]
        assert main(argv + ["--max-chunks", "1"]) == 0
        state = json.loads(ckpt.read_text())
        state[key] = value
        ckpt.write_text(json.dumps(state))
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("mostinf: error: checkpoint ")
        assert len(err.splitlines()) == 1

    def test_numerical_guard_is_not_a_usage_error(self, monkeypatch):
        def guard(*args, **kwargs):
            raise AssertionError("smoothed table escaped the convex hull")
        monkeypatch.setattr("mostinf.search.exhaustive_verify", guard)
        with pytest.raises(AssertionError):
            main(["boolean", "verify", "--n", "3", "--alpha", "0.1"])

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "record.json"
        code = main(["boolean", "verify", "--n", "2", "--alpha", "0.3",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["command"] == "boolean verify"


# Small arguments for every subcommand, and the record they must give: its
# params keys, its result names in order, whether it carries a verdict, and
# the header of its --format csv output.
_SCHEMA = [
    (["boolean", "verify", "--n", "2", "--alpha", "0.3"],
     ["alpha", "n"],
     ["max_mi", "bound", "margin", "functions_scanned", "argmax_count",
      "argmax_hex", "argmax_is_dictators"], True, "function_index,mi"),
    (["boolean", "verify", "--n", "4", "--alpha", "0.3", "--chunk", "1024",
      "--max-chunks", "1"],
     ["alpha", "n"],
     ["max_mi", "bound", "margin", "functions_scanned", "argmax_count",
      "argmax_hex", "argmax_is_dictators", "scan_complete"], False,
     "name,value"),
    (["boolean", "mi", "--tt", "table.tt", "--alpha", "0.2"],
     ["alpha", "tt"], ["mi", "mean", "mi_phi_path", "path_difference"],
     False, "name,value"),
    (["boolean", "mi", "--tt", "multi1.tt", "--alpha", "0.2", "--multi", "1"],
     ["alpha", "multi", "tt"], ["mi", "per_bit"], False, "name,value"),
    (["boolean", "mi", "--tt", "multi.tt", "--alpha", "0.2", "--multi", "2"],
     ["alpha", "multi", "tt"], ["mi", "per_bit"], False, "name,value"),
    (["boolean", "family", "--kind", "and_k", "--n", "4", "--alpha", "0.2"],
     ["alpha", "k", "kind", "n"],
     ["mean", "mi", "w1", "mi_exact_form", "mi_simple_form",
      "simple_form_ratio"], False, "name,value"),
    (["boolean", "family", "--kind", "hamming_ball", "--n", "4", "--ones",
      "5", "--alpha", "0.2"],
     ["alpha", "kind", "n", "ones_count"], ["mean", "mi", "w1"], False,
     "name,value"),
    (["boolean", "family", "--kind", "majority", "--n", "3", "--alpha",
      "0.2"],
     ["alpha", "kind", "n"], ["mean", "mi", "w1"], False, "name,value"),
    (["boolean", "perfect-code", "--alpha", "0.1"],
     ["alpha"], ["mi", "per_bit", "bound", "margin"], True, "name,value"),
    (["boolean", "lex-failure", "--k", "3", "--n", "40", "--alpha", "0.1"],
     ["alpha", "k", "n"],
     ["mi_ball", "mi_and", "mi_ratio", "w1_ball", "w1_and",
      "w1_limit_ratio", "ball_wins"], False, "name,value"),
    (["boolean", "taylor", "--n", "3", "--trials", "5"],
     ["n", "trials"], ["trials", "failures", "worst_rel_err"], True,
     "name,value"),
    (["sphere", "polarize-check", "--grid", "8", "--rho", "0.3",
      "--trials", "2"],
     ["grid", "psi", "rho", "trials"],
     ["checks", "failures", "worst_j_drop", "worst_sum_dev",
      "worst_diff_margin"], True, "name,value"),
    (["sphere", "rearrange", "--grid", "8", "--rho", "0.4", "--steps", "5"],
     ["grid", "rho", "steps"],
     ["l1_initial", "l1_final", "l1_monotone", "j_initial", "j_final",
      "j_rearranged", "j_monotone"], True, "step,J,l1_distance"),
    (["sphere", "mc", "--dim", "3", "--points", "100"],
     ["dim", "points", "rho"],
     ["weight_sum", "mean_pole_projection", "j_before", "j_after",
      "max_sum_dev", "min_diff_margin", "max_abs_kf"], True, "name,value"),
    (["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5"],
     ["measure", "pieces", "rho"],
     ["set_measure", "neg_cond_entropy_set", "neg_cond_entropy_halfspace",
      "margin", "mi_set", "mi_halfspace"], True, "name,value"),
    (["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.5", "--spec",
      "[[-2.0, -1.0], [0.5, 1.5]]"],
     ["rho", "spec"],
     ["set_measure", "neg_cond_entropy_set", "neg_cond_entropy_halfspace",
      "margin", "mi_set", "mi_halfspace"], True, "name,value"),
    (["gauss", "kernel-limit", "--n", "2", "--rho", "0.5", "--bigN",
      "50,200"],
     ["bigN", "n", "rho"], ["rel_err_N50", "rel_err_N200", "errors_monotone"],
     True, "N,value,reference,abs_err,rel_err"),
    (["gauss", "factor-check", "--bigN", "9", "--n", "2", "--trials", "5",
      "--samples", "500"],
     ["bigN", "n", "rho", "samples", "trials"],
     ["factorization_worst_rel", "a_bound_violations",
      "poisson_factor_mass", "poisson_factor_sigma",
      "poisson_factor_mass_quad", "poisson_factor_quad_err",
      "decomposition_ratio_const", "decomposition_ratio_x1sq",
      "decomposition_ratio_exact", "decomposition_consistent"], True,
     "name,value"),
]


@pytest.mark.parametrize(
    "argv,params,names,verdict,csv_header", _SCHEMA,
    ids=[" ".join(case[0][:2]) + (" --spec" if "--spec" in case[0] else "")
         for case in _SCHEMA])
def test_record_schema(capsys, tmp_path, monkeypatch, argv, params, names,
                       verdict, csv_header):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.tt").write_text("n=3 conv=zero_one\n01101001\n")
    (tmp_path / "multi.tt").write_text("n=2 k=2\n0 1 2 3\n")
    (tmp_path / "multi1.tt").write_text("n=2 k=1\n0 1 1 0\n")
    code, obj = run_json(capsys, *argv)
    assert code == 0
    assert sorted(obj["params"]) == params
    assert [m["name"] for m in obj["results"]] == names
    assert ("pass" in obj) == verdict
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == csv_header


def _readme_examples() -> list:
    """The argument lists of the README's ``mostinf ...`` example lines."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    examples = [shlex.split(line)[1:]
                for line in block.split("```", 1)[0].splitlines()
                if line.startswith("mostinf ")]
    if not examples:
        raise ValueError("README's command-line section lists no example")
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv", README_EXAMPLES,
                         ids=[" ".join(a[:2]) for a in README_EXAMPLES])
def test_readme_example_runs(capsys, tmp_path, monkeypatch, argv):
    """Each README example exits 0 with one record on stdout."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.tt").write_text("n=3 conv=zero_one\n01101001\n")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    if "csv" in argv:
        lines = out.splitlines()
        assert lines.count(lines[0]) == 1
    else:
        assert json.loads(out)["command"] == " ".join(argv[:2])


# What the sweep puts in place of one numeric flag of a README example.
SWEEP_VALUES = ("0", "-1", "1", "2147483648", "nan", "inf", "", "word")
# Valid counts that would run for hours, so the sweep leaves them out.
SWEEP_SKIPPED = {("--trials", "2147483648"), ("--steps", "2147483648")}
# Counts and sizes lowered while the sweep replaces a different flag of the
# same example, which keeps the sweep near 2 s: the argv still does the
# same kind of work, with fewer trials, steps or points, or in 100 rather
# than 1000 dimensions.
SWEEP_LOWERED = {("taylor", "--trials"): "2",
                 ("polarize-check", "--trials"): "2",
                 ("rearrange", "--steps"): "5",
                 ("mc", "--points"): "20",
                 ("lex-failure", "--n"): "100"}


def _is_numeric(value: str) -> bool:
    try:
        for tok in value.split(","):
            float(tok)
    except ValueError:
        return False
    return True


def _mutations(argv: list) -> list:
    """Each argv with one numeric flag's value replaced by one value of
    SWEEP_VALUES, its other flags lowered per SWEEP_LOWERED."""
    flags = [i for i in range(len(argv) - 1) if argv[i].startswith("--")
             and _is_numeric(argv[i + 1])]
    out = []
    for i in flags:
        base = list(argv)
        for j in flags:
            if j != i:
                base[j + 1] = SWEEP_LOWERED.get((argv[1], argv[j]),
                                                argv[j + 1])
        for value in SWEEP_VALUES:
            if (argv[i], value) not in SWEEP_SKIPPED:
                out.append(base[:i + 1] + [value] + base[i + 2:])
    return out


@pytest.mark.parametrize("example", README_EXAMPLES,
                         ids=[" ".join(a[:2]) for a in README_EXAMPLES])
def test_readme_example_mutations_exit_cleanly(capsys, tmp_path, monkeypatch,
                                               example):
    """Every numeric flag of a README example, set to each SWEEP_VALUES
    value in turn: exit 0 or 1 with a record on stdout, or exit 2 with one
    ``mostinf: error:`` line on stderr and nothing on stdout; never an
    exception out of ``main``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.tt").write_text("n=3 conv=zero_one\n01101001\n")
    argvs = _mutations(example)
    assert argvs
    for argv in argvs:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "" and err.startswith("mostinf: error: "), argv
            assert len(err.splitlines()) == 1, (argv, err)
        elif "csv" in argv:
            assert out.splitlines()[0].count(",") >= 1, argv
        else:
            assert json.loads(out)["command"] == " ".join(argv[:2]), argv


def test_cli_stays_thin():
    """The CLI renders what one public library call returns: it defines no
    per-command handler and reaches no private library name."""
    layers = {"cube", "search", "sphere", "gauss", "entropy"}
    tree = ast.parse(Path(cli.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            assert not node.name.startswith("_cmd_"), node.name
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else \
                getattr(owner, "attr", None)
            assert name not in layers, f"{name}.{node.attr}"
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[-1] in layers:
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, private


def _scipy_imports(tree):
    """(innermost enclosing function or None, node) of each import of
    scipy in a module."""
    stack = [(tree, None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(m.split(".")[0] == "scipy" for m in modules):
            yield func, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def test_scipy_loads_only_where_it_is_called():
    """No module of the package imports scipy at module level, and each
    scipy import sits inside a function that calls what it imports: a
    fresh process then loads numpy alone until a command needs scipy."""
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for func, node in _scipy_imports(ast.parse(path.read_text())):
            where = f"{path.name}:{node.lineno}"
            assert func is not None, f"{where} imports scipy at module level"
            called = set()
            for call in ast.walk(func):
                if isinstance(call, ast.Call):
                    root = call.func
                    while isinstance(root, ast.Attribute):
                        root = root.value
                    called.add(getattr(root, "id", None))
            bound = {alias.asname or alias.name.split(".")[0]
                     for alias in node.names}
            assert bound <= called, f"{where}: {func.name} never calls " \
                f"{sorted(bound - called)}"


# Runs each argument list of argv[1] (JSON) through cli.main in one fresh
# process and prints, for each, its exit code and whether scipy is loaded.
_SCIPY_PROBE = """
import io, json, sys
from mostinf import cli
seen = []
for argv in json.loads(sys.argv[1]):
    stdout, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
    code = cli.main(argv)
    sys.stdout = stdout
    seen.append([code, "scipy" in sys.modules])
print(json.dumps(seen))
"""


def test_scan_and_sphere_commands_never_load_scipy(tmp_path):
    """In a fresh process the scans and the sphere commands run without
    loading scipy; the first command that calls it loads it."""
    ckpt = str(tmp_path / "n5.json")
    runs = [["boolean", "verify", "--n", "3", "--alpha", "0.1",
             "--format", "csv"],
            ["boolean", "verify", "--n", "4", "--alpha", "0.1"],
            ["boolean", "verify", "--n", "5", "--alpha", "0.3",
             "--checkpoint", ckpt, "--chunk", "4096", "--max-chunks", "1"],
            ["sphere", "mc", "--dim", "3", "--points", "200"],
            ["sphere", "polarize-check", "--grid", "16", "--rho", "0.5",
             "--trials", "2"],
            ["sphere", "rearrange", "--grid", "16", "--rho", "0.5",
             "--steps", "20"],
            ["gauss", "halfspace-vs", "--measure", "0.5", "--rho", "0.6"]]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                           json.dumps(runs)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert [code for code, _ in seen] == [0] * len(runs)
    assert [loaded for _, loaded in seen] == [False] * (len(runs) - 1) \
        + [True]
    assert Path(ckpt).exists()


LAYERS = ("cube", "search", "sphere", "gauss", "entropy")
# No command reaches it, but benchmarks/spans.py times it as the per-layer
# metric gauss.gh_ms, and benchmarks/selftest.py fails on a missing metric.
SURFACE_EXCEPTIONS = {("gauss", "neg_cond_entropy_gh")}


def _references(module: str, tree) -> set:
    """(module, name) pairs that a module of the package reads, each outside
    the top-level definition of that name."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    refs = set()
    for top in tree.body:
        own = (module, getattr(top, "name", None))
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                ref = names.get(node.id, (module, node.id))
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in modules:
                ref = (modules[node.value.id], node.attr)
            else:
                continue
            if ref != own:
                refs.add(ref)
    return refs


def _module_names(tree) -> set:
    """Names that a module binds by ``import``: numpy as np, math."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names}


def _attribute_reads(tree) -> set:
    """Attribute names that a module reads, except on the names of
    imported modules."""
    modules = _module_names(tree)
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and getattr(node.value, "id", None) not in modules}


def test_library_holds_what_the_commands_run():
    """Each layer's __all__ lists exactly the public functions and classes
    it defines, and each is read elsewhere in the package or imported by the
    acceptance gate; each public method and each annotated field of a
    layer's classes is read as an attribute in the package or the gate, an
    attribute of an imported module (``np.mean``) reading no method; no
    module of the package imports a name it never uses."""
    src = Path(cli.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in src.glob("*.py")}
    used = set().union(*(_references(m, t) for m, t in trees.items()))
    gate = ast.parse((Path(__file__).parent / "test_acceptance.py")
                     .read_text())
    attributes = set().union(*(_attribute_reads(tree)
                               for tree in [gate, *trees.values()]))
    used |= {(node.module.split(".")[-1], alias.name)
             for node in ast.walk(gate) if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("mostinf.")
             for alias in node.names}
    unread = []
    for layer in LAYERS:
        body = trees[layer].body
        defined = sorted(node.name for node in body if isinstance(
            node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))
        listed = next(ast.literal_eval(node.value) for node in body
                      if isinstance(node, ast.Assign) and
                      [getattr(t, "id", None) for t in node.targets]
                      == ["__all__"])
        assert sorted(listed) == defined, layer
        unreached = [name for name in listed
                     if (layer, name) not in used | SURFACE_EXCEPTIONS]
        assert not unreached, f"{layer}: {unreached}"
        unread += [f"{cls.name}.{node.name}" for cls in body
                   if isinstance(cls, ast.ClassDef) for node in cls.body
                   if isinstance(node, ast.FunctionDef)
                   and not node.name.startswith("_")
                   and node.name not in attributes]
        unread += [f"{cls.name}.{node.target.id}" for cls in body
                   if isinstance(cls, ast.ClassDef) for node in cls.body
                   if isinstance(node, ast.AnnAssign)
                   and node.target.id not in attributes]
    assert not unread, unread
    for module, tree in trees.items():
        if module == "__init__":
            continue
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        assert not imported - names, f"{module}: {sorted(imported - names)}"


# Defaulted parameters that no call in the package or the gate sets.
PARAMETER_EXCEPTIONS = {
    # benchmarks/spans.py times neg_cond_entropy_gh at its default order.
    ("gauss", "neg_cond_entropy_gh", "order"),
    # The tests pin the printed-exponent erratum through it.
    ("gauss", "decomposition_integral_check", "exponent"),
}


# Parameters to which every call in the package and the gate passes one and
# the same literal.
CONSTANT_EXCEPTIONS = {
    # The gate's criterion 5 names both values; the degree is the one the
    # curvature prediction reads, and rho the criterion's small correlation.
    ("cube", "degree_weight", "k"),
    ("cube", "taylor_curvature_check", "rho"),
}


def _parameters(layer: str, tree):
    """(layer, callee, parameter, position, defaulted) of each parameter of
    the layer's public functions and methods.  A method's callee is its
    name (its class's for ``__init__``), and its positions skip self or
    cls; a keyword-only parameter has position None."""
    defs = [(node.name, node, 0) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    defs += [(cls.name if node.name == "__init__" else node.name, node,
              0 if "staticmethod" in [getattr(d, "id", None)
                                      for d in node.decorator_list] else 1)
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, ast.FunctionDef)]
    for callee, node, skip in defs:
        if callee.startswith("_"):
            continue
        args = node.args.posonlyargs + node.args.args
        first_default = len(args) - len(node.args.defaults)
        for i, arg in enumerate(args[skip:], skip):
            yield layer, callee, arg.arg, i - skip, i >= first_default
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            yield layer, callee, arg.arg, None, default is not None


def _calls(tree):
    """(callee, call) of each call in a module, except calls of an imported
    module's attributes (``np.sum``)."""
    modules = _module_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if getattr(func.value, "id", None) in modules:
                continue
            callee = func.attr
        elif isinstance(func, ast.Name):
            callee = func.id
        else:
            continue
        yield callee, node


def _argument(call, name: str, pos):
    """What a call passes for a parameter: the expression, a ``*`` or
    ``**`` argument that may hold it, or None when it leaves the default."""
    if pos is not None:
        for i, arg in enumerate(call.args):
            if i == pos or isinstance(arg, ast.Starred):
                return arg
    return next((k.value for k in call.keywords if k.arg in (name, None)),
                None)


def _literal(node):
    """The source text of a literal expression, else None."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.unparse(node)


def _package_calls():
    """The layer modules' syntax trees, and (callee, call) of each call in
    the package and the acceptance gate."""
    src = Path(cli.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in src.glob("*.py")}
    gate = ast.parse((Path(__file__).parent / "test_acceptance.py")
                     .read_text())
    return trees, [call for tree in [gate, *trees.values()]
                   for call in _calls(tree)]


def test_every_default_is_set_by_a_caller():
    """Each defaulted parameter of a layer's public functions and methods
    is passed, by position, by keyword or through ** or *, by some call in
    the package or the acceptance gate: a default that no caller moves is a
    constant, not a parameter."""
    trees, calls = _package_calls()
    unset = [(layer, callee, name)
             for layer in LAYERS
             for layer, callee, name, pos, defaulted in _parameters(
                 layer, trees[layer])
             if defaulted and not any(
                 c == callee and _argument(call, name, pos) is not None
                 for c, call in calls)]
    assert sorted(unset) == sorted(PARAMETER_EXCEPTIONS)


def test_no_parameter_is_one_literal_at_every_call():
    """No parameter of a layer's public functions, methods and classes gets
    one and the same literal from every call in the package and the
    acceptance gate: such a parameter is a constant."""
    trees, calls = _package_calls()
    constant = []
    for layer in LAYERS:
        for layer, callee, name, pos, _ in _parameters(layer, trees[layer]):
            passed = {_literal(_argument(call, name, pos))
                      for c, call in calls if c == callee}
            if len(passed) == 1 and None not in passed:
                constant.append((layer, callee, name))
    assert sorted(constant) == sorted(CONSTANT_EXCEPTIONS)
