"""Command dispatch, record emission, determinism, exit codes."""

import json

import numpy as np
import pytest

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


class TestDispatchErrors:
    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["boolean", "verify", "--n"])
        assert exc.value.code == 2

    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quantum"])
        assert exc.value.code == 2

    def test_alpha_range_enforced(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["boolean", "verify", "--n", "2", "--alpha", "0.7"])
        assert exc.value.code == 2

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
    ])
    def test_bad_input_exit_2_one_line(self, capsys, tmp_path, monkeypatch,
                                       argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "no-n.tt").write_text("conv=zero_one\n0110\n")
        (tmp_path / "no-conv.tt").write_text("n=2\n0110\n")
        (tmp_path / "empty.tt").write_text("")
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("mostinf: error: ")
        assert len(err.splitlines()) == 1

    def test_truncated_checkpoint_exit_2(self, capsys, tmp_path):
        ckpt = tmp_path / "scan.json"
        ckpt.write_text('{"n": 5, "alpha": 0.3, "ne')
        code = main(["boolean", "verify", "--n", "5", "--alpha", "0.3",
                     "--checkpoint", str(ckpt)])
        assert code == 2
        assert str(ckpt) in capsys.readouterr().err

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
