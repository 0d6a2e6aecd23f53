import json
import subprocess
import sys

import numpy as np
import pytest

from lewisreg.cli import main
from lewisreg.dataio import (
    DataError,
    read_labels,
    read_matrix_csv,
    write_labels,
    write_matrix_csv,
)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "lewisreg", *args],
                          capture_output=True, text=True)


@pytest.fixture
def median_instance(tmp_path):
    x = tmp_path / "x.csv"
    y = tmp_path / "y.txt"
    x.write_text("1.0\n1.0\n1.0\n")
    y.write_text("0.0\n1.0\n10.0\n")
    return x, y


class TestDataIO:
    def test_matrix_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, size=(7, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, X)
        again = read_matrix_csv(path)
        assert np.array_equal(again, X)
        # serializing a second time reproduces the bytes
        path2 = tmp_path / "m2.csv"
        write_matrix_csv(path2, again)
        assert path.read_bytes() == path2.read_bytes()

    def test_matrix_bytes_match_per_element_writer(self, tmp_path):
        def per_element(path, X):  # the writer before rows went through tolist
            with open(path, "w", encoding="utf-8") as fh:
                for row in np.asarray(X, dtype=np.float64):
                    fh.write(",".join(repr(float(v)) for v in row))
                    fh.write("\n")

        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 4)) * 10.0 ** rng.integers(-300, 300, size=(30, 4))
        X[0] = [-0.0, 5e-324, 1e308, 3.0]
        X[1] = [0.0, -1e308, -5e-324, -12.0]
        X[2] = [1e16, 2.0 ** 60, 0.1, 1.0 / 3.0]
        small = rng.standard_normal((5, 3))
        for M in (X, X[:, :1], X[:1], small.astype(np.float32), np.arange(12).reshape(4, 3)):
            fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
            write_matrix_csv(fast, M)
            per_element(reference, M)
            assert fast.read_bytes() == reference.read_bytes()

    def test_label_bytes_match_per_element_writer(self, tmp_path):
        def per_element(path, y):  # the writer before labels went through tolist
            with open(path, "w", encoding="utf-8") as fh:
                for v in np.asarray(y, dtype=np.float64):
                    fh.write(repr(float(v)))
                    fh.write("\n")

        rng = np.random.default_rng(4)
        y = rng.standard_normal(30) * 10.0 ** rng.integers(-300, 300, size=30)
        y[:8] = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 7.0, 2.0 ** 60]
        for v in (y, y[:1], np.arange(5)):
            fast, reference = tmp_path / "fast.txt", tmp_path / "reference.txt"
            write_labels(fast, v)
            per_element(reference, v)
            assert fast.read_bytes() == reference.read_bytes()

    def test_labels_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(11)
        path = tmp_path / "y.txt"
        write_labels(path, y)
        assert np.array_equal(read_labels(path), y)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="line 2"):
            read_matrix_csv(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nx,3.0\n")
        with pytest.raises(DataError, match="line 2"):
            read_matrix_csv(path)

    def test_empty_file_is_data_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="no data rows"):
            read_matrix_csv(path)

    def test_loadtxt_matches_line_scan(self, tmp_path, monkeypatch):
        from lewisreg import dataio

        scan = dataio._scan_matrix_csv
        # the files below are well formed, so the rescan must not run
        monkeypatch.setattr(dataio, "_scan_matrix_csv", None)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-300, 300, size=(40, 5))
        written = tmp_path / "written.csv"
        write_matrix_csv(written, X)
        by_hand = tmp_path / "by_hand.csv"
        by_hand.write_text(
            "0.1,-2.5e-3, 3\n\n"
            "1e308,4.9e-324,-0.0\n"
            "+7.,.25,0.30000000000000004\r\n"
            "123456789012345678901234567890,1e-400,2.2250738585072014e-308\n"
        )
        for path in (written, by_hand):
            fast, scanned = read_matrix_csv(path), scan(path)
            assert fast.dtype == scanned.dtype == np.float64
            assert np.array_equal(fast, scanned)
        assert np.array_equal(read_matrix_csv(written), X)


class TestWeightsCommand:
    def test_identity_lewis(self, tmp_path):
        x = tmp_path / "x.csv"
        x.write_text("1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n")
        out = tmp_path / "w.json"
        res = run_cli("weights", str(x), "--kind", "lewis", "--out", str(out))
        assert res.returncode == 0
        blob = json.loads(out.read_text())
        assert blob["weights"] == [1.0, 1.0, 1.0]
        assert blob["check"]["fixed_point_residual"] <= 1e-10

    def test_stacked_scaled_halves(self, tmp_path):
        x = tmp_path / "x.csv"
        x.write_text("0.5,0.0\n0.0,0.5\n0.5,0.0\n0.0,0.5\n")
        out = tmp_path / "w.json"
        res = run_cli("weights", str(x), "--out", str(out))
        assert res.returncode == 0
        w = json.loads(out.read_text())["weights"]
        np.testing.assert_allclose(w, [0.5] * 4, atol=1e-9)

    def test_leverage_kind(self, tmp_path):
        x = tmp_path / "x.csv"
        x.write_text("1.0\n1.0\n")
        out = tmp_path / "w.json"
        res = run_cli("weights", str(x), "--kind", "leverage", "--out", str(out))
        assert res.returncode == 0
        blob = json.loads(out.read_text())
        np.testing.assert_allclose(blob["weights"], [0.5, 0.5], atol=1e-12)
        assert blob["check"]["trace_gap"] <= 1e-9

    def test_malformed_row_exit_2(self, tmp_path):
        x = tmp_path / "x.csv"
        x.write_text("1.0,2.0\n3.0\n")
        res = run_cli("weights", str(x), "--out", str(tmp_path / "w.json"))
        assert res.returncode == 2
        assert "line 2" in res.stderr

    def test_rank_deficient_exit_3(self, tmp_path):
        x = tmp_path / "x.csv"
        x.write_text("1.0,2.0\n2.0,4.0\n3.0,6.0\n")
        res = run_cli("weights", str(x), "--out", str(tmp_path / "w.json"))
        assert res.returncode == 3

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((12, 3))
        x = tmp_path / "x.csv"
        write_matrix_csv(x, X)
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        assert run_cli("weights", str(x), "--out", str(out1)).returncode == 0
        assert run_cli("weights", str(x), "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        # decimal strings survive a parse/serialize cycle
        blob = json.loads(out1.read_text())
        assert json.loads(json.dumps(blob)) == blob


class TestSolveCommand:
    def test_full_mode_median(self, median_instance, tmp_path):
        x, y = median_instance
        out = tmp_path / "sol.json"
        res = run_cli("solve", str(x), str(y), "--mode", "full", "--out", str(out))
        assert res.returncode == 0
        sol = json.loads(out.read_text())
        assert sol["beta"] == [1.0]
        assert sol["objective"] == 10.0
        assert sol["labels_queried"] == 3

    def test_full_mode_rank_deficient_exit_3(self, tmp_path):
        x, y = tmp_path / "x.csv", tmp_path / "y.txt"
        x.write_text("1.0,2.0\n2.0,4.0\n3.0,6.0\n")
        y.write_text("1.0\n2.0\n3.0\n")
        res = run_cli("solve", str(x), str(y), "--mode", "full")
        assert res.returncode == 3
        assert res.stderr.startswith("numerical failure: ")

    def test_active_deterministic(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(60)
        write_matrix_csv(tmp_path / "x.csv", X)
        write_labels(tmp_path / "y.txt", y)
        outs = []
        for name in ("a.json", "b.json"):
            res = run_cli("solve", str(tmp_path / "x.csv"), str(tmp_path / "y.txt"),
                          "--mode", "active", "--budget", "20", "--seed", "9",
                          "--out", str(tmp_path / name))
            assert res.returncode == 0
            outs.append(json.loads((tmp_path / name).read_text()))
        assert outs[0]["query_log"] == outs[1]["query_log"]
        assert outs[0]["beta"] == outs[1]["beta"]

    def test_active_reads_only_queried_lines(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 3))
        y = X @ np.ones(3)
        write_matrix_csv(tmp_path / "x.csv", X)
        write_labels(tmp_path / "y.txt", y)
        out = tmp_path / "sol.json"
        res = run_cli("solve", str(tmp_path / "x.csv"), str(tmp_path / "y.txt"),
                      "--mode", "active", "--budget", "25", "--seed", "1",
                      "--out", str(out))
        assert res.returncode == 0
        sol = json.loads(out.read_text())
        assert sol["labels_queried"] == len(set(sol["query_log"]))
        assert sol["label_lines_read"] <= sol["labels_queried"]
        assert sol["labels_queried"] <= 25 < 100

    def test_sketch_known_y_mode(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 3))
        y = X @ np.ones(3) + rng.standard_normal(80)
        write_matrix_csv(tmp_path / "x.csv", X)
        write_labels(tmp_path / "y.txt", y)
        out = tmp_path / "sol.json"
        res = run_cli("solve", str(tmp_path / "x.csv"), str(tmp_path / "y.txt"),
                      "--mode", "sketch_known_y", "--eps", "0.3", "--budget", "40",
                      "--seed", "2", "--out", str(out))
        assert res.returncode == 0
        sol = json.loads(out.read_text())
        assert "sketched_objective" in sol and sol["objective"] > 0

    def test_label_count_mismatch_exit_2(self, median_instance, tmp_path):
        x, _ = median_instance
        bad_y = tmp_path / "bad.txt"
        bad_y.write_text("1.0\n2.0\n")
        res = run_cli("solve", str(x), str(bad_y), "--mode", "full")
        assert res.returncode == 2


class TestExperimentCommand:
    def _write_spec(self, tmp_path, **overrides):
        spec = {
            "instance": {"family": "outlier", "n": 120, "d": 3,
                         "outlier_magnitude": 1e4, "noise_scale": 1.0},
            "method": "lewis",
            "budgets": [20],
            "eps": 0.25,
            "delta": 0.1,
            "trials": 3,
            "seed": 13,
            "output": str(tmp_path / "run"),
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_emits_report_and_curve(self, tmp_path):
        path = self._write_spec(tmp_path)
        res = run_cli("experiment", str(path))
        assert res.returncode == 0
        report = json.loads((tmp_path / "run.report.json").read_text())
        assert len(report["trials"]) == 3
        curve = (tmp_path / "run.curve.csv").read_text().splitlines()
        assert curve[0] == "budget,success_rate,ci_low,ci_high,mean_ratio"
        assert curve[1].startswith("20,")

    def test_rerun_byte_identical_modulo_timing(self, tmp_path):
        path = self._write_spec(tmp_path)
        assert run_cli("experiment", str(path)).returncode == 0
        first = json.loads((tmp_path / "run.report.json").read_text())
        first_curve = (tmp_path / "run.curve.csv").read_bytes()
        assert run_cli("experiment", str(path)).returncode == 0
        second = json.loads((tmp_path / "run.report.json").read_text())
        assert (tmp_path / "run.curve.csv").read_bytes() == first_curve
        first.pop("timing")
        second.pop("timing")
        assert first == second

    def test_degenerate_sweep_matches_cmd_solve(self, tmp_path):
        # a 1-trial, 1-budget lewis sweep is one active solve with trial 0
        rng = np.random.default_rng(6)
        X = rng.standard_normal((70, 3))
        y = X @ np.ones(3) + rng.standard_normal(70)
        write_matrix_csv(tmp_path / "x.csv", X)
        write_labels(tmp_path / "y.txt", y)
        spec_path = self._write_spec(
            tmp_path, trials=1, budgets=[21], seed=17,
            instance={"x_file": str(tmp_path / "x.csv"),
                      "y_file": str(tmp_path / "y.txt")})
        assert run_cli("experiment", str(spec_path)).returncode == 0
        report = json.loads((tmp_path / "run.report.json").read_text())
        out = tmp_path / "sol.json"
        res = run_cli("solve", str(tmp_path / "x.csv"), str(tmp_path / "y.txt"),
                      "--mode", "active", "--budget", "21", "--seed", "17",
                      "--out", str(out))
        assert res.returncode == 0
        sol = json.loads(out.read_text())
        trial = report["trials"][0]
        assert trial["distinct_labels"] == sol["labels_queried"]

    def test_invalid_spec_exit_2(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        assert run_cli("experiment", str(path)).returncode == 2


class TestGenCommand:
    def test_outlier_files(self, tmp_path):
        res = run_cli("gen", "outlier", "--n", "40", "--d", "3", "--seed", "2",
                      "--out-x", str(tmp_path / "x.csv"),
                      "--out-y", str(tmp_path / "y.txt"),
                      "--meta", str(tmp_path / "meta.json"))
        assert res.returncode == 0
        X = read_matrix_csv(tmp_path / "x.csv")
        y = read_labels(tmp_path / "y.txt")
        assert X.shape == (40, 3) and y.shape == (40,)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["opt"] > 0 and len(meta["beta_star"]) == 3

    def test_reduced_hidden_coordinate(self, tmp_path):
        res = run_cli("gen", "reduced", "--family", "hidden_coordinate",
                      "--d", "4", "--hidden-index", "1", "--eps", "0.4",
                      "--delta", "0.2", "--seed", "3",
                      "--out-x", str(tmp_path / "x.csv"),
                      "--out-y", str(tmp_path / "y.txt"))
        assert res.returncode == 0
        X = read_matrix_csv(tmp_path / "x.csv")
        assert set(np.unique(X)) == {0.0, 1.0}

    def test_gen_deterministic(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli("gen", "isolated", "--n", "30", "--d", "3",
                           "--seed", "8",
                           "--out-x", str(tmp_path / f"x{name}.csv"),
                           "--out-y", str(tmp_path / f"y{name}.txt")).returncode == 0
        assert (tmp_path / "xa.csv").read_bytes() == (tmp_path / "xb.csv").read_bytes()
        assert (tmp_path / "ya.txt").read_bytes() == (tmp_path / "yb.txt").read_bytes()


class TestStartup:
    def test_full_solve_and_gen_never_load_scipy(self, median_instance, tmp_path):
        """import lewisreg, a full solve and gen run without scipy; the weights
        command loads its LAPACK kernels on first use in the same process."""
        x, y = median_instance
        script = f"""
import sys
import lewisreg
from lewisreg.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print("import", scipy_modules())
code = main(["solve", {str(x)!r}, {str(y)!r}, "--mode", "full", "--out", {str(tmp_path / "s.json")!r}])
print("solve", code, scipy_modules())
code = main(["gen", "outlier", "--n", "30", "--d", "3", "--out-x", {str(tmp_path / "x.csv")!r},
             "--out-y", {str(tmp_path / "y.txt")!r}])
print("gen", code, scipy_modules())
code = main(["weights", {str(tmp_path / "x.csv")!r}, "--out", {str(tmp_path / "w.json")!r}])
print("weights", code, "scipy.linalg.lapack" in sys.modules)
"""
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["import []", "solve 0 []", "gen 0 []",
                                           "weights 0 True"]
        blob = json.loads((tmp_path / "w.json").read_text())
        assert blob["n"] == 30 and blob["check"]["fixed_point_residual"] <= 1e-9


class TestUsageErrors:
    def test_unknown_command_exit_1(self):
        assert run_cli("frobnicate").returncode == 1

    def test_missing_required_exit_1(self):
        assert run_cli("weights").returncode == 1


class TestErrorClassification:
    """Refusals of input exit 2 with their message; any other ValueError is a
    bug and propagates out of main."""

    def test_internal_value_error_propagates(self, median_instance, monkeypatch):
        x, y = median_instance

        def broken_gram(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr("lewisreg.lad.weighted_gram", broken_gram)
        with pytest.raises(ValueError, match="internal bug"):
            main(["solve", str(x), str(y), "--mode", "full"])

    @pytest.mark.parametrize("argv, message", [
        (["weights", "{x}", "--tol", "0", "--out", "{out}"], "tol must be positive"),
        (["solve", "{x}", "{y}", "--solver-tol", "0"], "tol must be positive"),
        (["solve", "{x}", "{y}", "--mode", "active", "--eps", "2"],
         "eps and delta must lie in (0, 1)"),
        (["solve", "{x}", "{y}", "--mode", "sketch_known_y", "--budget", "0"],
         "budget 0 below column count 1; refused"),
        (["weights", "{nan_x}", "--out", "{out}"], "design matrix has non-finite entries"),
        (["gen", "outlier", "--n", "2", "--d", "5", "--out-x", "{out}", "--out-y", "{out}"],
         "need n >= d"),
        (["experiment", "{spec}"], "unknown method 'nope'; choose from ('lewis', "
         "'uniform', 'leverage_l2_baseline', 'known_y_augmented')"),
        (["gen", "reduced", "--family", "hidden_coordinate", "--d", "3", "--hidden-index", "7",
          "--out-x", "{out}", "--out-y", "{out}"], "hidden_index must name a coordinate"),
    ], ids=["weights_tol", "solver_tol", "eps", "budget", "nan_design", "gen_n_below_d",
            "spec_method", "gen_hidden_index"])
    def test_refusal_exit_2_with_message(self, median_instance, tmp_path, capsys,
                                         argv, message):
        x, y = median_instance
        nan_x = tmp_path / "nan.csv"
        nan_x.write_text("1.0\nnan\n2.0\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "instance": {"x_file": str(x), "y_file": str(y)}, "method": "nope",
            "budgets": [2], "eps": 0.5, "delta": 0.1, "trials": 1, "seed": 0}))
        paths = {"x": x, "y": y, "nan_x": nan_x, "spec": spec,
                 "out": tmp_path / "out.json"}
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err.strip() == f"data error: {message}"

    @pytest.mark.parametrize("overrides, message", [
        ({"instance": {"family": "outlier", "n": "abc", "d": 2}},
         "instance field 'n': invalid literal for int() with base 10: 'abc'"),
        ({"instance": {"family": "isolated", "n": 30}},
         "instance descriptor has no 'd' field"),
        ({"trials": "3"}, "trials must be an integer, got '3'"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"workers": 2.0}, "workers must be an integer, got 2.0"),
        ({"budgets": [10, 20.7]}, "budgets entry must be an integer, got 20.7"),
        ({"budgets": [10, False]}, "budgets entry must be an integer, got False"),
        ({"budgets": [10, 10]}, "budgets must not repeat"),
        ({"budgets": [1]}, "budget 1 below column count 2; refused"),
        ({"instance": {"family": "hidden_coordinate", "d": 3, "hidden_index": 7}},
         "hidden_index must name a coordinate"),
        ({"instance": {"family": "two_coin", "d": 3, "bias": 0.1, "which": 2}},
         "which must be 0 or 1"),
        ({"instance": {"family": "two_coin", "d": 3, "bias": 0.1, "which": -1}},
         "which must be 0 or 1"),
        ({"instance": [1, 2]}, "instance must be a JSON object, got [1, 2]"),
        ({"instance": {"family": "isolated", "n": 200, "d": 4, "bogus": 1}},
         "unknown instance fields for family 'isolated': ['bogus']; "
         "it reads ['d', 'family', 'magnitude', 'n', 'noise_scale']"),
        ({"instance": {"family": "outlier", "n": 40, "d": 2, "magnitdue": 5.0},
          "budgets": [1]},
         "unknown instance fields for family 'outlier': ['magnitdue']; it reads "
         "['d', 'family', 'n', 'n_outliers', 'noise_scale', 'outlier_magnitude']"),
    ], ids=["field_type", "missing_field", "spec_type", "trials_float", "trials_bool",
            "seed_bool", "workers_float", "budget_float", "budget_bool", "budget_repeated",
            "budget_below_d",
            "hidden_index", "which_2", "which_minus_1", "instance_list", "instance_bogus_key",
            "misspelt_key_before_budget"])
    def test_malformed_spec_exit_2(self, tmp_path, capsys, overrides, message):
        spec = {"instance": {"family": "outlier", "n": 40, "d": 2}, "method": "lewis",
                "budgets": [10], "eps": 0.5, "delta": 0.1, "trials": 1, "seed": 0}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**spec, **overrides}))
        assert main(["experiment", str(path)]) == 2
        assert capsys.readouterr().err.strip() == f"data error: {message}"
