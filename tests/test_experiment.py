import math

import numpy as np
import pytest

from lewisreg.dataio import json_bytes
from lewisreg.experiment import (
    ExperimentSpec,
    materialize_instance,
    run_experiment,
    trial_stream,
    wilson_interval,
)


def outlier_spec(**overrides):
    base = dict(
        instance={"family": "outlier", "n": 150, "d": 3,
                  "outlier_magnitude": 1e4, "noise_scale": 1.0},
        method="lewis",
        budgets=[15, 30],
        eps=0.25,
        delta=0.1,
        trials=3,
        seed=5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_round_trip(self):
        spec = outlier_spec()
        again = ExperimentSpec.from_json_dict(spec.to_json_dict())
        assert again == spec

    def test_unsorted_budgets_rejected(self):
        with pytest.raises(ValueError):
            outlier_spec(budgets=[30, 15])

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            outlier_spec(trials=0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            outlier_spec(method="magic")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_json_dict({**outlier_spec().to_json_dict(),
                                           "bogus": 1})


class TestWilson:
    def test_midpoint(self):
        lo, hi = wilson_interval(5, 10)
        assert 0.2 < lo < 0.5 < hi < 0.8

    def test_extremes_clamped(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi < 0.3
        lo, hi = wilson_interval(20, 20)
        assert lo > 0.7 and hi == 1.0


class TestMaterialize:
    def test_outlier_instance(self):
        X, y, meta = materialize_instance(
            {"family": "outlier", "n": 80, "d": 3, "outlier_magnitude": 100.0},
            seed=1)
        assert X.shape == (80, 3) and y.shape == (80,)
        assert meta["opt"] > 0

    def test_file_instance(self, tmp_path):
        from lewisreg.dataio import write_labels, write_matrix_csv
        X = np.arange(12.0).reshape(6, 2) + 1
        y = np.arange(6.0)
        write_matrix_csv(tmp_path / "x.csv", X)
        write_labels(tmp_path / "y.txt", y)
        X2, y2, meta = materialize_instance(
            {"x_file": str(tmp_path / "x.csv"), "y_file": str(tmp_path / "y.txt")},
            seed=0)
        np.testing.assert_array_equal(X2, X)
        np.testing.assert_array_equal(y2, y)

    def test_reduced_instance(self):
        X, y, meta = materialize_instance(
            {"family": "hidden_coordinate", "d": 4, "hidden_index": 2,
             "reduction_eps": 0.4, "reduction_delta": 0.2}, seed=3)
        assert X.shape[1] == 4
        assert "beta_star" in meta

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError):
            materialize_instance({"family": "nope"}, seed=0)


class TestRunExperiment:
    def test_report_shape(self):
        rep = run_experiment(outlier_spec())
        assert len(rep.trials) == 6
        assert [a["budget"] for a in rep.aggregates] == [15, 30]
        for a in rep.aggregates:
            assert 0.0 <= a["ci_low"] <= a["success_rate"] <= a["ci_high"] <= 1.0
        for t in rep.trials:
            if t["ratio"] is not None:
                assert t["ratio"] >= 1.0 - 1e-9
                assert t["success"] == (t["ratio"] <= 1.25)

    def test_deterministic_reports(self):
        r1 = run_experiment(outlier_spec())
        r2 = run_experiment(outlier_spec())
        d1, d2 = r1.to_json_dict(), r2.to_json_dict()
        d1.pop("timing")
        d2.pop("timing")
        assert json_bytes(d1) == json_bytes(d2)

    def test_trial_stream_isolation(self):
        s1 = trial_stream(5, 0, 15)
        s2 = trial_stream(5, 1, 15)
        s3 = trial_stream(5, 0, 30)
        assert len({s1, s2, s3}) == 3

    def test_parallel_matches_serial(self):
        serial = run_experiment(outlier_spec())
        parallel = run_experiment(outlier_spec(workers=2))
        a, b = serial.to_json_dict(), parallel.to_json_dict()
        a.pop("timing")
        b.pop("timing")
        a["spec"].pop("workers")
        b["spec"].pop("workers")
        assert json_bytes(a) == json_bytes(b)

    def test_uniform_method_runs_and_may_fail_trials(self):
        spec = outlier_spec(method="uniform", budgets=[15],
                            instance={"family": "isolated", "n": 200, "d": 4,
                                      "magnitude": 30.0, "noise_scale": 0.05})
        rep = run_experiment(spec)
        agg = rep.aggregates[0]
        # rank-deficient sketches count as failures, not crashes
        assert agg["successes"] + agg["failed_trials"] == agg["trials"] == 3

    def test_rank_deficient_sketch_recorded_as_failed_trial(self):
        # uniform sampling misses the isolated row at this budget, so every
        # sketched problem has an all-zero column
        spec = outlier_spec(method="uniform", budgets=[15],
                            instance={"family": "isolated", "n": 200, "d": 4,
                                      "magnitude": 30.0, "noise_scale": 0.05})
        rep = run_experiment(spec)
        assert rep.aggregates[0]["failed_trials"] == 3
        for t in rep.trials:
            assert t["error"].startswith("RankDeficiencyError:")
            assert t["success"] is False

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("lewisreg.experiment.active_solve", broken)
        with pytest.raises(ValueError, match="broadcast"):
            run_experiment(outlier_spec())

    def test_known_y_method(self):
        rep = run_experiment(outlier_spec(method="known_y_augmented",
                                          budgets=[30], trials=2))
        assert rep.aggregates[0]["trials"] == 2

    def test_leverage_baseline_method(self):
        rep = run_experiment(outlier_spec(method="leverage_l2_baseline",
                                          budgets=[30], trials=2))
        assert rep.aggregates[0]["trials"] == 2

    def test_success_rate_nondecreasing_in_budget(self):
        # starved budgets must fail on the hidden-coordinate reduction while
        # generous ones succeed; in between the curve climbs (3 sigma slack)
        spec = ExperimentSpec(
            instance={"family": "hidden_coordinate", "d": 4, "hidden_index": 2,
                      "reduction_eps": 0.35, "reduction_delta": 0.2},
            method="lewis", budgets=[4, 30, 250], eps=0.25, delta=0.1,
            trials=30, seed=23)
        rep = run_experiment(spec)
        rates = [a["success_rate"] for a in rep.aggregates]
        assert rates[0] < 1.0
        assert rates[-1] >= 0.9
        for lo, hi in zip(rates, rates[1:]):
            noise = 3 * math.sqrt(max(lo * (1 - lo), hi * (1 - hi)) / 30 + 1e-9)
            assert hi >= lo - noise
