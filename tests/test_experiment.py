import math

import numpy as np
import pytest

from lewisreg import active, experiment
from lewisreg.active import (
    InMemoryLabelOracle,
    active_solve,
    sample_and_solve,
    sketch_and_solve_known_y,
)
from lewisreg.dataio import json_bytes, write_labels, write_matrix_csv
from lewisreg.experiment import (
    METHODS,
    ExperimentSpec,
    materialize_instance,
    run_experiment,
    trial_stream,
    wilson_interval,
)
from lewisreg.lad import LadProblem, objective, solve_lad
from lewisreg.lewis import leverage_scores, sampling_values
from lewisreg.linalg import DataError, RankDeficiencyError, WeightVector


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

    def test_numpy_integers_accepted_as_ints(self):
        spec = outlier_spec(trials=np.int64(2), seed=np.int32(5),
                            budgets=[np.int64(15), 30])
        assert spec == outlier_spec(trials=2)
        assert type(spec.trials) is int and type(spec.budgets[0]) is int

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_json_dict({**outlier_spec().to_json_dict(),
                                           "bogus": 1})

    def test_integral_floats_and_numpy_scalars_accepted_alike(self):
        # spec and descriptor fields follow one rule per JSON type
        spec = outlier_spec(trials=3.0, budgets=[np.float64(15.0), 30], eps=np.float64(0.25))
        assert spec == outlier_spec()
        assert type(spec.trials) is int and type(spec.budgets[0]) is int
        plain = {"family": "outlier", "n": 80, "d": 3, "outlier_magnitude": 100.0}
        X, y, meta = materialize_instance({**plain, "n": 80.0, "d": np.int64(3),
                                           "outlier_magnitude": np.float32(100.0)}, seed=1)
        X0, y0, meta0 = materialize_instance(plain, seed=1)
        assert np.array_equal(X, X0) and np.array_equal(y, y0) and meta == meta0


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

    @pytest.mark.parametrize("family", [["isolated"], None])
    def test_non_string_family_refused(self, family):
        with pytest.raises(DataError, match="^unrecognized instance descriptor"):
            materialize_instance({"family": family}, seed=0)

    @pytest.mark.parametrize("desc, message", [
        ({"family": "isolated", "n": 200, "d": 4, "bogus": 1},
         "unknown instance fields for family 'isolated': ['bogus']; "
         "it reads ['d', 'family', 'magnitude', 'n', 'noise_scale']"),
        ({"family": "isolated", "n": 200, "d": 4, "magnitdue": 30.0},
         "unknown instance fields for family 'isolated': ['magnitdue']; "
         "it reads ['d', 'family', 'magnitude', 'n', 'noise_scale']"),
        ({"x_file": "x.csv", "y_file": "y.txt", "family": "outlier"},
         "unknown instance fields for file instances: ['family']; "
         "it reads ['x_file', 'y_file']"),
    ], ids=["unknown_key", "misspelt_key", "file_with_family"])
    def test_unread_key_refused(self, desc, message):
        with pytest.raises(DataError) as info:
            materialize_instance(desc, seed=0)
        assert str(info.value) == message

    def test_every_family_reads_its_optional_fields(self):
        # the fields listed for each family are accepted together
        for desc in (
            {"family": "outlier", "n": 40, "d": 2, "outlier_magnitude": 10.0,
             "n_outliers": 2, "noise_scale": 0.5},
            {"family": "isolated", "n": 40, "d": 2, "magnitude": 5.0, "noise_scale": 0.1},
            {"family": "two_coin", "d": 2, "bias": 0.3, "which": 1,
             "reduction_eps": 0.5, "reduction_delta": 0.3, "constants": "proof"},
        ):
            X, y, _ = materialize_instance(desc, seed=2)
            assert X.shape[0] == y.shape[0] > 0

    def test_spec_instance_must_be_an_object(self):
        with pytest.raises(DataError, match=r"^instance must be a JSON object, got \[1, 2\]$"):
            outlier_spec(instance=[1, 2])


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


class TestExactFit:
    """On an exact fit the reference optimum is rounding, so no ratio to it
    means anything: the trials are judged on the zero-optimum path."""

    @pytest.mark.parametrize("method", METHODS)
    def test_exact_fit_file_trials_succeed_without_a_ratio(self, tmp_path, method):
        X = np.random.default_rng(3).integers(-5, 6, (40, 3)).astype(float)
        write_matrix_csv(tmp_path / "x.csv", X)
        write_labels(tmp_path / "y.txt", X @ np.array([1.0, -2.0, 3.0]))
        rep = run_experiment(outlier_spec(
            instance={"x_file": str(tmp_path / "x.csv"), "y_file": str(tmp_path / "y.txt")},
            method=method, budgets=[10, 20], trials=5, seed=1))
        assert rep.environment["opt"] == 0.0
        for t in rep.trials:
            assert t["success"] and t["ratio"] is None, t

    @pytest.mark.parametrize("instance", [
        {"family": "isolated", "n": 300, "d": 4, "noise_scale": 0.0},
        {"family": "outlier", "n": 300, "d": 4, "outlier_magnitude": 0.0, "noise_scale": 0.0},
    ], ids=["isolated", "outlier"])
    def test_noise_free_generated_instance(self, instance):
        for method in ("lewis", "leverage_l2_baseline"):
            rep = run_experiment(outlier_spec(instance=instance, method=method,
                                              trials=5))
            assert rep.environment["opt"] == 0.0
            assert [a["successes"] for a in rep.aggregates] == [5, 5]

    def test_small_nonzero_optimum_keeps_the_ratio(self):
        rep = run_experiment(outlier_spec(
            instance={"family": "isolated", "n": 300, "d": 4, "noise_scale": 1e-9}))
        assert rep.environment["opt"] > 0
        assert all(t["ratio"] >= 1.0 - 1e-9 for t in rep.trials)


def near_repeated_column_files(tmp_path):
    """A file instance whose second column repeats the first except in one
    entry, by 5e-5. The reference full solve accepts it; the Lewis iteration
    upweights the other rows until that direction falls below pivot
    tolerance, so lewis_weights raises RankDeficiencyError."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal(200)
    X = np.column_stack([a, a, rng.standard_normal(200)])
    X[7, 1] += 5e-5
    y = X @ np.array([1.0, 0.0, 2.0]) + rng.standard_normal(200)
    write_matrix_csv(tmp_path / "x.csv", X)
    write_labels(tmp_path / "y.txt", y)
    return {"x_file": str(tmp_path / "x.csv"), "y_file": str(tmp_path / "y.txt")}


def one_shot_trials(spec: ExperimentSpec) -> list[dict]:
    """Trial records from the one-shot functions, each trial computing its
    own weights (no weights=): the reference the harness must reproduce."""
    X, y, meta = materialize_instance(spec.instance, spec.seed)
    opt = meta["opt"] if "opt" in meta else solve_lad(LadProblem(X, y)).objective
    n = X.shape[0]
    records = []
    for budget in spec.budgets:
        for trial in range(spec.trials):
            rng, oracle = trial_stream(spec.seed, trial, budget), InMemoryLabelOracle(y)
            rec = {"budget": budget, "trial": trial, "draws": budget,
                   "distinct_labels": None, "objective": None, "opt": opt,
                   "ratio": None, "success": False, "status": None, "error": None}
            try:
                if spec.method == "lewis":
                    res = active_solve(X, oracle, spec.eps, spec.delta, rng,
                                       budget_override=budget)
                elif spec.method == "known_y_augmented":
                    res = sketch_and_solve_known_y(X, y, spec.eps, spec.delta, rng,
                                                   budget_override=budget)
                else:
                    p = (sampling_values(leverage_scores(X), budget)
                         if spec.method == "leverage_l2_baseline" else
                         WeightVector(np.full(n, budget / n), kind="sampling",
                                      budget=float(budget)))
                    res = sample_and_solve(X, oracle, p, rng)
            except RankDeficiencyError as e:
                rec["error"] = f"RankDeficiencyError: {e}"
            else:
                obj = objective(LadProblem(X, y), res.beta_hat)
                rec.update(distinct_labels=res.labels_queried, objective=obj,
                           ratio=obj / opt, success=obj / opt <= 1.0 + spec.eps,
                           status=res.solver_status)
            records.append(rec)
    return records


@pytest.fixture
def lewis_calls(monkeypatch):
    """Counts calls of lewisreg.active.lewis_weights, the name the harness
    and the one-shot functions compute Lewis weights through."""
    calls = []
    original = active.lewis_weights

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(active, "lewis_weights", counting)
    return calls


class TestWeightsOncePerSpec:
    @pytest.mark.parametrize("method", ["lewis", "known_y_augmented"])
    def test_one_lewis_call_per_spec(self, lewis_calls, method):
        rep = run_experiment(outlier_spec(method=method))  # 2 budgets x 3 trials
        assert len(rep.trials) == 6
        assert all(t["error"] is None for t in rep.trials)
        assert len(lewis_calls) == 1

    @pytest.mark.parametrize("instance", ["outlier", "isolated", "near_repeated"])
    @pytest.mark.parametrize("method", METHODS)
    def test_report_matches_one_shot_trials(self, tmp_path, method, instance):
        desc = {"outlier": {"family": "outlier", "n": 150, "d": 3,
                            "outlier_magnitude": 1e4, "noise_scale": 1.0},
                "isolated": {"family": "isolated", "n": 200, "d": 4, "magnitude": 30.0},
                "near_repeated": None}[instance] or near_repeated_column_files(tmp_path)
        spec = outlier_spec(method=method, instance=desc)
        rep = run_experiment(spec).to_json_dict()
        rep.pop("timing")
        trials = one_shot_trials(spec)
        expected = {**rep, "trials": trials,
                    "aggregates": [experiment._aggregate(b, [t for t in trials
                                                             if t["budget"] == b])
                                   for b in spec.budgets]}
        assert json_bytes(rep) == json_bytes(expected)

    def test_budget_below_column_count_refused_before_weights(self, lewis_calls):
        with pytest.raises(DataError, match=r"^budget 2 below column count 3; refused$"):
            run_experiment(outlier_spec(budgets=[2, 30]))
        assert lewis_calls == []

    def test_failed_weights_recorded_on_every_trial(self, tmp_path, lewis_calls):
        rep = run_experiment(outlier_spec(instance=near_repeated_column_files(tmp_path)))
        errors = {t["error"] for t in rep.trials}
        assert len(rep.trials) == 6 and len(errors) == 1
        assert errors.pop().startswith("RankDeficiencyError: matrix is rank deficient")
        assert [a["failed_trials"] for a in rep.aggregates] == [3, 3]
        assert len(lewis_calls) == 1

    def test_repeated_column_refused_by_the_reference_solve(self, tmp_path, lewis_calls):
        # an exactly repeated column fails the full solve that sets opt, so
        # the spec is refused before any weights or trials
        X = np.random.default_rng(1).standard_normal((60, 3))
        X = np.hstack([X, X[:, :1]])
        write_matrix_csv(tmp_path / "x.csv", X)
        write_labels(tmp_path / "y.txt", X.sum(axis=1))
        spec = outlier_spec(instance={"x_file": str(tmp_path / "x.csv"),
                                      "y_file": str(tmp_path / "y.txt")})
        with pytest.raises(RankDeficiencyError):
            run_experiment(spec)
        assert lewis_calls == []


ISOLATED = {"family": "isolated", "n": 200, "d": 4, "magnitude": 30.0}


def isolated_spec(**overrides):
    return outlier_spec(**{"instance": ISOLATED, "budgets": [15, 40], "trials": 2,
                           **overrides})


def body(report) -> bytes:
    """The report JSON outside its timing block."""
    rep = report.to_json_dict()
    rep.pop("timing")
    return json_bytes(rep)


@pytest.fixture
def cold_cache():
    """Empties run_experiment's instance cache, before the test and after it;
    yields the function that empties it."""
    clear = experiment._prepare_generated.cache_clear
    clear()
    yield clear
    clear()


@pytest.fixture
def generated(monkeypatch):
    """Counts calls of lewisreg.experiment.make_isolated_instance."""
    calls = []
    original = experiment.make_isolated_instance

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "make_isolated_instance", counting)
    return calls


@pytest.fixture
def counted(monkeypatch):
    """Counts the calls run_experiment's preparation makes, by name: the
    reference solves, the full problems built and the matrix files read."""
    calls = {"solve_lad": 0, "LadProblem": 0, "read_matrix_csv": 0}

    def counting(name):
        original = getattr(experiment, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, call)

    for name in calls:
        counting(name)
    return calls


REDUCED = [{"family": family, "d": 2, "reduction_eps": 0.5, "reduction_delta": 0.3}
           for family in ("hidden_coordinate", "biased_hypercube")]


class TestInstanceOncePerProcess:
    @pytest.mark.parametrize("instance", REDUCED, ids=lambda d: d["family"])
    def test_reduced_meta_unchanged(self, cold_cache, counted, instance):
        """With no planted optimum, every spec solves the full problem and
        reports the optimum in its meta; the memoized meta keeps none."""
        meta = materialize_instance(instance, 5)[2]
        assert "opt" not in meta
        reports = [run_experiment(outlier_spec(instance=instance, method=method,
                                               budgets=[10], trials=1))
                   for method in METHODS]
        assert counted == {"solve_lad": len(METHODS), "LadProblem": 1, "read_matrix_csv": 0}
        assert experiment._prepare_instance(instance, 5)[1] == meta
        assert len({rep.environment["opt"] for rep in reports}) == 1
        assert all(rep.environment["instance_meta"] == {**meta, "opt": rep.environment["opt"]}
                   for rep in reports)

    def test_file_instance_read_and_solved_by_every_spec(self, tmp_path, cold_cache,
                                                          counted):
        X = np.random.default_rng(2).standard_normal((60, 3))
        write_matrix_csv(tmp_path / "x.csv", X)
        write_labels(tmp_path / "y.txt", X.sum(axis=1) + 1.0)
        instance = {"x_file": str(tmp_path / "x.csv"), "y_file": str(tmp_path / "y.txt")}
        for method in ("lewis", "uniform"):
            run_experiment(outlier_spec(instance=instance, method=method, trials=1))
        assert counted == {"solve_lad": 2, "LadProblem": 2, "read_matrix_csv": 2}

    def test_budget_below_column_count_refused_before_reference_solve(self, cold_cache,
                                                                      counted):
        instance = REDUCED[0]
        with pytest.raises(DataError, match=r"^budget 1 below column count 2; refused$"):
            run_experiment(outlier_spec(instance=instance, budgets=[1, 10], trials=1))
        assert counted["solve_lad"] == 0
        run_experiment(outlier_spec(instance=instance, budgets=[10], trials=1))
        assert counted["solve_lad"] == 1

    def test_rank_deficient_file_refused_for_its_budget(self, tmp_path, cold_cache,
                                                        counted):
        X = np.random.default_rng(1).standard_normal((60, 2))
        X = np.hstack([X, X[:, :1]])
        write_matrix_csv(tmp_path / "x.csv", X)
        write_labels(tmp_path / "y.txt", X.sum(axis=1))
        spec = outlier_spec(instance={"x_file": str(tmp_path / "x.csv"),
                                      "y_file": str(tmp_path / "y.txt")}, budgets=[2])
        with pytest.raises(DataError, match=r"^budget 2 below column count 3; refused$"):
            run_experiment(spec)
        assert counted["solve_lad"] == 0

    def test_consecutive_specs_generate_once(self, cold_cache, generated):
        run_experiment(isolated_spec(method="lewis"))
        run_experiment(isolated_spec(method="uniform"))
        assert len(generated) == 1
        run_experiment(isolated_spec(method="uniform", seed=6))
        assert len(generated) == 2

    def test_changed_descriptor_generates_again(self, cold_cache, generated):
        run_experiment(isolated_spec())
        run_experiment(isolated_spec(instance={**ISOLATED, "magnitude": 20.0}))
        assert len(generated) == 2

    def test_same_fields_share_the_cache(self, cold_cache, generated):
        # the cache keys on the fields after conversion, defaults filled in
        plain = run_experiment(isolated_spec()).environment
        same = {**ISOLATED, "n": 200.0, "noise_scale": 0.05}
        assert run_experiment(isolated_spec(instance=same)).environment == plain
        assert len(generated) == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_cached_report_matches_cold_run(self, cold_cache, method):
        cold = body(run_experiment(isolated_spec(method=method)))
        cold_cache()
        other = "uniform" if method != "uniform" else "lewis"
        run_experiment(isolated_spec(method=other))  # prepares the instance
        assert body(run_experiment(isolated_spec(method=method))) == cold

    def test_cached_arrays_are_read_only(self, cold_cache):
        prob, _ = experiment._prepare_instance(ISOLATED, 5)
        prob2, _ = experiment._prepare_instance(ISOLATED, 5)
        X, y = prob.A, prob.b
        assert prob2 is prob and prob2.A is X and prob2.b is y
        assert not X.flags.writeable and not y.flags.writeable
        with pytest.raises(ValueError):
            X[0, 0] = 1.0

    def test_materialize_instance_returns_fresh_writable_arrays(self, cold_cache):
        cached = experiment._prepare_instance(ISOLATED, 5)[0].A
        X, y, _ = materialize_instance(ISOLATED, 5)
        assert X is not cached and X.flags.writeable and y.flags.writeable
        np.testing.assert_array_equal(X, cached)

    def test_edited_meta_does_not_leak(self, cold_cache):
        first = run_experiment(isolated_spec(method="lewis"))
        expected = body(run_experiment(isolated_spec(method="uniform")))
        cached = dict(experiment._prepare_instance(ISOLATED, 5)[1])
        first.environment["instance_meta"]["opt"] = -1.0
        first.environment["instance_meta"]["note"] = "edited"
        assert experiment._prepare_instance(ISOLATED, 5)[1] == cached
        assert body(run_experiment(isolated_spec(method="uniform"))) == expected

    def test_numpy_integers_in_the_descriptor(self, cold_cache):
        plain = run_experiment(isolated_spec()).environment
        cold_cache()
        spec = isolated_spec(instance={**ISOLATED, "n": np.int64(200), "d": np.int32(4)})
        assert run_experiment(spec).environment == plain
        assert run_experiment(spec).environment == plain  # from the cache

    def test_file_instance_is_read_every_time(self, tmp_path, cold_cache):
        X = np.random.default_rng(2).standard_normal((60, 3))
        write_matrix_csv(tmp_path / "x.csv", X)
        write_labels(tmp_path / "y.txt", X.sum(axis=1) + 1.0)
        spec = outlier_spec(instance={"x_file": str(tmp_path / "x.csv"),
                                      "y_file": str(tmp_path / "y.txt")}, trials=1)
        before = run_experiment(spec).environment["opt"]
        write_labels(tmp_path / "y.txt", 3.0 * X.sum(axis=1) + 1.0)
        after = run_experiment(spec).environment["opt"]
        assert after != before

    def test_failed_preparation_is_not_cached(self, cold_cache, generated, monkeypatch):
        original = experiment.make_isolated_instance

        def failing(*args, **kwargs):
            raise RankDeficiencyError("planted failure")

        monkeypatch.setattr(experiment, "make_isolated_instance", failing)
        with pytest.raises(RankDeficiencyError, match="planted failure"):
            run_experiment(isolated_spec())
        monkeypatch.setattr(experiment, "make_isolated_instance", original)
        run_experiment(isolated_spec())
        assert len(generated) == 1

    def test_refusals_keep_their_order(self, cold_cache, generated):
        with pytest.raises(DataError, match="unknown instance fields"):
            run_experiment(isolated_spec(instance={**ISOLATED, "bogus": 1}, budgets=[2]))
        assert generated == []
        run_experiment(isolated_spec())
        with pytest.raises(DataError, match=r"^budget 2 below column count 4; refused$"):
            run_experiment(isolated_spec(budgets=[2, 40]))  # from the cache
        assert len(generated) == 1

    def test_timing_reports_instance_seconds(self, cold_cache):
        for _ in range(2):  # generated, then from the cache
            timing = run_experiment(isolated_spec()).timing
            assert set(timing) == {"total_seconds", "instance_seconds"}
            assert 0.0 <= timing["instance_seconds"] <= timing["total_seconds"]
