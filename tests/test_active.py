import json
import tracemalloc

import numpy as np
import pytest

from lewisreg.active import (
    FileBackedLabelOracle,
    InMemoryLabelOracle,
    active_solve,
    augmented_lewis_weights,
    sample_and_solve,
    sketch_and_solve_known_y,
)
from lewisreg.cli import main
from lewisreg.dataio import DataError, read_labels, write_labels, write_matrix_csv
from lewisreg.instances import make_outlier_instance
from lewisreg.lad import LadProblem, objective
from lewisreg.lewis import SAMPLING_TOL, lewis_weights, recommended_budget, sampling_values
from lewisreg.linalg import WeightVector, leverage_scores, orthonormal_column_basis
from lewisreg.sketch import RngStream, draw_sketch

from helpers import identity_sketch, oversampled_budget, relative_error_gap


def gaussian_instance(seed, n=200, d=4, noise=0.0):
    g = RngStream(seed).generator()
    X = g.standard_normal((n, d))
    beta = g.standard_normal(d)
    y = X @ beta + (noise * g.standard_normal(n) if noise else 0.0)
    return X, y, beta


class TestLabelOracles:
    def test_query_logging_and_cache(self):
        o = InMemoryLabelOracle(np.array([4.0, 5.0, 6.0]))
        assert o.query(1) == 5.0
        assert o.query(1) == 5.0
        assert len(o.query_log) == 2
        assert o.query_log == [1, 1]

    def test_out_of_range(self):
        o = InMemoryLabelOracle(np.array([1.0]))
        with pytest.raises(IndexError):
            o.query(3)

    def test_file_backed_lazy_reads(self, tmp_path):
        path = tmp_path / "labels.txt"
        y = np.array([0.5, -1.25, 3.0, 7.5, -2.0])
        path.write_text("".join(repr(float(v)) + "\n" for v in y))
        o = FileBackedLabelOracle(path)
        assert o.n == 5
        assert o.query(3) == 7.5
        assert o.query(0) == 0.5
        assert o.query(3) == 7.5  # cached, no second read
        assert o.lines_read == 2
        assert len(o.query_log) == 3

    def test_file_backed_bad_label_names_the_file_line(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("1\n\n2\nabc\n")
        o = FileBackedLabelOracle(path)
        assert o.query(1) == 2.0
        message = f"{path}: line 4: could not parse a real number"
        with pytest.raises(DataError) as info:
            o.query(2)
        assert str(info.value) == message
        with pytest.raises(DataError) as info:
            read_labels(path)
        assert str(info.value) == message

    def test_file_backed_holds_about_the_file(self, tmp_path):
        """50 000 labels with blank, padded and CRLF lines among them: the
        oracle holds under three times the file's size once built, and every
        line reads back with its number."""
        path = tmp_path / "labels.txt"
        y = np.random.default_rng(0).standard_normal(50_000)
        lines = [repr(v) for v in y.tolist()]
        lines[10], lines[20] = f"  {lines[10]}\t", f"{lines[20]}\r"
        path.write_text("\n".join([*lines[:30], "", " \t", *lines[30:]]) + "\n")
        tracemalloc.start()
        try:
            o = FileBackedLabelOracle(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 3 * path.stat().st_size
        assert o.n == y.size
        rows = [0, 10, 20, 29, 30, 49_999]
        assert [o.query(i) for i in rows] == y[rows].tolist()
        path.write_text("1\n\n \n2\r\nx\n")
        with pytest.raises(DataError, match="line 5: could not parse"):
            FileBackedLabelOracle(path).query(2)

    def test_file_backed_matches_in_memory(self, tmp_path):
        path = tmp_path / "labels.txt"
        g = RngStream(0).generator()
        y = g.standard_normal(20)
        path.write_text("".join(repr(float(v)) + "\n" for v in y))
        o = FileBackedLabelOracle(path)
        for i in (0, 7, 19):
            assert o.query(i) == y[i]


class TestActiveSolve:
    def test_noiseless_exact_recovery_over_seeds(self):
        X, y, _ = gaussian_instance(0)
        scale = np.abs(y).sum()
        for seed in range(20):
            res = active_solve(X, InMemoryLabelOracle(y), 0.5, 0.2,
                               RngStream(seed), regime="constant_prob")
            full = objective(LadProblem(X, y), res.beta_hat)
            assert full <= 1e-8 * scale

    def test_query_accounting(self):
        X, y, _ = gaussian_instance(1, n=120, d=3)
        oracle = InMemoryLabelOracle(y)
        res = active_solve(X, oracle, 0.4, 0.1, RngStream(3),
                           regime="constant_prob")
        distinct = len(set(oracle.query_log))
        assert len(oracle.query_log) == distinct  # deduplicated queries
        assert res.labels_queried == distinct
        assert distinct <= res.n_draws

    def test_nonadaptive_query_set(self):
        # the indices queried depend on (X, stream, budget) only, never labels
        X, y1, _ = gaussian_instance(2, n=150, d=3)
        y2 = -5.0 * y1 + 3.0
        o1, o2 = InMemoryLabelOracle(y1), InMemoryLabelOracle(y2)
        active_solve(X, o1, 0.4, 0.1, RngStream(11), budget_override=40)
        active_solve(X, o2, 0.4, 0.1, RngStream(11), budget_override=40)
        assert o1.query_log == o2.query_log

    def test_budget_below_d_refused(self):
        X, y, _ = gaussian_instance(3, n=50, d=4)
        with pytest.raises(ValueError):
            active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(0),
                         budget_override=3)

    def test_eps_out_of_range(self):
        X, y, _ = gaussian_instance(4, n=30, d=2)
        with pytest.raises(ValueError):
            active_solve(X, InMemoryLabelOracle(y), 1.5, 0.1, RngStream(0))

    def test_deterministic_given_stream(self):
        X, y, _ = gaussian_instance(5, n=80, d=3, noise=0.5)
        r1 = active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(9),
                          budget_override=30)
        r2 = active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(9),
                          budget_override=30)
        np.testing.assert_array_equal(r1.beta_hat, r2.beta_hat)
        np.testing.assert_array_equal(r1.sketch.indices, r2.sketch.indices)


class TestBudget:
    """A recommended budget is oversampled for the sampling-grade weights; an
    override is drawn exactly."""

    def test_active_solve_draws_the_oversampled_budget(self):
        X, y, _ = gaussian_instance(18, n=150, d=3, noise=0.5)
        res = active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(3),
                           regime="constant_prob")
        assert res.n_draws == oversampled_budget(3, 0.4, 0.1, "constant_prob") == 85
        assert recommended_budget(3, 0.4, 0.1, "constant_prob") == 83

    def test_known_y_draws_the_oversampled_budget_of_d_plus_one(self):
        X, y, _ = gaussian_instance(19, n=150, d=3, noise=0.5)
        res = sketch_and_solve_known_y(X, y, 0.4, 0.1, RngStream(3),
                                       regime="constant_prob")
        assert res.n_draws == oversampled_budget(4, 0.4, 0.1, "constant_prob")

    def test_cli_active_draws_the_oversampled_budget(self, tmp_path):
        X, y, _ = gaussian_instance(20, n=300, d=2, noise=0.5)
        write_matrix_csv(tmp_path / "x.csv", X)
        write_labels(tmp_path / "y.txt", y)
        out = tmp_path / "out.json"
        assert main(["solve", str(tmp_path / "x.csv"), str(tmp_path / "y.txt"),
                     "--mode", "active", "--out", str(out)]) == 0
        N = oversampled_budget(2, 0.25, 0.1, "high_prob")
        assert json.loads(out.read_text())["n_draws"] == N
        assert N > recommended_budget(2, 0.25, 0.1, "high_prob")

    @pytest.mark.parametrize("budget", [3, 40, 97])
    def test_override_is_drawn_exactly(self, budget):
        X, y, _ = gaussian_instance(21, n=150, d=3, noise=0.5)
        res = active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(4),
                           budget_override=budget)
        assert res.n_draws == budget
        res = sketch_and_solve_known_y(X, y, 0.4, 0.1, RngStream(4),
                                       budget_override=budget)
        assert res.n_draws == budget


class TestSampleAndSolve:
    def test_uniform_baseline_runs(self):
        X, y, _ = gaussian_instance(6, n=100, d=3, noise=0.3)
        p = WeightVector(np.full(100, 0.4), kind="sampling", budget=40.0)
        res = sample_and_solve(X, InMemoryLabelOracle(y), p, RngStream(1))
        assert res.n_draws == 40
        assert res.beta_hat.shape == (3,)

    def test_rejects_non_sampling_kind(self):
        X, y, _ = gaussian_instance(7, n=30, d=2)
        with pytest.raises(ValueError):
            sample_and_solve(X, InMemoryLabelOracle(y),
                             WeightVector(np.ones(30), kind="lewis"), RngStream(0))


class TestValidatesXOnce:
    def test_one_finiteness_pass_per_active_solve(self, monkeypatch):
        """active_solve checks the entries of X once; lewis_weights checks
        them in its first Gram, and the draw-query-solve step not again."""
        import lewisreg.linalg as linalg_module

        X, y, _ = gaussian_instance(15, n=400, d=4, noise=0.5)
        isfinite, passes = np.isfinite, []

        def counting_isfinite(a, *args, **kwargs):
            passes.append(np.shape(a))
            return isfinite(a, *args, **kwargs)

        ref = active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(3))
        monkeypatch.setattr(linalg_module.np, "isfinite", counting_isfinite)
        res = active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(3))
        monkeypatch.undo()
        assert passes.count(X.shape) == 1
        assert_same_result(res, ref)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row, col", [(0, 0), (57, 2), (199, 3)])
    def test_non_finite_entries_refused_alike(self, entry, row, col):
        X, y, _ = gaussian_instance(16, n=200, d=4)
        for Z in (X.copy(), X * 1e-200):  # the second one's Gram underflows too
            Z[row, col] = entry
            calls = [lambda: lewis_weights(Z), lambda: lewis_weights(Z, SAMPLING_TOL),
                     lambda: active_solve(Z, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(0)),
                     lambda: sketch_and_solve_known_y(Z, y, 0.4, 0.1, RngStream(0))]
            for call in calls:
                with pytest.raises(DataError, match="^design matrix has non-finite entries$"):
                    call()


def assert_same_result(a, b):
    np.testing.assert_array_equal(a.sketch.indices, b.sketch.indices)
    np.testing.assert_array_equal(a.sketch.scales, b.sketch.scales)
    np.testing.assert_array_equal(a.beta_hat, b.beta_hat)
    assert a.labels_queried == b.labels_queried
    assert a.sketched_objective == b.sketched_objective


class TestSinglePath:
    """active_solve and sketch_and_solve_known_y are sample_and_solve on their
    own importance vector, and refuse bad input before computing it."""

    def test_active_solve_is_sample_and_solve_on_lewis_values(self):
        X, y, _ = gaussian_instance(14, n=150, d=3, noise=0.5)
        a = active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(7),
                         budget_override=40)
        b = sample_and_solve(X, InMemoryLabelOracle(y),
                             sampling_values(lewis_weights(X, SAMPLING_TOL), 40),
                             RngStream(7))
        assert_same_result(a, b)

    def test_known_y_is_sample_and_solve_on_augmented_basis(self):
        X, y, _ = gaussian_instance(15, n=150, d=3, noise=0.5)
        y[4] += 1e4
        a = sketch_and_solve_known_y(X, y, 0.2, 0.1, RngStream(8), budget_override=40)
        w = lewis_weights(orthonormal_column_basis(np.hstack([X, y[:, None]])),
                          SAMPLING_TOL)
        b = sample_and_solve(X, InMemoryLabelOracle(y), sampling_values(w, 40),
                             RngStream(8))
        assert_same_result(a, b)

    def test_given_weights_give_the_same_result(self):
        X, y, _ = gaussian_instance(17, n=150, d=3, noise=0.5)
        y[4] += 1e4
        a = active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(9),
                         budget_override=40, weights=lewis_weights(X, SAMPLING_TOL))
        b = active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(9),
                         budget_override=40)
        assert_same_result(a, b)
        a = sketch_and_solve_known_y(X, y, 0.2, 0.1, RngStream(9), budget_override=40,
                                     weights=augmented_lewis_weights(X, y))
        b = sketch_and_solve_known_y(X, y, 0.2, 0.1, RngStream(9), budget_override=40)
        assert_same_result(a, b)

    @pytest.mark.parametrize("weights", [
        lambda X: leverage_scores(X),
        lambda X: sampling_values(lewis_weights(X), 40),
        lambda X: lewis_weights(X[:-1]),
        lambda X: lewis_weights(X).values,
    ], ids=["leverage-kind", "sampling-kind", "short", "bare-array"])
    def test_wrong_weights_refused(self, weights):
        X, y, _ = gaussian_instance(18, n=60, d=3)
        w = weights(X)
        with pytest.raises(ValueError, match="kind 'lewis' and length 60"):
            active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(0),
                         budget_override=20, weights=w)
        with pytest.raises(ValueError, match="kind 'lewis' and length 60"):
            sketch_and_solve_known_y(X, y, 0.2, 0.1, RngStream(0), budget_override=20,
                                     weights=w)

    @pytest.mark.parametrize("call", [
        lambda X, y: active_solve(X, InMemoryLabelOracle(y[:-1]), 0.4, 0.1, RngStream(0)),
        lambda X, y: active_solve(X, InMemoryLabelOracle(y), 1.5, 0.1, RngStream(0)),
        lambda X, y: active_solve(X, InMemoryLabelOracle(y), 0.4, 0.0, RngStream(0)),
        lambda X, y: active_solve(X, InMemoryLabelOracle(y), 0.4, 0.1, RngStream(0),
                                  budget_override=3),
        lambda X, y: sketch_and_solve_known_y(X, y[:-1], 0.2, 0.1, RngStream(0)),
        lambda X, y: sketch_and_solve_known_y(X, y, 0.0, 0.1, RngStream(0)),
        lambda X, y: sketch_and_solve_known_y(X, y, 0.2, 0.1, RngStream(0),
                                              budget_override=3),
    ], ids=["active-oracle-length", "active-eps", "active-delta", "active-budget",
            "known-y-length", "known-y-eps", "known-y-budget"])
    def test_refusals_precede_weights(self, monkeypatch, call):
        def forbidden(*args, **kwargs):
            raise AssertionError("weights computed before the input was refused")

        monkeypatch.setattr("lewisreg.active.lewis_weights", forbidden)
        X, y, _ = gaussian_instance(16, n=50, d=4)
        with pytest.raises(ValueError):
            call(X, y)


class TestKnownY:
    def test_y_in_column_space(self):
        X, y, _ = gaussian_instance(8, n=120, d=3)
        res = sketch_and_solve_known_y(X, y, 0.2, 0.1, RngStream(2))
        assert objective(LadProblem(X, y), res.beta_hat) <= 1e-8 * np.abs(y).sum()

    def test_zero_labels(self):
        X, _, _ = gaussian_instance(9, n=80, d=3)
        y = np.zeros(80)
        res = sketch_and_solve_known_y(X, y, 0.2, 0.1, RngStream(3))
        assert objective(LadProblem(X, y), res.beta_hat) <= 1e-10

    def test_large_eps_samples_without_the_guarantee(self):
        X, y, _ = gaussian_instance(10, n=50, d=2)
        res = sketch_and_solve_known_y(X, y, 0.4, 0.1, RngStream(0))
        assert res.beta_hat.shape == (2,)

    def test_augmented_weights_see_outlier(self):
        # the outlier row's augmented Lewis weight is large, so it gets sampled
        inst = make_outlier_instance(400, 3, 1e6, RngStream(20).derive("inst"))
        j = int(np.argmax(np.abs(inst.y - inst.X @ inst.beta_star)))
        aug = np.hstack([inst.X, inst.y[:, None]])
        w_aug = lewis_weights(aug)
        assert w_aug.values[j] >= 0.9
        res = sketch_and_solve_known_y(inst.X, inst.y, 0.25, 0.1,
                                       RngStream(21), budget_override=120)
        assert j in set(int(i) for i in res.sketch.indices)


class TestRelativeErrorGap:
    def test_zero_when_betas_equal(self):
        X, y, beta = gaussian_instance(11, n=60, d=3)
        S = identity_sketch(60)
        assert relative_error_gap(X, y, S, beta, beta) == 0.0

    def test_identity_sketch_zero_for_all_probes(self):
        X, y, beta = gaussian_instance(12, n=60, d=3, noise=1.0)
        S = identity_sketch(60)
        g = RngStream(4).generator()
        for _ in range(10):
            probe = beta + g.standard_normal(3)
            assert abs(relative_error_gap(X, y, S, beta, probe)) <= 1e-12

    def test_lewis_sketch_gap_small(self):
        inst = make_outlier_instance(800, 5, 1e5, RngStream(30).derive("inst"))
        w = lewis_weights(inst.X)
        eps = 0.5
        from lewisreg.lad import solve_lad
        from lewisreg.lewis import recommended_budget
        N = recommended_budget(5, eps, 0.1, "constant_prob")
        p = sampling_values(w, N)
        beta_star = solve_lad(LadProblem(inst.X, inst.y)).beta
        g = RngStream(31).generator()
        ok = 0
        trials = 0
        for t in range(25):
            S = draw_sketch(p, N, RngStream(32, stream=t))
            for _ in range(4):
                probe = beta_star + g.standard_normal(5) * g.choice([0.1, 1.0])
                gap = relative_error_gap(inst.X, inst.y, S, beta_star, probe)
                trials += 1
                if abs(gap) <= eps:
                    ok += 1
        assert ok >= 0.9 * trials

    def test_outlier_magnitude_invariance_when_unsampled(self):
        # both loss differences shift by the same amount when an unsampled
        # label changes, so the gap is bit-for-bit stable under outlier scaling
        X, y0, beta = gaussian_instance(13, n=300, d=4, noise=1.0)
        w = lewis_weights(X)
        p = sampling_values(w, 60)
        S = draw_sketch(p, 60, RngStream(14))
        unsampled = sorted(set(range(300)) - set(int(i) for i in S.indices))
        j = unsampled[0]
        probe = beta + 0.5
        gaps = []
        for mag in (1e3, 1e6, 1e9):
            y = y0.copy()
            y[j] += mag
            gaps.append(relative_error_gap(X, y, S, beta, probe))
        assert abs(gaps[0] - gaps[1]) <= 1e-9
        assert abs(gaps[1] - gaps[2]) <= 1e-9
