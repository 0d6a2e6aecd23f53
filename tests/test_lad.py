import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, lsq_linear

import lewisreg.lad as lad_module
from lewisreg.instances import (
    biased_hypercube_instance,
    hidden_coordinate_instance,
    make_isolated_instance,
    make_outlier_instance,
    sample_pairs,
    two_coin_instances,
)
from lewisreg.lad import (
    LadProblem,
    l1_norm,
    objective,
    solve_lad,
    weighted_median_1d,
)
from lewisreg.lewis import lewis_weights, sampling_values
from lewisreg.linalg import DataError, RankDeficiencyError, WeightVector
from lewisreg.sketch import RngStream, draw_sketch


def breakpoint_scan_median(values, weights):
    """Oracle: evaluate the objective at every breakpoint, take the smallest
    value; ties resolve to the leftmost minimizing breakpoint."""
    best_v, best_obj = None, math.inf
    for v in sorted(values):
        obj = sum(w * abs(x - v) for x, w in zip(values, weights))
        if best_v is None or obj < best_obj - 1e-12 * max(1.0, abs(best_obj)):
            best_v, best_obj = v, obj
    return best_v, best_obj


def subgradient_certificate(A, b, w, beta, zero_tol=1e-7):
    """Test-side optimality check: find s in [-1, 1]^m with s_i = sign(r_i) on
    nonzero residuals, minimizing ||A^T (w . s)||_inf over the free entries on
    the (at most d, up to ties) zero-residual rows."""
    r = A @ beta - b
    scale = max(1.0, np.max(np.abs(b)))
    zero = np.abs(r) <= zero_tol * scale
    s = np.sign(r)
    s[zero] = 0.0
    g = A.T @ (w * s)
    idx = np.flatnonzero(zero)
    if idx.size:
        M = A[idx].T * w[idx]
        res = lsq_linear(M, -g, bounds=(-np.ones(idx.size), np.ones(idx.size)),
                         method="bvls")
        g = M @ np.clip(res.x, -1, 1) + g
    return float(np.max(np.abs(g)))


def random_problem(rng, m=None, d=None, weighted=True):
    d = d or int(rng.integers(2, 7))
    m = m or int(rng.integers(d + 2, 80))
    A = rng.standard_normal((m, d))
    beta = rng.standard_normal(d)
    b = A @ beta + rng.standard_normal(m) * rng.choice([0.1, 1.0, 10.0])
    w = rng.random(m) + 0.1 if weighted else np.ones(m)
    return LadProblem(A, b, w if weighted else None)


class TestObjective:
    def test_zero_residuals(self):
        prob = LadProblem(np.eye(2), np.array([1.0, 2.0]))
        assert objective(prob, np.array([1.0, 2.0])) == 0.0

    def test_simple(self):
        prob = LadProblem(np.eye(2), np.array([1.0, -1.0]))
        assert objective(prob, np.zeros(2)) == 2.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        prob = random_problem(rng)
        beta = rng.standard_normal(prob.A.shape[1])
        naive = 0.0
        for i in range(prob.A.shape[0]):
            naive += prob.weights[i] * abs(prob.A[i] @ beta - prob.b[i])
        assert objective(prob, beta) == pytest.approx(naive, rel=1e-12)

    def test_outlier_magnitude_cancellation(self):
        # compensated summation keeps tiny terms exact next to a 1e9 entry
        v = np.full(1000, 1e-3)
        v[0] = 1e9
        assert l1_norm(v) == 1e9 + 0.999

    def test_dimension_mismatch(self):
        prob = LadProblem(np.eye(2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            objective(prob, np.ones(3))


class TestWeightedMedian:
    def test_plain_median(self):
        assert weighted_median_1d([0.0, 1.0, 10.0], [1.0, 1.0, 1.0]) == 1.0

    def test_tie_breaks_left(self):
        assert weighted_median_1d([0.0, 2.0], [1.0, 1.0]) == 0.0

    def test_heavy_point_wins(self):
        assert weighted_median_1d([0.0, 1.0, 2.0, 100.0], [1.0, 1.0, 1.0, 5.0]) == 100.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_breakpoint_scan(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 25))
        v = np.round(rng.standard_normal(m) * 4, 2)
        w = rng.integers(1, 5, size=m).astype(float)
        med = weighted_median_1d(v, w)
        _, best_obj = breakpoint_scan_median(list(v), list(w))
        got = sum(wi * abs(x - med) for x, wi in zip(v, w))
        assert got == pytest.approx(best_obj, rel=1e-9, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_median_1d([], [])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_median_1d([1.0], [0.0])


def pinned_sketched_problem():
    """A sketched LAD problem built only from Philox draws and exact
    arithmetic: 300 draws by row l1 norm from a 4000 x 6 Gaussian design with
    noise and five label outliers."""
    g = RngStream(99).derive("pinned lad").generator()
    X = g.standard_normal((4000, 6))
    y = X @ g.standard_normal(6) + 0.1 * g.standard_normal(4000)
    y[g.choice(4000, size=5, replace=False)] += 1e4
    norms = np.abs(X).sum(axis=1)
    values = WeightVector(norms * (300 / norms.sum()), kind="sampling", budget=300.0)
    S = draw_sketch(values, 300, RngStream(99, stream=1))
    return LadProblem(X[S.indices], y[S.indices], S.scales)


# solve_lad(pinned_sketched_problem()) as recorded with the L1 simplex run
# from the least-squares start basis; an IRLS warm start gave the same bits
PINNED_SKETCHED_SOLUTION = {
    "beta": ["0x1.6efc31ddac513p+0", "-0x1.b371fa755c684p+0", "-0x1.e3bf898f99fffp-1",
             "-0x1.07d49561ec9bdp+1", "-0x1.543381fa9daecp+0", "0x1.52d83bdbf0217p-1"],
    "objective": "0x1.199148f9a700dp+17",
    "iterations": 23,
    "status": "optimal",
}
# the objective pinned before, with the active-set polish and the full IRLS
# schedule (145 iterations)
EARLIER_PINNED_OBJECTIVE = "0x1.199148f9a700dp+17"


class TestSolveLad:
    def test_sketched_solve_bit_identical_to_pin(self):
        sol = solve_lad(pinned_sketched_problem())
        assert [float(v).hex() for v in sol.beta] == PINNED_SKETCHED_SOLUTION["beta"]
        assert sol.objective.hex() == PINNED_SKETCHED_SOLUTION["objective"]
        assert sol.iterations == PINNED_SKETCHED_SOLUTION["iterations"]
        assert sol.status == PINNED_SKETCHED_SOLUTION["status"]
        assert sol.objective <= float.fromhex(EARLIER_PINNED_OBJECTIVE) * (1 + 1e-8)

    def test_negative_row_weight_is_data_error(self):
        with pytest.raises(DataError, match="row weights must be nonnegative"):
            LadProblem(np.eye(2), np.ones(2), np.array([1.0, -1.0]))

    def test_unweighted_median(self):
        sol = solve_lad(LadProblem(np.ones((3, 1)), np.array([0.0, 1.0, 10.0])))
        assert sol.beta[0] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(10.0)
        assert sol.status == "optimal"

    def test_exact_interpolation(self):
        sol = solve_lad(LadProblem(np.eye(2), np.array([3.0, -5.0])))
        np.testing.assert_allclose(sol.beta, [3.0, -5.0])
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_weighted_median_mass(self):
        prob = LadProblem(np.ones((4, 1)), np.array([0.0, 1.0, 2.0, 100.0]),
                          np.array([1.0, 1.0, 1.0, 5.0]))
        sol = solve_lad(prob)
        assert sol.beta[0] == pytest.approx(100.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_d1_matches_weighted_median_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 50))
        a = rng.standard_normal(m)
        a[np.abs(a) < 1e-2] += 0.5
        b = rng.standard_normal(m) * 5
        w = rng.random(m) + 0.1
        prob = LadProblem(a[:, None], b, w)
        sol = solve_lad(prob)
        med = weighted_median_1d(b / a, w * np.abs(a))
        oracle_obj = objective(prob, np.array([med]))
        assert sol.objective <= oracle_obj * (1 + 1e-8) + 1e-12
        assert abs(sol.objective - oracle_obj) <= 1e-8 * max(oracle_obj, 1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_certificate_on_random_solves(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng)
        sol = solve_lad(prob)
        A, b, w = prob.A, prob.b, prob.weights
        bound = 1e-8 * w.sum() * np.max(np.abs(A))
        assert subgradient_certificate(A, b, w, sol.beta) <= bound
        assert sol.status == "optimal"

    def test_no_random_direction_beats_solution(self):
        rng = np.random.default_rng(1)
        prob = random_problem(rng, m=60, d=4)
        sol = solve_lad(prob)
        for _ in range(100):
            ref = sol.beta + rng.standard_normal(4) * rng.choice([1e-4, 1e-2, 1.0])
            assert objective(prob, ref) >= sol.objective * (1 - 1e-8) - 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((40, 3))
        b = rng.standard_normal(40)
        c = rng.standard_normal(3)
        sol = solve_lad(LadProblem(A, b))
        sol_shift = solve_lad(LadProblem(A, b + A @ c))
        np.testing.assert_allclose(sol_shift.beta, sol.beta + c, atol=1e-8)

    def test_zero_weight_rows_dropped(self):
        A = np.vstack([np.ones((3, 1)), [[1.0]]])
        b = np.array([0.0, 1.0, 10.0, 1e6])
        w = np.array([1.0, 1.0, 1.0, 0.0])
        sol = solve_lad(LadProblem(A, b, w))
        assert sol.beta[0] == pytest.approx(1.0)

    def test_duplicated_rows_and_ties(self):
        A = np.ones((6, 1))
        b = np.array([0.0, 0.0, 2.0, 2.0, 2.0, 5.0])
        sol = solve_lad(LadProblem(A, b))
        assert sol.beta[0] == pytest.approx(2.0)
        assert sol.status == "optimal"

    def test_rank_deficient_support_rejected(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(RankDeficiencyError):
            solve_lad(LadProblem(A, np.ones(3)))
        # a dependent column under row weights and column scales 1e-6 and 1e6,
        # the scales the unit-diagonal scaling of the Gram takes out; the same
        # designs with an independent column are solved
        rng = np.random.default_rng(14)
        B = rng.standard_normal((40, 3))
        b = rng.standard_normal(40)
        dependent = np.column_stack([B, B[:, 0] - 2.0 * B[:, 2]])
        independent = np.column_stack([B, rng.standard_normal(40)])
        weights = [None, rng.random(40) + 0.1, 10.0 ** rng.uniform(-6, 6, 40)]
        for scales in ([1.0, 1.0, 1.0, 1.0], [1e-6, 1.0, 1e6, 1.0], [1e6, 1e-6, 1.0, 1e6]):
            for w in weights:
                with pytest.raises(RankDeficiencyError):
                    solve_lad(LadProblem(dependent * scales, b, w))
                assert solve_lad(LadProblem(independent * scales, b, w)).status == "optimal"
        # dependent on the positively weighted rows only
        C = independent.copy()
        C[:10, 3] = C[:10, 0] + C[:10, 1]
        w = np.ones(40)
        w[10:] = 0.0
        with pytest.raises(RankDeficiencyError):
            solve_lad(LadProblem(C, b, w))
        assert solve_lad(LadProblem(C, b)).status == "optimal"

    def test_fewer_rows_than_columns_rejected(self):
        with pytest.raises(RankDeficiencyError):
            solve_lad(LadProblem(np.ones((1, 2)), np.ones(1)))

    def test_objective_recomputed_from_beta(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng)
        sol = solve_lad(prob)
        assert sol.objective == pytest.approx(objective(prob, sol.beta), rel=1e-9)

    def test_gap_estimate_small_at_optimum(self):
        rng = np.random.default_rng(4)
        prob = random_problem(rng, m=50, d=3)
        sol = solve_lad(prob)
        assert sol.optimality_gap_estimate <= 1e-8 * max(1.0, sol.objective)

    def test_badly_scaled_columns(self):
        rng = np.random.default_rng(6)
        scales = 10.0 ** np.array([0.0, 3.0, 6.0])
        A = rng.standard_normal((80, 3)) * scales
        b = A @ (rng.standard_normal(3) / scales) + rng.standard_normal(80)
        sol = solve_lad(LadProblem(A, b))
        assert sol.status == "optimal"
        bound = 1e-8 * 80 * np.max(np.abs(A))
        assert subgradient_certificate(A, b, np.ones(80), sol.beta) <= bound

    def test_huge_outlier_instance(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((300, 6))
        beta = rng.standard_normal(6)
        b = A @ beta + rng.standard_normal(300)
        b[17] += 1e6
        sol = solve_lad(LadProblem(A, b))
        assert sol.status == "optimal"
        bound = 1e-8 * 300 * np.max(np.abs(A))
        assert subgradient_certificate(A, b, np.ones(300), sol.beta) <= bound


def tall_sketched_problems(n=4000, d=20, budget=800):
    """The sketched problems of the first 12 active-tall benchmark ops at
    seed 1, with the recipe of perfbench/workloads.py (Gaussian rows on even
    ops, Student-t(1.5) on odd ones, three 1e6 label outliers, Lewis-weight
    sampling, repeated draws merged) but 4000 rows instead of 50 000."""
    for i in range(12):
        g = np.random.default_rng([1, 1, i])
        X = g.standard_normal((n, d)) if i % 2 == 0 else g.standard_t(1.5, (n, d))
        y = X @ g.standard_normal(d) + g.standard_normal(n)
        rows = g.choice(n, size=3, replace=False)
        y[rows] += 1e6 * np.where(g.random(3) < 0.5, -1.0, 1.0)
        S = draw_sketch(sampling_values(lewis_weights(X), budget), budget,
                        RngStream(int(g.integers(2**62))))
        distinct, draw_of = np.unique(S.indices, return_inverse=True)
        yield LadProblem(X[distinct], y[distinct], np.bincount(draw_of, weights=S.scales))


@pytest.fixture(scope="module")
def tall_sketches():
    return list(tall_sketched_problems())


FAMILIES = ("outlier", "isolated", "biased_hypercube", "two_coin", "hidden_coordinate")


def family_problem(family, seed):
    """A small weighted problem from one of the five instance families, with
    some rows repeated and the weights either random or small integers
    (zeros included), so that residuals and breakpoints tie."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    if family == "outlier":
        inst = make_outlier_instance(int(rng.integers(d + 3, 100)), d,
                                     10.0 ** rng.uniform(0, 10), RngStream(seed),
                                     n_outliers=2)
        X, y = inst.X, inst.y
    elif family == "isolated":
        inst = make_isolated_instance(int(rng.integers(d + 3, 100)), d, RngStream(seed))
        X, y = inst.X, inst.y
    else:
        if family == "biased_hypercube":
            dist = biased_hypercube_instance(d, 0.1, rng=RngStream(seed))
        elif family == "two_coin":
            dist = two_coin_instances(d, 0.1)[int(rng.integers(2))]
        else:
            dist = hidden_coordinate_instance(d, int(rng.integers(d)))
        X, y = sample_pairs(dist, int(rng.integers(4 * d, 200)), RngStream(seed))
    repeat = rng.integers(0, X.shape[0], size=int(rng.integers(0, X.shape[0] // 2 + 1)))
    X, y = np.vstack([X, X[repeat]]), np.concatenate([y, y[repeat]])
    m = X.shape[0]
    w = rng.integers(0, 4, size=m).astype(float) if rng.random() < 0.5 else rng.random(m) + 0.05
    return LadProblem(X, y, w)


def highs_optimum(prob):
    """max b.s subject to A^T s = 0, |s| <= w: the LP dual of the weighted LAD
    problem, whose optimum equals the LAD minimum."""
    res = linprog(-prob.b, A_eq=prob.A.T, b_eq=np.zeros(prob.A.shape[1]),
                  bounds=np.column_stack([-prob.weights, prob.weights]), method="highs",
                  options={"primal_feasibility_tolerance": 1e-7,
                           "dual_feasibility_tolerance": 1e-7})
    assert res.status == 0, res.message
    return -float(res.fun)


def simplex_from_random_basis(prob, seed):
    """(status, objective) of the L1 simplex started from the first d
    independent rows in a random order, a basis unrelated to the residuals."""
    keep = prob.weights > 0
    A, b, w = prob.A[keep], prob.b[keep], prob.weights[keep]
    basis = lad_module._greedy_basis(A, np.random.default_rng(seed).random(A.shape[0]))
    beta, status, _, _ = lad_module._l1_simplex(A, b, w, basis, 1e-8, 2000)
    return status, objective(LadProblem(A, b, w), beta)


def entering_row_full_sort(t, t_e, rise, need):
    """Reference line search: lexsort every breakpoint, return (the index of
    the entering breakpoint, the number of breakpoints passed before it)."""
    order = np.lexsort((t_e, t))
    j = min(int(np.searchsorted(np.cumsum(rise[order]), need, side="left")), t.size - 1)
    return order[j], j


class TestSimplexCertifies:
    @pytest.mark.parametrize("op", range(12))
    def test_tall_sketch_certified_from_any_start(self, tall_sketches, op):
        prob = tall_sketches[op]
        ref = solve_lad(prob)
        assert ref.status == "optimal"
        status, obj = simplex_from_random_basis(prob, op)
        assert status == "optimal"
        assert abs(obj - ref.objective) <= 1e-8 * ref.objective

    @given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_problem_certified_from_any_start(self, family, seed):
        prob = family_problem(family, seed)
        try:
            ref = solve_lad(prob)
        except RankDeficiencyError:
            return  # the zero weights left a rank-deficient support
        assert ref.status == "optimal"
        status, obj = simplex_from_random_basis(prob, seed)
        assert status == "optimal"
        assert abs(obj - ref.objective) <= 1e-8 * ref.objective + 1e-12

    @given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_highs_dual_lp(self, family, seed):
        prob = family_problem(family, seed)
        try:
            sol = solve_lad(prob)
        except RankDeficiencyError:
            return
        keep = prob.weights > 0
        opt = highs_optimum(LadProblem(prob.A[keep], prob.b[keep], prob.weights[keep]))
        assert sol.status == "optimal"
        assert sol.objective <= opt * (1 + 1e-8 + 1e-7) + 1e-9
        assert sol.objective >= opt * (1 - 1e-7) - 1e-9
        assert sol.certificate_infnorm <= 1e-8 * prob.weights.sum()

    @pytest.mark.parametrize("seed", [1, 19, 22])
    def test_label_outliers_leave_other_zero_tests_alone(self, seed):
        """Three 1e9 label outliers must not make the residuals of ordinary
        rows count as zero: with a zero test scaled by max |b| the simplex
        cycled on these problems until its pivot budget ran out."""
        g = np.random.default_rng(seed)
        X = g.standard_normal((400, 5))
        y = X @ g.standard_normal(5) + g.standard_normal(400)
        y[g.choice(400, 3, replace=False)] += 1e9 * np.where(g.random(3) < 0.5, -1.0, 1.0)
        prob = LadProblem(X, y)
        sol = solve_lad(prob)
        opt = highs_optimum(prob)
        assert sol.status == "optimal"
        assert abs(sol.objective - opt) <= 1e-7 * opt

    def test_pivot_budget_spent_returns_best_vertex_uncertified(self, tall_sketches):
        prob = tall_sketches[0]
        assert solve_lad(prob).iterations > 1
        sol = solve_lad(prob, max_iters=1)
        assert sol.status == "max_iter"
        assert sol.iterations == 1
        assert sol.objective == objective(prob, sol.beta)
        assert sol.objective >= highs_optimum(prob) * (1 - 1e-7)
        with pytest.raises(DataError, match="max_iters must be nonnegative"):
            solve_lad(prob, max_iters=-1)

    def test_entering_row_matches_full_sort_on_tied_breakpoints(self):
        """40 equal breakpoints straddle each cut of the ordered head (the
        64th and the 512th): the head must take the whole group, so that the
        entering row is the one the full order picks wherever the running
        sum stops, the end included."""
        rng = np.random.default_rng(3)
        for cut in (64, 512):
            t = np.concatenate([np.arange(cut - 20.0), np.full(40, cut - 20.0),
                                np.arange(cut - 19.0, 5000.0 - 21.0)])
            t = t[rng.permutation(t.size)]
            t_e, rise = rng.random(t.size), np.ones(t.size)
            for need in [*(np.arange(cut - 25, cut + 25) + 0.5), t.size + 1.0]:
                want, _ = entering_row_full_sort(t, t_e, rise, need)
                assert lad_module._entering_row(t, t_e, rise, need) == want

    def test_long_line_searches_and_many_pivots(self, monkeypatch):
        """A 5000 x 80 design with label outliers and repeated rows, so that
        breakpoints tie at the cuts of the ordered head: every line search
        must enter the row the full lexsort picks, the first one passes more
        than 512 breakpoints, and the solve needs more than 300 pivots."""
        entering_row = lad_module._entering_row
        passed = []

        def checked_entering_row(t, t_e, rise, need):
            want, j = entering_row_full_sort(t, t_e, rise, need)
            got = entering_row(t, t_e, rise, need)
            assert got == want
            passed.append(j)
            return got

        monkeypatch.setattr(lad_module, "_entering_row", checked_entering_row)
        g = np.random.default_rng(0)
        X = g.standard_normal((4000, 80))
        y = X @ g.standard_normal(80) + g.standard_normal(4000)
        y[g.choice(4000, 3, replace=False)] += 1e6 * np.where(g.random(3) < 0.5, -1.0, 1.0)
        repeat = g.integers(0, 4000, 1000)
        prob = LadProblem(np.vstack([X, X[repeat]]), np.concatenate([y, y[repeat]]))
        sol = solve_lad(prob)
        assert passed[0] > 512
        assert sol.status == "optimal"
        assert sol.iterations == len(passed) > 300
        opt = highs_optimum(prob)
        assert abs(sol.objective - opt) <= 1e-7 * opt
