import hashlib
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    SOLVER_TOL,
    LadProblem,
    l1_norm,
    objective,
    solve_lad,
)
from lewisreg.lewis import lewis_weights, sampling_values
from lewisreg.linalg import DataError, RankDeficiencyError, WeightVector
from lewisreg.sketch import RngStream, draw_sketch

from helpers import full_pass_l1_simplex, sequential_greedy_basis, weighted_median_1d


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


def outlier_problem():
    """The cli-full benchmark recipe at 20 000 x 10: Gaussian rows, Gaussian
    noise and three 1e6 label outliers."""
    g = np.random.default_rng(20000)
    X = g.standard_normal((20000, 10))
    y = X @ g.standard_normal(10) + g.standard_normal(20000)
    y[g.choice(20000, 3, replace=False)] += 1e6 * np.where(g.random(3) < 0.5, -1.0, 1.0)
    return LadProblem(X, y)


def tall_outlier_problem(m, d, seed):
    """Gaussian rows, Gaussian noise and three 1e6 label outliers."""
    g = np.random.default_rng([17, m, d, seed])
    X = g.standard_normal((m, d))
    y = X @ g.standard_normal(d) + g.standard_normal(m)
    y[g.choice(m, 3, replace=False)] += 1e6 * np.where(g.random(3) < 0.5, -1.0, 1.0)
    return LadProblem(X, y)


def long_line_search_problem():
    """A 5000 x 80 design with label outliers and 1000 repeated rows."""
    g = np.random.default_rng(0)
    X = g.standard_normal((4000, 80))
    y = X @ g.standard_normal(80) + g.standard_normal(4000)
    y[g.choice(4000, 3, replace=False)] += 1e6 * np.where(g.random(3) < 0.5, -1.0, 1.0)
    repeat = g.integers(0, 4000, 1000)
    return LadProblem(np.vstack([X, X[repeat]]), np.concatenate([y, y[repeat]]))


# full solves as recorded with the simplex that recomputed its state from
# scratch at every pivot; carrying the state along the steps keeps every bit.
# outlier_problem has more than 320 d rows, so its simplex now starts from the
# LAD minimizer of a 1-in-8 row sample: the same bits in 60 pivots, not 65
PINNED_FULL_SOLUTIONS = {
    "outlier_problem": {
        "beta": [
            "0x1.9923e42db18adp+1", "-0x1.67edb2c53864ep-3", "-0x1.0c89b4dc48ba0p+0",
            "-0x1.ed3b797549858p+0", "-0x1.1d64a718594dcp+1", "0x1.5de03dbe46b0ap+0",
            "0x1.b06e8327e4815p-1", "0x1.6f2b66951bbd1p-1", "-0x1.9a5df72057892p-1",
            "-0x1.f04ab2fe248ecp-1"],
        "objective": "0x1.702625aaf82fap+21",
        "iterations": 60,
    },
    "long_line_search_problem": {
        "beta": [
            "0x1.abc6182022e6bp-3", "0x1.2b1ac75dc0e4ep+0", "0x1.9e11c1fb9d6e8p-1",
            "0x1.52ac057d3dfcap+0", "0x1.a0449c41c60e4p-1", "-0x1.a8dfae9da0626p-1",
            "-0x1.1f614d0454492p-2", "0x1.befd0df294ef4p-1", "-0x1.8a364e2dafeb1p-1",
            "0x1.d5508fa836275p-1", "-0x1.3db569ece960fp-1", "-0x1.c01c35ee69854p+0",
            "-0x1.923019cd731c6p-5", "0x1.5beafd55d5efdp+0", "0x1.07831575fb617p+1",
            "0x1.87f8b437b0c0ep+0", "-0x1.e7a5f149c982cp-2", "-0x1.e80bd8c278385p-5",
            "-0x1.03c3fa7a2ef0bp+0", "-0x1.32333817be499p-1", "-0x1.e41d94277a3dap-2",
            "0x1.ab5f7d0f93ab7p-3", "0x1.50267bed696a0p-1", "0x1.1dafb134eaf5cp+1",
            "-0x1.bad8580fd8599p-1", "0x1.0d7a10e0e3008p+0", "-0x1.aedf645156639p-1",
            "0x1.c279cfeb9d9a2p-4", "0x1.b38aef40955bcp-4", "0x1.6de3496a07460p-1",
            "-0x1.269a86e1f30f0p-1", "0x1.c7052049b2487p-2", "0x1.4b3f9b3a2ebf8p-3",
            "-0x1.22ac0716f6edbp-1", "0x1.36995c7a88ea7p-3", "0x1.8f51ecb543730p-1",
            "0x1.9878892f245eap+0", "-0x1.470d42a6de770p+0", "-0x1.6d4eeaa2e9310p-1",
            "0x1.5226e8cc54663p-3", "-0x1.50e230f380e50p-1", "-0x1.db41e5da1de59p-4",
            "0x1.46aa592f1abfbp+0", "-0x1.8439094bcf84dp-2", "-0x1.c1316f653f787p-1",
            "0x1.1b0d867d41490p+0", "-0x1.52760c3fe4289p+0", "-0x1.98f974461ca06p-1",
            "-0x1.e1711edac4b1fp-1", "0x1.3fddc9064dfc7p+0", "-0x1.303c318e29c88p-2",
            "0x1.9d75c5596b6a6p-1", "-0x1.1154f00a69d36p+0", "0x1.1b3c6b3237b5bp-5",
            "0x1.8f8057e307762p-2", "-0x1.0e25224aedb00p-2", "0x1.dd11c9ca31ba0p-1",
            "-0x1.412b999431806p+0", "0x1.1fc4bea133a6cp-2", "0x1.59aced67fa9b8p+0",
            "-0x1.3aa2ab1cc3d37p+0", "-0x1.b98fd2f70a0c2p-1", "-0x1.5d78b5553d268p-2",
            "-0x1.21f44bf5fa772p-2", "0x1.60dc4d8f29ae6p+0", "0x1.3e66a1ac5f7a7p-1",
            "0x1.830435826dbe0p-3", "-0x1.fc599d09984abp+0", "0x1.a7930b57ba26bp-3",
            "0x1.13a058a7cc833p+0", "-0x1.2c1ba732b990dp-5", "0x1.04e7bbe86224ap-2",
            "0x1.9a7575e6d4d69p-3", "0x1.684073a494e9cp-2", "-0x1.eb4e0dbd823d7p-1",
            "-0x1.5c5831d63757cp-1", "0x1.8e18e8e990cbfp+0", "-0x1.d2ac223ba304fp-2",
            "-0x1.bd6958b000f50p-1", "0x1.ad67a59bec711p+0"],
        "objective": "0x1.e8c0d80aa46c8p+21",
        "iterations": 660,
    },
}


class TestSolveLad:
    def test_sketched_solve_bit_identical_to_pin(self):
        sol = solve_lad(pinned_sketched_problem())
        assert [float(v).hex() for v in sol.beta] == PINNED_SKETCHED_SOLUTION["beta"]
        assert sol.objective.hex() == PINNED_SKETCHED_SOLUTION["objective"]
        assert sol.iterations == PINNED_SKETCHED_SOLUTION["iterations"]
        assert sol.status == PINNED_SKETCHED_SOLUTION["status"]
        assert sol.objective <= float.fromhex(EARLIER_PINNED_OBJECTIVE) * (1 + 1e-8)

    @pytest.mark.parametrize("problem", [outlier_problem, long_line_search_problem],
                             ids=lambda f: f.__name__)
    def test_full_solve_bit_identical_to_pin(self, problem):
        prob = problem()
        sol = solve_lad(prob)
        pin = PINNED_FULL_SOLUTIONS[problem.__name__]
        assert [float(v).hex() for v in sol.beta] == pin["beta"]
        assert sol.objective.hex() == pin["objective"]
        assert sol.iterations == pin["iterations"]
        assert sol.status == "optimal"
        opt = highs_optimum(prob)
        assert abs(sol.objective - opt) <= 1e-7 * opt

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


def highs_dual_lp(prob):
    """max b.s subject to A^T s = 0, |s| <= w: the LP dual of the weighted LAD
    problem, whose optimum equals the LAD minimum."""
    res = linprog(-prob.b, A_eq=prob.A.T, b_eq=np.zeros(prob.A.shape[1]),
                  bounds=np.column_stack([-prob.weights, prob.weights]), method="highs",
                  options={"primal_feasibility_tolerance": 1e-7,
                           "dual_feasibility_tolerance": 1e-7})
    assert res.status == 0, res.message
    return res


def highs_optimum(prob):
    return -float(highs_dual_lp(prob).fun)


def highs_upper_bound(prob):
    """The objective at HiGHS's LAD coefficients (up to sign, the multipliers
    of A^T s = 0): an upper bound on the minimum whatever HiGHS's tolerances."""
    beta = highs_dual_lp(prob).eqlin.marginals
    return min(objective(prob, beta), objective(prob, -beta))


def near_repeated_column_problem(seed):
    """A small design with one column a copy of another plus 10^U(-6,-3)
    noise, so that its Gram is just inside the pivot tolerance, rows scaled
    by 10^U(-6,6), label noise by 10^U(-4,4), and row weights 10^U(-3,3) in
    about half the designs."""
    g = np.random.default_rng([78, seed])
    d = int(g.integers(2, 7))
    m = int(g.integers(d + 1, 6 * d))
    A = g.standard_normal((m, d))
    i, j = g.choice(d, 2, replace=False)
    A[:, j] = A[:, i] + 10.0 ** g.uniform(-6, -3) * g.standard_normal(m)
    A *= 10.0 ** g.uniform(-6, 6, (m, 1))
    b = A @ g.standard_normal(d) + g.standard_normal(m) * 10.0 ** g.uniform(-4, 4, m)
    w = 10.0 ** g.uniform(-3, 3, m) if g.random() < 0.5 else None
    return LadProblem(A, b, w)


# From a scan of near_repeated_column_problem over seeds 0-5999 (2100 solved,
# the rest refused as rank deficient): every solved design whose final basis,
# in the simplex's column-equilibrated coordinates, has condition >= 1e8 ...
ILL_CONDITIONED_BASIS_SEEDS = [
    221, 400, 505, 888, 893, 904, 918, 964, 979, 1164, 1187, 1250, 1718, 2060, 2079,
    2178, 2183, 2300, 2944, 2952, 3018, 3088, 3129, 3557, 3681, 4015, 4517, 4669, 4741,
    4987, 5500, 5673, 5730, 5753, 5761, 5878]
# ... and designs whose gap is above tol times the objective only through the
# rounding of huge basis rows: the objective at HiGHS's coefficients is lower
# by 3e-8 to 1.5e-2 of it, but by less than half of residual_rounding below
ROUNDING_GAP_SEEDS = [1786, 2009, 3125, 3382, 4243, 4685, 5759]


def residual_rounding(prob, beta):
    """eps times sum_i w_i (|a_i| |beta| + |b_i|): one rounding unit of the
    objective's residuals."""
    terms = prob.weights * (np.abs(prob.A) @ np.abs(beta) + np.abs(prob.b))
    return np.finfo(float).eps * math.fsum(terms)


def rounding_allowance(prob, beta):
    """The residuals' rounding that solve_lad's gap test allows,
    1e-13 sum_i w_i (|a_i| |beta| + |b_i|)."""
    return 1e-13 * float(prob.weights @ (np.abs(prob.A) @ np.abs(beta) + np.abs(prob.b)))


def simplex_from_random_basis(prob, seed):
    """(status, objective) of the L1 simplex started from the first d
    independent rows in a random order, a basis unrelated to the residuals."""
    keep = prob.weights > 0
    A, b, w = prob.A[keep], prob.b[keep], prob.weights[keep]
    basis = lad_module._greedy_basis(A, np.random.default_rng(seed).random(A.shape[0]))
    beta, status, _, _ = lad_module._l1_simplex(A, b, w, basis, 2000)
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

    # ("outlier", 45545438) keeps 4 rows at d = 4: the minimum is 0, and the
    # two certified objectives, 4.06e-12 and 2.93e-12, are residual rounding
    @given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1))
    @example("outlier", 45545438)
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
        assert abs(obj - ref.objective) <= 1e-8 * ref.objective + rounding_allowance(
            prob, ref.beta)

    # ("outlier", 7604) keeps 2 rows at d = 2 with labels near 7e7: the
    # minimum is 0 and the certified objective, 6.3e-8, is residual rounding
    @given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1))
    @example("outlier", 7604)
    @settings(max_examples=80, deadline=None)
    def test_matches_highs_dual_lp(self, family, seed):
        prob = family_problem(family, seed)
        try:
            sol = solve_lad(prob)
        except RankDeficiencyError:
            return
        keep = prob.weights > 0
        opt = highs_optimum(LadProblem(prob.A[keep], prob.b[keep], prob.weights[keep]))
        rounding = rounding_allowance(prob, sol.beta)
        assert sol.status == "optimal"
        assert sol.objective <= opt * (1 + 1e-8 + 1e-7) + rounding
        assert sol.objective >= opt * (1 - 1e-7) - rounding
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

    def test_ill_conditioned_bases_certify_truthfully(self, monkeypatch):
        conds = []
        vertex = lad_module._vertex

        def recording_vertex(A, rhs, w, basis, zero_test):
            conds.append(np.linalg.cond(A[basis]))
            return vertex(A, rhs, w, basis, zero_test)

        monkeypatch.setattr(lad_module, "_vertex", recording_vertex)
        for seed in ILL_CONDITIONED_BASIS_SEEDS + ROUNDING_GAP_SEEDS:
            prob = near_repeated_column_problem(seed)
            sol = solve_lad(prob)
            if seed in ILL_CONDITIONED_BASIS_SEEDS:
                assert conds[-1] >= 1e8  # the basis the returned vertex came from
            if sol.status == "optimal":
                bound = highs_upper_bound(prob) * (1 + 1e-8)
                assert sol.objective <= bound + residual_rounding(prob, sol.beta)

    @pytest.mark.parametrize("m, d", [(4, 4), (40, 40), (2000, 10), (5000, 40)])
    def test_zero_minimum_is_optimal(self, m, d):
        """A square A, or weighted rows with b in the range of A: the minimum
        is 0 and the objective only the rounding of the residuals, which must
        not leave the gap open."""
        g = np.random.default_rng([m, d])
        A = g.standard_normal((m, d)) * 10.0 ** g.uniform(-1, 1, (m, 1))
        b = 1e5 * g.standard_normal(m) if m == d else A @ g.standard_normal(d)
        sol = solve_lad(LadProblem(A, b, 10.0 ** g.uniform(-3, 3, m)))
        assert sol.objective > 0.0  # rounding, so the gap test has something to close
        assert sol.status == "optimal"

    def test_open_gap_is_uncertified(self, monkeypatch):
        """A vertex whose multipliers are said to pass while its dual bound is
        far below the objective must not be called optimal."""
        simplex = lad_module._l1_simplex

        def start_vertex_claimed_optimal(A, b, w, basis, max_pivots):
            beta, _, s, pivots = simplex(A, b, w, basis, 0)
            return beta, "optimal", s, pivots

        prob = random_problem(np.random.default_rng(8), m=60, d=4)
        opt = solve_lad(prob).objective
        monkeypatch.setattr(lad_module, "_l1_simplex", start_vertex_claimed_optimal)
        sol = solve_lad(prob)
        assert sol.objective > opt * (1 + 1e-6)
        assert sol.status == "uncertified"
        assert sol.optimality_gap_estimate >= sol.objective - opt

    def test_drifted_state_is_refreshed_before_certifying(self, tall_sketches, monkeypatch):
        """Corrupt the carried residuals by a relative 1e-6 at every step: a
        vertex must certify only from state recomputed from scratch, and when
        the recomputed multipliers fail, the simplex pivots on from there."""
        step, vertex = lad_module._step, lad_module._vertex
        g = np.random.default_rng(0)
        calls = []

        def drifting_step(X, r, rho, u, c, t, t_e):
            step(X, r, rho, u, c, t, t_e)
            r *= 1.0 + 1e-6 * g.standard_normal(r.size)

        def counted_vertex(*args):
            calls[-1] += 1
            return vertex(*args)

        monkeypatch.setattr(lad_module, "_step", drifting_step)
        monkeypatch.setattr(lad_module, "_vertex", counted_vertex)
        for prob in tall_sketches[:4]:
            calls.append(0)
            sol = solve_lad(prob)
            if sol.status == "optimal":
                opt = highs_optimum(prob)
                assert abs(sol.objective - opt) <= 1e-7 * opt
        # the first call builds the start state; two more in one solve mean a
        # refresh ran, found the multipliers failing, and the simplex pivoted on
        assert max(calls) >= 3

    def test_entering_row_matches_full_sort_on_tied_breakpoints(self):
        """40 equal breakpoints straddle a cut of the ordered head at each of
        several ranks, and the search starts from heads below, at, inside and
        above the group, the whole set and beyond it: the head must take the
        whole group, so that the entering row and its rank are those of the
        full order wherever the running sum stops, exactly at a partial sum,
        between two, or past the end. In one pass the tied breakpoints also
        tie in t_e, so that the index breaks the tie."""
        rng = np.random.default_rng(3)
        n = 5000
        for cut in (20, 64, 333, 512, 4096, 4979):
            t = np.concatenate([np.arange(cut - 20.0), np.full(40, cut - 20.0),
                                np.arange(cut - 19.0, n - 21.0)])
            t = t[rng.permutation(n)]
            for t_e in (rng.random(n), rng.integers(0, 3, n).astype(float)):
                rise = rng.random(n) + 0.5
                near_cut = np.cumsum(rise[np.lexsort((t_e, t))])[max(0, cut - 30):cut + 25]
                for need in [*near_cut[::3], *(near_cut[1::3] - 0.25), near_cut[-1] + n]:
                    want = entering_row_full_sort(t, t_e, rise, need)
                    for k in (1, max(1, cut // 8), max(1, cut - 20), cut - 1, cut, cut + 19,
                              cut + 20, n - 1, n, 3 * n):
                        got = lad_module._entering_row(
                            t, need, lambda head: (t_e[head], rise[head]), k)
                        assert got == want

    def test_long_line_searches_and_many_pivots(self, monkeypatch):
        """long_line_search_problem repeats rows, so that breakpoints tie at
        the cuts of the ordered head: every line search, from whatever head
        the solve starts it at, must enter the row the full lexsort picks at
        its rank, the first one passes more than 512 breakpoints, and the
        solve needs more than 300 pivots."""
        entering_row = lad_module._entering_row
        passed = []

        def checked_entering_row(t, need, gather, k):
            want = entering_row_full_sort(t, *gather(np.arange(t.size)), need)
            got = entering_row(t, need, gather, k)
            assert got == want
            passed.append(got[1])
            return got

        monkeypatch.setattr(lad_module, "_entering_row", checked_entering_row)
        prob = long_line_search_problem()
        sol = solve_lad(prob)
        assert passed[0] > 512
        assert sol.status == "optimal"
        assert sol.iterations == len(passed) > 300
        opt = highs_optimum(prob)
        assert abs(sol.objective - opt) <= 1e-7 * opt


def assert_simplex_matches_full_pass(prob, seed, max_pivots=2000):
    """From the same start basis, the simplex and the full-pass reference
    return the same bits of beta and s, the same status and pivot count.
    With seed None that holds for every simplex run solve_lad makes, on its
    column-equilibrated A: one per row sample level, then the one on all
    the rows or each round on the band and globs; else for one run on the
    raw A from a random basis. Returns (rows, status, pivots) of the runs,
    in the order they ran."""
    simplex, runs = lad_module._l1_simplex, []

    def recorded_simplex(*args):
        runs.append((args, simplex(*args)))
        return runs[-1][1]

    try:
        if seed is None:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lad_module, "_l1_simplex", recorded_simplex)
                solve_lad(prob, max_iters=max_pivots)
        else:
            keep = prob.weights > 0
            A = prob.A[keep]
            basis = lad_module._greedy_basis(A, np.random.default_rng(seed).random(A.shape[0]))
            recorded_simplex(A, prob.b[keep], prob.weights[keep], basis, max_pivots)
    except RankDeficiencyError:
        return None  # the zero weights left a rank-deficient support
    assert runs
    for args, (beta, status, s, pivots) in runs:
        ref_beta, ref_status, ref_s, ref_pivots = full_pass_l1_simplex(*args)
        assert (status, pivots) == (ref_status, ref_pivots)
        assert beta.tobytes() == ref_beta.tobytes()
        assert s.tobytes() == ref_s.tobytes()
    return [(args[0].shape[0], status, pivots) for args, (_, status, _, pivots) in runs]


def repeated_row_problem(seed):
    """A small design in which most rows are copies of a few, with labels
    copied too, so that residuals, breakpoints and zero tests tie."""
    g = np.random.default_rng([16, seed])
    d = int(g.integers(1, 6))
    base = int(g.integers(d + 1, 4 * d + 3))
    X = g.standard_normal((base, d)) * 10.0 ** g.uniform(-3, 3, (base, 1))
    y = X @ g.standard_normal(d) + g.standard_t(1.5, base)
    rows = g.integers(0, base, int(g.integers(base, 8 * base)))
    rows = np.concatenate([np.arange(base), rows])
    w = g.integers(1, 4, rows.size).astype(float) if g.random() < 0.5 else None
    return LadProblem(X[rows], y[rows], w)


class TestFastPivotIsFullPass:
    @given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1),
           st.sampled_from([0, 1, 3, 2000]))
    @settings(max_examples=80, deadline=None)
    def test_family_problems(self, family, seed, max_pivots):
        prob = family_problem(family, seed)
        assert_simplex_matches_full_pass(prob, None, max_pivots)
        assert_simplex_matches_full_pass(prob, seed, max_pivots)

    @pytest.mark.parametrize("seed", ILL_CONDITIONED_BASIS_SEEDS + ROUNDING_GAP_SEEDS
                             + list(range(40)))
    def test_near_repeated_column_problems(self, seed):
        prob = near_repeated_column_problem(seed)
        assert_simplex_matches_full_pass(prob, None)
        assert_simplex_matches_full_pass(prob, seed)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_repeated_row_problems(self, seed):
        prob = repeated_row_problem(seed)
        assert_simplex_matches_full_pass(prob, None)
        assert_simplex_matches_full_pass(prob, seed)

    def test_tall_sketches(self, tall_sketches):
        for op, prob in enumerate(tall_sketches[:4]):
            assert assert_simplex_matches_full_pass(prob, op)[0][2] > 30

    def test_every_sample_level(self):
        """6000 x 2 is above 2560 d, so its 1-in-8 sample is above 320 d:
        the sample of the sample, the sample, then the top level on the band
        of 750 rows and two globs, in two rounds here (the second takes the
        globbed rows the first left with the wrong sign), each bit for bit."""
        prob = tall_outlier_problem(6000, 2, 0)
        runs = assert_simplex_matches_full_pass(prob, None)
        assert [status for _, status, _ in runs] == ["optimal"] * 4
        assert min(pivots for *_, pivots in runs) > 0
        (sub, _, _), (sample, _, _), (band, _, _), (grown, _, _) = runs
        assert sub < 320 * 2 <= sample < 6000 // 4
        assert 750 + 2 == band < grown < 6000
        sol = solve_lad(prob)
        assert sol.status == "optimal"
        assert sol.iterations == runs[2][2] + runs[3][2]
        opt = highs_optimum(prob)
        assert abs(sol.objective - opt) <= 1e-7 * opt

    def test_carried_state_matches_full_recompute_at_every_pivot(self, monkeypatch):
        """At every pivot of long_line_search_problem, where copies of basis
        rows drift off zero, the zero set, the signs and A^T (w s) that the
        simplex carries equal those of a pass over all m rows: the zero test
        on every residual, every sign recomputed, and A^T (w s) updated on
        the rows whose sign changed."""
        settle = lad_module._settle
        snapped = []  # per pivot, residuals the zero test moved to zero

        def checked_settle(A, w, X, r, rho, s, g, zero_test):
            row_l1, abs_b = zero_test
            r_full = r.copy()
            r_full[np.abs(r_full) <= row_l1 * np.abs(X[:, 0]).max() + abs_b] = 0.0
            s_full = np.sign(np.where(r_full == 0.0, rho, r_full))
            changed = (s_full != s).nonzero()[0]
            g_full = g + A[changed].T @ (w[changed] * (s_full[changed] - s[changed]))
            snapped.append(int(np.count_nonzero(r != r_full)))
            g = settle(A, w, X, r, rho, s, g, zero_test)
            assert r.tobytes() == r_full.tobytes()
            assert s.tobytes() == s_full.tobytes()
            assert g.tobytes() == g_full.tobytes()
            return g

        monkeypatch.setattr(lad_module, "_settle", checked_settle)
        sol = solve_lad(long_line_search_problem())
        assert sol.iterations == len(snapped) == PINNED_FULL_SOLUTIONS[
            "long_line_search_problem"]["iterations"]
        assert sum(v > 0 for v in snapped) > len(snapped) // 2  # the zero test is busy


class SimplexRun(NamedTuple):
    A: np.ndarray
    b: np.ndarray
    w: np.ndarray
    status: str
    pivots: int
    band: bool  # a round on the band and globs, not a run on a row sample or all rows
    bases: list  # the sorted basis at the start and after every pivot, as tuples


def record_simplex_runs(monkeypatch, budget_of=None):
    """Record a SimplexRun of every _l1_simplex run; budget_of(run,
    max_pivots), if given, sets the pivot budget of the run-th run."""
    simplex, globbed = lad_module._l1_simplex, lad_module._globbed
    update, runs, in_band, bases = lad_module._update_inverse, [], [], []

    def recorded(A, b, w, basis, max_pivots):
        if budget_of is not None:
            max_pivots = budget_of(len(runs), max_pivots)
        bases.append([tuple(np.sort(basis).tolist())])
        out = simplex(A, b, w, basis, max_pivots)
        runs.append(SimplexRun(A, b, w, out[1], out[3], bool(in_band), bases[-1]))
        return out

    def recorded_update(B_inv, A, basis, p, refresh):  # called once per pivot
        bases[-1].append(tuple(np.sort(basis).tolist()))
        return update(B_inv, A, basis, p, refresh)

    def recorded_globbed(*args):
        in_band.append(True)
        try:
            return globbed(*args)
        finally:
            in_band.pop()

    monkeypatch.setattr(lad_module, "_l1_simplex", recorded)
    monkeypatch.setattr(lad_module, "_globbed", recorded_globbed)
    monkeypatch.setattr(lad_module, "_update_inverse", recorded_update)
    return runs


def isolated_above_threshold():
    """An isolated-direction design with 2000 rows at d = 3, above 320 d: its
    last row alone spans the last coordinate, and the row sample misses it."""
    inst = make_isolated_instance(2000, 3, RngStream(31))
    return LadProblem(inst.X, inst.y)


def isolated_above_glob_threshold():
    """The same at 8000 rows, above 2560 d: the top level runs on all rows
    from the least-squares start, with no band."""
    inst = make_isolated_instance(8000, 3, RngStream(31))
    return LadProblem(inst.X, inst.y)


def dependent_in_sample():
    """Tall rows whose last column equals the first on every row but one, so
    that a sample missing that row is rank deficient with no zero column."""
    g = np.random.default_rng(32)
    X = g.standard_normal((2000, 3))
    X[:, 2] = X[:, 0]
    X[-1, 2] += 5.0
    y = X @ g.standard_normal(3) + g.standard_normal(2000)
    return LadProblem(X, y)


class TestSampleStart:
    @pytest.mark.filterwarnings("error")  # a zero column of the sample divides by nothing
    @pytest.mark.parametrize("problem", [isolated_above_threshold, dependent_in_sample,
                                         isolated_above_glob_threshold],
                             ids=lambda f: f.__name__)
    def test_rank_deficient_sample_falls_back_to_least_squares(self, problem, monkeypatch):
        prob = problem()
        runs = record_simplex_runs(monkeypatch)
        sol = solve_lad(prob)
        # the sample never got a simplex
        assert [(run.A.shape[0], run.band) for run in runs] == [(prob.A.shape[0], False)]
        monkeypatch.setattr(lad_module, "_COARSE_ROWS", math.inf)
        cold = solve_lad(prob)
        assert sol.status == cold.status == "optimal"
        assert sol.objective.hex() == cold.objective.hex()
        assert sol.beta.tobytes() == cold.beta.tobytes()
        opt = highs_optimum(prob)
        assert abs(sol.objective - opt) <= 1e-7 * opt

    def test_sample_keeps_the_equilibrated_rows_and_weights(self, monkeypatch):
        """The sample is about 1 in 8 of the positively weighted rows, in
        order, with the column scaling and the row weights of the problem."""
        base = tall_outlier_problem(4000, 3, 4)
        g = np.random.default_rng(33)
        w = 10.0 ** g.uniform(-3, 3, 4000)
        w[::7] = 0.0
        runs = record_simplex_runs(monkeypatch)
        solve_lad(LadProblem(base.A * [1e-3, 1.0, 1e4], base.b, w))
        (A_s, b_s, w_s, *_), (A, b, w_full, *_) = runs
        assert A.shape[0] == np.count_nonzero(w)
        order = np.argsort(b)
        rows = order[np.searchsorted(b, b_s, sorter=order)]  # the labels are distinct
        assert (np.diff(rows) > 0).all() and A.shape[0] / 10 < rows.size < A.shape[0] / 6
        assert A_s.tobytes() == A[rows].tobytes()
        assert b_s.tobytes() == b[rows].tobytes()
        assert w_s.tobytes() == w_full[rows].tobytes()

    def test_sample_out_of_pivots_still_gives_a_start(self, monkeypatch):
        """7000 x 3 has one sample level and its top level on all rows;
        8000 x 3, above 2560 d, two sample levels and its top level on the
        band and globs."""
        for m, samples in ((7000, 1), (8000, 2)):
            prob = tall_outlier_problem(m, 3, 1)
            runs = record_simplex_runs(
                monkeypatch, lambda run, budget: 1 if run < samples else budget)
            sol = solve_lad(prob)
            top = runs[samples:]
            assert [(run.A.shape[0] < m, run.status) for run in runs] == [
                (True, "max_iter")] * samples + [(m > 7000, "optimal")] * len(top)
            assert [run.band for run in runs] == [False] * samples + [m > 7000] * len(top)
            assert sol.status == "optimal" and sol.iterations == sum(run.pivots for run in top)
            opt = highs_optimum(prob)
            assert abs(sol.objective - opt) <= 1e-7 * opt
            # one budget for every level: the samples run out of it and still
            # give the start, and only the pivots of the top level are counted;
            # a band round out of pivots is returned as it is, with no next round
            monkeypatch.undo()
            runs = record_simplex_runs(monkeypatch)
            sol = solve_lad(prob, max_iters=2)
            assert [run.status for run in runs] == ["max_iter"] * (samples + 1)
            assert sol.status == "max_iter" and sol.iterations == runs[-1].pivots == 2
            assert sol.objective == objective(prob, sol.beta)
            monkeypatch.undo()

    def test_same_bytes_whatever_the_global_random_state(self, monkeypatch):
        """7000 x 2 is above 2560 d: the samples and the band rounds alike."""
        prob = tall_outlier_problem(7000, 2, 2)
        runs = record_simplex_runs(monkeypatch)
        np.random.seed(0)
        first = solve_lad(prob)
        assert runs[-1].band
        np.random.seed(12345)
        np.random.random(1000)
        second = solve_lad(prob)
        assert first.beta.tobytes() == second.beta.tobytes()
        assert (first.objective.hex(), first.iterations, first.status) == (
            second.objective.hex(), second.iterations, second.status)

    @pytest.mark.parametrize("d", [2, 5])
    def test_threshold_is_320_positively_weighted_rows_per_column(self, d, monkeypatch):
        for m, zero_weights, levels in ((320 * d - 1, 0, 1), (320 * d, 0, 2),
                                        (320 * d + 1, 2, 1)):
            base = tall_outlier_problem(m, d, 3)
            w = np.ones(m)
            w[:zero_weights] = 0.0
            prob = LadProblem(base.A, base.b, w)
            runs = record_simplex_runs(monkeypatch)
            sol = solve_lad(prob)
            assert len(runs) == levels and not any(run.band for run in runs)
            assert sol.status == "optimal"
            keep = w > 0
            opt = highs_optimum(LadProblem(prob.A[keep], prob.b[keep], w[keep]))
            assert abs(sol.objective - opt) <= 1e-7 * opt
            monkeypatch.undo()


def glob_level_problem(dist, m, d, seed):
    """Gaussian or Student-t(1.5) rows and noise, three 1e6 label outliers
    and row weights 10^U(-3,3)."""
    g = np.random.default_rng([19, m, d, seed])
    if dist == "gaussian":
        X, noise = g.standard_normal((m, d)), g.standard_normal(m)
    else:
        X, noise = g.standard_t(1.5, (m, d)), g.standard_t(1.5, m)
    y = X @ g.standard_normal(d) + noise
    y[g.choice(m, 3, replace=False)] += 1e6 * np.where(g.random(3) < 0.5, -1.0, 1.0)
    return LadProblem(X, y, 10.0 ** g.uniform(-3, 3, m))


def exact_fit_problem():
    """8000 x 3 integer rows in [-4, 4] (power-of-two column scales) with
    integer labels that 70% of the rows fit exactly: the pilot recovers the
    coefficients, so most of its residuals are exactly 0."""
    g = np.random.default_rng(5)
    X = g.integers(-4, 5, (8000, 3)).astype(float)
    y = X @ g.integers(-3, 4, 3).astype(float)
    off = g.random(8000) < 0.3
    y[off] += g.choice([-5.0, -3.0, -1.0, 1.0, 2.0, 4.0], np.count_nonzero(off))
    return LadProblem(X, y)


def plain_top_level(A, b, w, beta, max_pivots):
    """The top level as below 2560 d: the simplex on all rows, from the basis
    of smallest residuals at the pilot beta."""
    basis = lad_module._greedy_basis(A, A @ beta - b)
    return lad_module._l1_simplex(A, b, w, basis, max_pivots)


def shifted_pilot(monkeypatch, shift):
    """Start the glob level from the pilot plus shift in every coefficient."""
    globbed = lad_module._globbed
    monkeypatch.setattr(lad_module, "_globbed", lambda A, b, w, beta, max_pivots:
                        globbed(A, b, w, beta + shift, max_pivots))


class TestGlobLevel:
    @pytest.mark.parametrize("dist, m, d", [
        ("gaussian", 5120, 2), ("student_t", 5120, 2), ("gaussian", 13000, 5),
        ("student_t", 13000, 5), ("gaussian", 26000, 10), ("student_t", 26000, 10)])
    def test_matches_the_plain_top_level(self, dist, m, d, monkeypatch):
        prob = glob_level_problem(dist, m, d, 0)
        assert_simplex_matches_full_pass(prob, None)
        runs = record_simplex_runs(monkeypatch)
        sol = solve_lad(prob)
        band = [run for run in runs if run.band]
        assert band and band[0].A.shape[0] == m // 8 + 2  # no ties: the band and two globs
        assert [run.status for run in band] == ["optimal"] * len(band)
        assert sol.iterations == sum(run.pivots for run in band)
        monkeypatch.undo()
        monkeypatch.setattr(lad_module, "_globbed", plain_top_level)
        plain = solve_lad(prob)
        assert sol.status == plain.status == "optimal"
        assert abs(sol.objective - plain.objective) <= rounding_allowance(prob, plain.beta)
        opt = highs_optimum(prob)
        assert abs(sol.objective - opt) <= 1e-7 * opt

    def test_globbed_rows_of_the_wrong_sign_move_into_the_band(self, monkeypatch):
        """From a pilot shifted by 0.3, the first round's minimizer leaves
        globbed rows on the wrong side: they join the band and the rounds go
        on, every one bit for bit, until none is left."""
        prob = tall_outlier_problem(8000, 3, 5)
        shifted_pilot(monkeypatch, 0.3)
        assert_simplex_matches_full_pass(prob, None)
        runs = record_simplex_runs(monkeypatch)
        sol = solve_lad(prob)
        band = [run for run in runs if run.band]
        sizes = [run.A.shape[0] for run in band]
        assert len(band) >= 2 and sizes[0] == 8000 // 8 + 2
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert sol.status == "optimal"
        assert sol.iterations == sum(run.pivots for run in band)
        opt = highs_optimum(prob)
        assert abs(sol.objective - opt) <= 1e-7 * opt
        # the rounds share max_iters: a budget of the first round's pivots
        # leaves the second none, so it returns its start as "max_iter"
        monkeypatch.undo()
        shifted_pilot(monkeypatch, 0.3)
        runs = record_simplex_runs(monkeypatch, lambda run, budget: 2000 if run < 2 else budget)
        sol = solve_lad(prob, max_iters=band[0].pivots)
        assert [(run.band, run.status) for run in runs] == [
            (False, "optimal"), (False, "optimal"), (True, "optimal"), (True, "max_iter")]
        assert sol.status == "max_iter" and sol.iterations == band[0].pivots
        assert sol.objective == objective(prob, sol.beta)

    def test_exact_fits_keep_every_zero_residual_in_the_band(self, monkeypatch):
        prob = exact_fit_problem()
        assert_simplex_matches_full_pass(prob, None)
        runs = record_simplex_runs(monkeypatch)
        sol = solve_lad(prob)
        band = [run for run in runs if run.band]
        assert len(band) == 1 and band[0].A.shape[0] > 5000  # the zeros tie, all in the band
        monkeypatch.undo()
        monkeypatch.setattr(lad_module, "_globbed", plain_top_level)
        plain = solve_lad(prob)
        assert sol.status == plain.status == "optimal"
        assert abs(sol.objective - plain.objective) <= rounding_allowance(prob, plain.beta)
        opt = highs_optimum(prob)
        assert abs(sol.objective - opt) <= 1e-7 * opt

    def test_band_of_all_rows_is_the_plain_top_level(self, monkeypatch):
        """Where the band and globs miss a direction (forced here by a
        refusing _greedy_basis), the band takes all m rows: the plain top
        level, bit for bit."""
        prob = tall_outlier_problem(6000, 2, 0)
        monkeypatch.setattr(lad_module, "_globbed", plain_top_level)
        plain = solve_lad(prob)
        monkeypatch.undo()
        greedy, globbed = lad_module._greedy_basis, lad_module._globbed

        def refuse_the_band(A, r):
            if A.shape[0] < 6000:
                raise RankDeficiencyError("could not assemble an invertible basis")
            return greedy(A, r)

        def refusing_globbed(*args):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lad_module, "_greedy_basis", refuse_the_band)
                return globbed(*args)

        monkeypatch.setattr(lad_module, "_globbed", refusing_globbed)
        runs = record_simplex_runs(monkeypatch)
        sol = solve_lad(prob)
        assert [run.A.shape[0] for run in runs if run.band] == [6000]
        assert sol.beta.tobytes() == plain.beta.tobytes()
        assert (sol.objective.hex(), sol.iterations, sol.status) == (
            plain.objective.hex(), plain.iterations, "optimal")

    @pytest.mark.parametrize("d", [2, 5])
    def test_threshold_is_2560_rows_per_column(self, d, monkeypatch):
        for m in (2560 * d - 1, 2560 * d):
            prob = tall_outlier_problem(m, d, 6)
            runs = record_simplex_runs(monkeypatch)
            sol = solve_lad(prob)
            band = [run.A.shape[0] for run in runs if run.band]
            if m < 2560 * d:
                assert not band and runs[-1].A.shape[0] == m
            else:
                assert band[0] == m // 8 + 2 and runs[-1].band
            assert sol.status == "optimal"
            opt = highs_optimum(prob)
            assert abs(sol.objective - opt) <= 1e-7 * opt
            monkeypatch.undo()


def repeated_unit_row_problem(seed):
    """More than 8 d copies of e_1 at label 0, then rows with a zero first
    column: at the least-squares fit the copies tie at a residual of 0 (to
    rounding) and come first, so the first 8 d rows in order of residual span
    one direction of d."""
    g = np.random.default_rng([35, seed])
    d = int(g.integers(2, 7))
    copies = int(g.integers(8 * d + 1, 16 * d))
    rest = g.standard_normal((int(g.integers(d, 4 * d)), d))
    rest[:, 0] = 0.0
    A = np.vstack([np.tile(np.eye(1, d), (copies, 1)), rest])
    b = np.concatenate([np.zeros(copies), g.standard_normal(rest.shape[0])])
    return LadProblem(A, b)


def start_basis_problem(kind, seed):
    if kind == "repeated_unit_row":
        return repeated_unit_row_problem(seed)
    if kind == "repeated_row":
        return repeated_row_problem(seed)
    if kind == "near_repeated_column":
        return near_repeated_column_problem(seed)
    return family_problem(kind, seed)


def greedy_basis_or_refusal(greedy_basis, A, r):
    try:
        return greedy_basis(A, r)
    except RankDeficiencyError:
        return None


def first_rows_in_order(A, r):
    """The first d rows in order of increasing |r_i|, ties by index, sorted:
    the basis _greedy_basis takes when its QR accepts them."""
    return np.sort(np.argsort(np.abs(r), kind="stable")[:A.shape[1]])


class TestStartBasis:
    @given(st.sampled_from(FAMILIES + ("repeated_row", "near_repeated_column",
                                       "repeated_unit_row")),
           st.integers(0, 2**32 - 1))
    @example("isolated", 97489714)  # 4 weighted rows of 5 columns: both refuse
    @example("repeated_unit_row", 0)  # the loop passes 8 d rows of one direction
    @settings(max_examples=120, deadline=None)
    def test_same_rows_as_the_sequential_loop(self, kind, seed):
        """At random residuals and at the least-squares residuals, the QR
        acceptance and the fallback loop pick the rows that testing them one
        by one picks, or refuse where it refuses."""
        prob = start_basis_problem(kind, seed)
        keep = prob.weights > 0
        A, b = prob.A[keep], prob.b[keep]
        for r in (np.random.default_rng(seed).random(A.shape[0]),
                  A @ np.linalg.lstsq(A, b, rcond=None)[0] - b):
            got = greedy_basis_or_refusal(lad_module._greedy_basis, A, r)
            want = greedy_basis_or_refusal(sequential_greedy_basis, A, r)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("n, d, seed", [(40, 2, 0), (300, 3, 1), (2000, 10, 2)])
    def test_isolated_row_outside_the_first_d_takes_the_loop(self, n, d, seed):
        """The lone row of an isolated design, here last in the order, is
        the only one with a last coordinate: the first d rows are dependent,
        so the loop runs over every row in order and takes the lone one."""
        X = make_isolated_instance(n, d, RngStream(seed)).X
        r = np.random.default_rng(seed).random(n)
        r[-1] = 2.0
        basis = lad_module._greedy_basis(X, r)
        assert basis.tolist() != first_rows_in_order(X, r).tolist()
        assert basis[-1] == n - 1
        assert basis.tolist() == sequential_greedy_basis(X, r).tolist()

    def test_dependent_rows_among_the_first_d_take_the_loop(self):
        g = np.random.default_rng(34)
        A = g.standard_normal((30, 4))
        A[1] = 2.0 * A[0]
        A[3] = A[0] - A[2]
        r = np.arange(30.0)
        basis = lad_module._greedy_basis(A, r)
        assert basis.tolist() == [0, 2, 4, 5] == sequential_greedy_basis(A, r).tolist()
        assert basis.tolist() != first_rows_in_order(A, r).tolist()


# sha256 of the dual vector s that _l1_simplex returns, and the
# certificate_infnorm of solve_lad, as recorded with a solve for sigma and one
# for u at every pivot; ILL_CONDITIONED_BASIS_SEEDS hash, seed by seed, the
# bytes of s, then the hex of the certificate norm
PINNED_DUALS = {
    "long_line_search_problem": (
        "fdf6bb2e4524b7544da44d9c5c52db98ad769588dba54c13560f61f6e136527e",
        "0x1.c800000000000p-46"),
    "ill_conditioned": "b986c284943104f5ad3642d0167f03f6a6b13fe6d0e315f616a1a4e6ac9765a7",
}


class TestCarriedInverse:
    def test_stays_near_the_inverse_and_is_refreshed_every_d_pivots(self, monkeypatch):
        """At every pivot of long_line_search_problem (660 pivots at d = 80)
        and of the ill-conditioned designs, the basis inverse carried by the
        rank-one update satisfies ||A_B B_inv - I||_max <= 16 (j + 1) d eps K:
        j updates since the last refresh, each a d-term dot product per
        entry, times 16 for the update's own roundings, with K the largest
        max(|A_B| |B_inv|) of the bases met since that refresh. (A_B B_inv is
        the product the update keeps: every row of A_B times B_inv is a row
        of I.) The refresh fires at every d-th pivot and at no other, and
        the dual vector and certificate norm keep their bytes."""
        eps = np.finfo(float).eps
        simplex, update = lad_module._l1_simplex, lad_module._update_inverse
        runs = []

        def recorded_simplex(A, b, w, basis, max_pivots):
            runs.append({"basis": basis, "pivots": 0, "refreshes": 0, "K": 0.0})
            out = simplex(A, b, w, basis, max_pivots)
            runs[-1]["s"] = out[2]
            assert runs[-1]["pivots"] == out[3]
            return out

        def checked_update(B_inv, A, basis, p, refresh):
            run, d = runs[-1], basis.size
            run["pivots"] += 1
            assert refresh == (run["pivots"] % d == 0)
            before = (np.abs(A[run["basis"]]) @ np.abs(B_inv)).max()
            B_inv = update(B_inv, A, basis, p, refresh)
            A_B = A[basis]
            after = (np.abs(A_B) @ np.abs(B_inv)).max()
            run["K"] = after if refresh else max(run["K"], before, after)
            j = run["pivots"] % d
            err = np.abs(A_B @ B_inv - np.eye(d)).max()
            assert err <= 16 * (j + 1) * d * eps * run["K"]
            run["basis"], run["refreshes"] = basis.copy(), run["refreshes"] + refresh
            return B_inv

        monkeypatch.setattr(lad_module, "_l1_simplex", recorded_simplex)
        monkeypatch.setattr(lad_module, "_update_inverse", checked_update)
        sol = solve_lad(long_line_search_problem())
        (run,) = runs
        assert run["pivots"] == sol.iterations > 300 and run["refreshes"] == 660 // 80
        digest, cert = PINNED_DUALS["long_line_search_problem"]
        assert hashlib.sha256(run["s"].tobytes()).hexdigest() == digest
        assert sol.certificate_infnorm.hex() == cert
        h = hashlib.sha256()
        for seed in ILL_CONDITIONED_BASIS_SEEDS:
            runs.clear()
            prob = near_repeated_column_problem(seed)
            sol = solve_lad(prob)
            (run,) = runs
            assert run["refreshes"] == run["pivots"] // prob.A.shape[1]
            h.update(run["s"].tobytes())
            h.update(sol.certificate_infnorm.hex().encode())
        assert h.hexdigest() == PINNED_DUALS["ill_conditioned"]


def integer_tie_problem(g, m, d, k, coef, shift, weighted=False):
    """Integer rows in [-k, k], integer coefficients in [-coef, coef], and 40%
    of the labels moved by an integer in [-shift, shift], with integer row
    weights in [1, 3] if weighted: residuals, breakpoints and multipliers tie
    exactly."""
    X = g.integers(-k, k + 1, (m, d)).astype(float)
    y = X @ g.integers(-coef, coef + 1, d).astype(float)
    moved = g.random(m) < 0.4
    y[moved] += g.integers(-shift, shift + 1, np.count_nonzero(moved))
    return LadProblem(X, y, g.integers(1, 4, m).astype(float) if weighted else None)


def exact_tie_problem(seed):
    """Rows in [-3, 3], coefficients in [-2, 2] and labels moved by -1, 0 or
    +1, at d = 1 to 4 and m = 20 d to 80 d, the sizes of a sketch."""
    g = np.random.default_rng([23, seed])
    d = int(g.integers(1, 5))
    return integer_tie_problem(g, int(g.integers(20 * d, 80 * d + 1)), d, 3, 2, 1)


def tall_tie_problem(seed):
    """The same law at m = 2560 d to 4000 d, where each row sample and each
    band round runs a simplex of its own."""
    g = np.random.default_rng([29, seed])
    d = int(g.integers(1, 5))
    return integer_tie_problem(g, int(g.integers(2560 * d, 4000 * d + 1)), d, 3, 2, 1)


def wide_integer_problem(seed):
    """Rows, coefficients and label moves in [-k, k] for k = 1 to 5, at d = 1
    to 6 and m = 20 d to 200 d, with integer row weights on odd seeds."""
    g = np.random.default_rng([30, seed])
    k, d = int(g.integers(1, 6)), int(g.integers(1, 7))
    m = int(g.integers(20 * d, 200 * d + 1))
    return integer_tie_problem(g, m, d, k, k, k, weighted=seed % 2 == 1)


class TestExactTies:
    """Every simplex run on these corpora, at every row sample and band
    round, certifies within the pivot budget without visiting a basis twice
    (the termination claim of the module docstring), and every objective
    matches HiGHS. Before one zero test served both the carried and the
    recomputed state, 19 of the 200 sketch-size designs, 14 of the 140 runs
    of the 40 tall designs and 17 of the 300 wider designs cycled until the
    budget ran out."""

    @staticmethod
    def solve_all(problems, monkeypatch):
        runs = record_simplex_runs(monkeypatch)
        for prob in problems:
            sol = solve_lad(prob)
            opt = highs_optimum(prob)
            assert sol.status == "optimal"
            assert abs(sol.objective - opt) <= SOLVER_TOL * opt
        assert [run.status for run in runs] == ["optimal"] * len(runs)
        for run in runs:
            assert len(run.bases) == run.pivots + 1
            assert len(set(run.bases)) == len(run.bases)  # no basis repeats
        return runs

    def test_sketch_size_every_run_optimal_and_matches_highs(self, monkeypatch):
        runs = self.solve_all(map(exact_tie_problem, range(200)), monkeypatch)
        assert len(runs) == 200

    def test_tall_every_level_optimal_and_matches_highs(self, monkeypatch):
        runs = self.solve_all(map(tall_tie_problem, range(40)), monkeypatch)
        assert len(runs) == 150
        # each design runs at least one row sample and one band round
        assert sum(run.band for run in runs) > 40 and sum(not run.band for run in runs) > 40

    def test_wide_integers_every_run_optimal_and_matches_highs(self, monkeypatch):
        runs = self.solve_all(map(wide_integer_problem, range(300)), monkeypatch)
        assert len(runs) == 300
