import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from lewisreg.lewis import (
    LewisConfig,
    check_row_addition_monotonicity,
    lewis_weights,
    recommended_budget,
    sampling_values,
    verify_fixed_point,
)
from lewisreg.linalg import (
    RankDeficiencyError,
    WeightVector,
    spd_factorize,
    weighted_gram,
)


def random_tall(rng, n, d):
    return rng.standard_normal((n, d))


class TestLewisWeights:
    def test_identity_fixed_point(self):
        w = lewis_weights(np.eye(3))
        np.testing.assert_allclose(w.values, np.ones(3))
        assert w.kind == "lewis"

    def test_stacked_scaled_halves(self):
        # identity stacked on itself, every row scaled down by 2
        X = np.vstack([np.eye(2), np.eye(2)]) / 2.0
        np.testing.assert_allclose(lewis_weights(X).values, np.full(4, 0.5),
                                   atol=1e-10)

    def test_random_residual_and_sum(self):
        rng = np.random.default_rng(0)
        X = random_tall(rng, 8, 3)
        w = lewis_weights(X)
        assert verify_fixed_point(X, w) <= 1e-8
        assert abs(w.values.sum() - 3.0) <= 1e-6

    def test_zero_rows_get_zero_weight(self):
        rng = np.random.default_rng(1)
        X = random_tall(rng, 6, 2)
        X[2] = 0.0
        w = lewis_weights(X)
        assert w.values[2] == 0.0
        assert abs(w.values.sum() - 2.0) <= 1e-6

    def test_range(self):
        rng = np.random.default_rng(2)
        X = random_tall(rng, 30, 4)
        w = lewis_weights(X).values
        assert np.all(w > 0.0) and np.all(w <= 1.0 + 1e-12)

    def test_rank_deficient_rejected(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])
        with pytest.raises(RankDeficiencyError):
            lewis_weights(X)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fixed_point_property(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        n = int(rng.integers(d + 1, 50))
        X = random_tall(rng, n, d)
        w = lewis_weights(X)
        assert verify_fixed_point(X, w) <= 1e-8
        assert abs(w.values.sum() - d) <= 1e-6

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    @settings(max_examples=15, deadline=None)
    def test_stacking_law(self, seed, k):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 1, 25))
        X = random_tall(rng, n, d)
        w = lewis_weights(X).values
        stacked = np.vstack([X] * k) / k
        w_stacked = lewis_weights(stacked).values
        np.testing.assert_allclose(w_stacked, np.tile(w / k, k), atol=1e-6)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        X = random_tall(rng, 12, 3)
        perm = rng.permutation(12)
        w = lewis_weights(X).values
        w_perm = lewis_weights(X[perm]).values
        np.testing.assert_allclose(w_perm, w[perm], atol=1e-9)

    def test_scale_invariance_power_of_two_exact(self):
        rng = np.random.default_rng(4)
        X = random_tall(rng, 10, 3)
        w = lewis_weights(X).values
        # powers of two rescale every intermediate exactly
        assert np.array_equal(lewis_weights(2.0 * X).values, w)
        assert np.array_equal(lewis_weights(0.25 * X).values, w)

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(5)
        X = random_tall(rng, 10, 3)
        w = lewis_weights(X).values
        np.testing.assert_allclose(lewis_weights(3.0 * X).values, w, atol=1e-10)

    def test_column_scaling_invariance(self):
        rng = np.random.default_rng(11)
        X = random_tall(rng, 25, 4)
        w = lewis_weights(X).values
        scaled = X * np.array([1e-5, 1.0, 3.0, 1e6])
        np.testing.assert_allclose(lewis_weights(scaled).values, w, atol=1e-9)

    def test_heavy_tailed_matches_triangular_solve_sweep(self):
        rng = np.random.default_rng(13)
        X = rng.standard_t(1.5, size=(5000, 8))
        w = lewis_weights(X)
        assert verify_fixed_point(X, w) <= 1e-10
        assert abs(w.values.sum() - 8.0) <= 1e-8

        # reference sweep: the quadratic forms by an n-column triangular
        # solve, with the same start, stopping rule and tolerance
        Xe = X / np.abs(X).max(axis=0)
        ref = np.ones(X.shape[0])
        for _ in range(LewisConfig().max_iters):
            F = spd_factorize(weighted_gram(Xe, 1.0 / ref))
            Z = solve_triangular(F.lower, Xe[:, F.perm].T, lower=True)
            q = np.einsum("ij,ij->j", Z, Z)
            if np.max(np.abs(ref * ref - q) / (ref * ref)) <= LewisConfig().tol:
                break
            ref = np.sqrt(q)
        np.testing.assert_allclose(w.values, ref, rtol=1e-12)

    def test_residual_nonincreasing_after_burn_in(self):
        # empirical contraction diagnostic; logged, not asserted, per design
        rng = np.random.default_rng(6)
        X = random_tall(rng, 40, 5)
        from lewisreg.lewis import _fixed_point_defect
        w = np.ones(40)
        residuals = []
        for _ in range(30):
            r, q = _fixed_point_defect(X, w)
            residuals.append(r)
            w = np.sqrt(q)
        tail = residuals[5:]
        if any(b > a * (1 + 1e-9) for a, b in zip(tail, tail[1:])):
            print("note: fixed-point residual not monotone after burn-in:", tail)


class TestVerifyFixedPoint:
    def test_identity_zero_residual(self):
        assert verify_fixed_point(np.eye(2), np.ones(2)) <= 1e-12

    def test_wrong_weights_flagged(self):
        # w = 1/2 on the identity: w^2 = 1/4 but the form evaluates to 1/2
        assert verify_fixed_point(np.eye(2), np.full(2, 0.5)) >= 0.9

    def test_self_consistency(self):
        rng = np.random.default_rng(7)
        X = random_tall(rng, 15, 4)
        cfg = LewisConfig()
        w = lewis_weights(X, cfg)
        assert verify_fixed_point(X, w) <= 100 * cfg.tol

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_fixed_point(np.eye(2), np.ones(3))


class TestMonotonicity:
    def test_duplicate_identity_drops_to_half(self):
        res = check_row_addition_monotonicity(np.eye(2), np.eye(2))
        assert res.ok
        # equal-row symmetry forces every weight to drop from 1 to 1/2
        w = lewis_weights(np.vstack([np.eye(2), np.eye(2)])).values
        np.testing.assert_allclose(w, np.full(4, 0.5), atol=1e-9)

    def test_empty_extra_rows(self):
        rng = np.random.default_rng(8)
        X = random_tall(rng, 5, 2)
        res = check_row_addition_monotonicity(X, np.empty((0, 2)))
        assert res.ok and res.max_violation <= 0.0

    def test_random_extra_rows(self):
        rng = np.random.default_rng(9)
        X = random_tall(rng, 5, 2)
        extra = random_tall(rng, 3, 2)
        assert check_row_addition_monotonicity(X, extra).ok

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            check_row_addition_monotonicity(np.eye(2), np.ones((1, 3)))


class TestSamplingValues:
    def test_two_rows(self):
        p = sampling_values(WeightVector(np.ones(2), kind="lewis"), 10)
        np.testing.assert_allclose(p.values, [5.0, 5.0])
        assert p.kind == "sampling" and p.budget == 10.0

    def test_four_halves(self):
        p = sampling_values(WeightVector(np.full(4, 0.5), kind="lewis"), 8)
        np.testing.assert_allclose(p.values, [2.0, 2.0, 2.0, 2.0])

    def test_sum_matches_budget(self):
        rng = np.random.default_rng(10)
        w = rng.random(50)
        w *= 7.0 / w.sum()
        p = sampling_values(WeightVector(w, kind="lewis"), 100)
        assert abs(p.values.sum() - 100.0) <= 1e-7

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            sampling_values(WeightVector(np.ones(2), kind="lewis"), 0)

    def test_resampling_sampling_values_rejected(self):
        p = sampling_values(WeightVector(np.ones(2), kind="lewis"), 4)
        with pytest.raises(ValueError):
            sampling_values(p, 4)


class TestRecommendedBudget:
    def test_constant_prob_arithmetic(self):
        assert recommended_budget(2, 0.5, 0.1, "constant_prob", C=4) == \
            math.ceil(4 * 2 * math.log(2) / 0.25) == 23

    def test_high_prob_arithmetic(self):
        expected = math.ceil(4 * 10 / 0.0625 * math.log(10 / 0.0125))
        assert recommended_budget(10, 0.25, 0.05, "high_prob", C=4) == expected

    def test_monotone_decreasing_in_eps(self):
        budgets = [recommended_budget(5, eps, 0.1, "high_prob")
                   for eps in (0.1, 0.2, 0.4, 0.8)]
        assert budgets == sorted(budgets, reverse=True)
        budgets = [recommended_budget(5, eps, 0.1, "constant_prob")
                   for eps in (0.1, 0.2, 0.4, 0.8)]
        assert budgets == sorted(budgets, reverse=True)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            recommended_budget(5, 1.5, 0.1)
        with pytest.raises(ValueError):
            recommended_budget(5, 0.5, 0.0)
        with pytest.raises(ValueError):
            recommended_budget(5, 0.5, 0.1, "bogus")
