import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lewisreg.lewis import leverage_scores
from lewisreg.linalg import (
    RankDeficiencyError,
    WeightVector,
    as_design_matrix,
    row_quadratic_forms,
    spd_factorize,
    weighted_gram,
)

from helpers import factor_solve, reconstruct


def gram_triple_loop(X, w):
    """Brute-force oracle: sum over rows of (1/w_i) x_i x_i^T, scalar loops."""
    n, d = X.shape
    G = np.zeros((d, d))
    for i in range(n):
        for a in range(d):
            for b in range(d):
                G[a, b] += X[i, a] * X[i, b] / w[i]
    return G


def gaussian_elimination_solve(A, b):
    """Partial-pivoting Gaussian elimination, independent of the package."""
    A = A.astype(float).copy()
    b = b.astype(float).copy()
    n = A.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        A[[k, p]] = A[[p, k]]
        b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            f = A[i, k] / A[k, k]
            A[i, k:] -= f * A[k, k:]
            b[i] -= f * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - A[k, k + 1 :] @ x[k + 1 :]) / A[k, k]
    return x


def random_spd(rng, d, cond=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eig = np.geomspace(1.0, cond, d)
    return (Q * eig) @ Q.T


class TestGramWeighted:
    """weighted_gram with row scales 1/w, the Gram the Lewis sweep forms."""

    def test_identity(self):
        np.testing.assert_allclose(weighted_gram(np.eye(2), 1.0 / np.ones(2)), np.eye(2))

    def test_scaling(self):
        G = weighted_gram(np.eye(2), 1.0 / np.full(2, 0.5))
        np.testing.assert_allclose(G, 2.0 * np.eye(2))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 2))
        G = weighted_gram(X, 1.0 / np.ones(5))
        np.testing.assert_allclose(G, gram_triple_loop(X, np.ones(5)), rtol=1e-12)
        np.testing.assert_allclose(G, X.T @ X, rtol=1e-12)

    def test_varied_weights_vs_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 3))
        w = np.exp(rng.uniform(-6, 6, size=40))
        np.testing.assert_allclose(weighted_gram(X, 1.0 / w), gram_triple_loop(X, w),
                                   rtol=1e-10)

    def test_blocked_path_matches_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((3000, 2))
        w = np.exp(rng.uniform(-3, 3, size=3000))
        np.testing.assert_allclose(weighted_gram(X, 1.0 / w), gram_triple_loop(X, w),
                                   rtol=1e-10)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 4))
        G = weighted_gram(X, 1.0 / (rng.random(50) + 0.1))
        assert np.array_equal(G, G.T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_gram(np.eye(2), 1.0 / np.ones(3))


class TestSpdFactorization:
    def test_solve_identity(self):
        F = spd_factorize(np.eye(2))
        np.testing.assert_allclose(factor_solve(F, [3.0, -5.0]), [3.0, -5.0])

    def test_solve_diagonal(self):
        F = spd_factorize(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(factor_solve(F, [2.0, 4.0]), [1.0, 1.0])

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(4)
        A = random_spd(rng, 4)
        b = rng.standard_normal(4)
        z = factor_solve(spd_factorize(A), b)
        assert np.max(np.abs(A @ z - b)) <= 1e-8 * max(1.0, np.max(np.abs(b)))

    def test_matches_gaussian_elimination(self):
        rng = np.random.default_rng(5)
        A = random_spd(rng, 5, cond=100.0)
        b = rng.standard_normal(5)
        np.testing.assert_allclose(factor_solve(spd_factorize(A), b),
                                   gaussian_elimination_solve(A, b), rtol=1e-9)

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        for d in (1, 3, 7):
            A = random_spd(rng, d, cond=50.0)
            R = reconstruct(spd_factorize(A))
            assert np.max(np.abs(R - A)) <= 1e-10 * np.max(np.abs(A))

    def test_rank_deficient_rejected(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(RankDeficiencyError):
            spd_factorize(X.T @ X)


class TestQuadraticForm:
    def test_identity(self):
        F = spd_factorize(np.eye(2))
        assert row_quadratic_forms(F, np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)

    def test_diagonal(self):
        F = spd_factorize(np.diag([4.0, 1.0]))
        assert row_quadratic_forms(F, np.array([[2.0, 0.0]]))[0] == pytest.approx(1.0)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(7)
        A = random_spd(rng, 5, cond=200.0)
        F = spd_factorize(A)
        for _ in range(10):
            v = rng.standard_normal(5)
            expected = v @ gaussian_elimination_solve(A, v)
            assert row_quadratic_forms(F, v[None])[0] == pytest.approx(expected, rel=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        F = spd_factorize(random_spd(rng, d, cond=1e4))
        v = rng.standard_normal(d) * 10 ** rng.uniform(-3, 3)
        assert row_quadratic_forms(F, v[None])[0] >= 0.0

    def test_row_quadratic_forms_consistent(self):
        rng = np.random.default_rng(8)
        A = random_spd(rng, 3)
        F = spd_factorize(A)
        M = rng.standard_normal((6, 3))
        q = row_quadratic_forms(F, M)
        for i in range(6):
            assert q[i] == pytest.approx(row_quadratic_forms(F, M[i][None])[0], rel=1e-12)

    @pytest.mark.parametrize("design", ["gaussian", "student_t", "unequilibrated"])
    def test_row_quadratic_forms_match_dense_solve(self, design, monkeypatch):
        rng = np.random.default_rng(12)
        n, d = 400, 6
        if design == "gaussian":
            M = rng.standard_normal((n, d))
        elif design == "student_t":
            M = rng.standard_t(1.5, size=(n, d))
        else:
            M = rng.standard_normal((n, d)) * np.geomspace(1e-6, 1e6, d)
        G = weighted_gram(M, np.ones(n))
        # the unequilibrated Gram has condition near 1e24, which the default
        # pivot tolerance refuses; the kernel must stay accurate regardless
        monkeypatch.setattr("lewisreg.linalg.MIN_PIVOT_REL", 1e-30)
        F = spd_factorize(G)
        if design == "unequilibrated":
            assert not np.array_equal(F.perm, np.arange(d))
        expected = np.einsum("ij,ji->i", M, np.linalg.solve(G, M.T))
        np.testing.assert_allclose(row_quadratic_forms(F, M), expected, rtol=1e-12)


class TestLeverageScores:
    def test_identity(self):
        np.testing.assert_allclose(leverage_scores(np.eye(3)).values, np.ones(3))

    def test_duplicated_row_splits(self):
        l = leverage_scores(np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(l.values, [0.5, 0.5])

    def test_trace_identity(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((6, 2))
        l = leverage_scores(X)
        assert abs(l.values.sum() - 2.0) <= 1e-6

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_range_and_sum(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        n = int(rng.integers(d, 40))
        X = np.vstack([rng.standard_normal((n, d)), np.zeros(d)])
        l = leverage_scores(X).values
        assert l[-1] == 0.0
        assert np.all(l >= 0.0) and np.all(l <= 1.0)
        assert abs(l.sum() - d) <= 1e-6
        # columns scaled past 2^+-400 take the first sweep's scaled copy of X
        scale = rng.choice([2.0**-450, 1.0, 3.0 * 2.0**420], size=d)
        np.testing.assert_allclose(leverage_scores(X * scale).values, l, atol=1e-10)

    def test_rank_deficient_rejected(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(RankDeficiencyError):
            leverage_scores(X)

    def test_column_scaling_invariance(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((20, 3))
        l = leverage_scores(X).values
        scaled = leverage_scores(X * np.array([1e-4, 1.0, 1e5])).values
        np.testing.assert_allclose(scaled, l, atol=1e-10)


class TestValidation:
    def test_design_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            as_design_matrix(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_design_matrix_rejects_wide(self):
        with pytest.raises(ValueError):
            as_design_matrix(np.ones((1, 3)))

    def test_weight_vector_immutable(self):
        w = WeightVector(np.ones(3), kind="lewis")
        with pytest.raises(ValueError):
            w.values[0] = 2.0

    def test_weight_vector_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([-1.0]), kind="lewis")

    def test_sampling_needs_budget(self):
        with pytest.raises(ValueError):
            WeightVector(np.ones(2), kind="sampling")
