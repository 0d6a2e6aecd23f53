import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from lewisreg import lewis as lewis_module
from lewisreg import linalg
from lewisreg.experiment import materialize_instance
from lewisreg.lewis import (
    SAMPLING_TOL,
    ConvergenceError,
    _fixed_point_defect,
    lewis_weights,
    recommended_budget,
    sampling_values,
    verify_fixed_point,
)
from lewisreg.linalg import (
    DataError,
    RankDeficiencyError,
    WeightVector,
    spd_factorize,
    weighted_gram,
)

from helpers import check_row_addition_monotonicity

# lewis_weights' default fixed-point residual threshold
TOL = 1e-10

# A defect of at most gamma puts log w within -log(1 - gamma) of the fixed
# point, so weights certified to SAMPLING_TOL lie within that of weights
# certified to TOL, plus the TOL weights' own distance
SAMPLING_LOG_FACTOR = -math.log1p(-SAMPLING_TOL) - math.log1p(-TOL)


def random_tall(rng, n, d):
    return rng.standard_normal((n, d))


def triangular_solve_forms(Xe, w):
    """x_i^T (sum_j x_j x_j^T / w_j)^{-1} x_i for every row, by one
    triangular solve with n right-hand sides."""
    F = spd_factorize(weighted_gram(Xe, 1.0 / w))
    Z = solve_triangular(F.lower, Xe[:, F.perm].T, lower=True)
    return np.einsum("ij,ij->j", Z, Z)


def plain_sweep_weights(X):
    """Reference Lewis weights by the unaccelerated map w <- sqrt(q), with
    lewis_weights' start, zero-row rule, column scaling and stopping test."""
    nonzero = np.abs(X).max(axis=1) > 0
    Xe = X[nonzero] / np.abs(X[nonzero]).max(axis=0)
    w = np.ones(Xe.shape[0])
    for _ in range(lewis_module.MAX_SWEEPS):
        q = triangular_solve_forms(Xe, w)
        if np.max(np.abs(w * w - q) / (w * w)) <= TOL:
            break
        w = np.sqrt(q)
    else:
        raise AssertionError("reference sweep did not converge")
    full = np.zeros(X.shape[0])
    full[nonzero] = w
    return full


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
        # found by the first sweep and dropped: the other rows' bytes are
        # those of the design without the zero rows
        X = rng.standard_t(1.5, size=(300, 4))
        zero = [0, 17, 18, 299]
        X[zero] = 0.0
        w = lewis_weights(X).values
        assert np.all(w[zero] == 0.0) and np.all(np.delete(w, zero) > 0.0)
        assert np.array_equal(np.delete(w, zero), lewis_weights(np.delete(X, zero, axis=0)).values)
        assert verify_fixed_point(X, w) <= TOL

    def test_memory_layout_keeps_bytes(self):
        # the sweeps read the design made C-contiguous; zero rows do not change that
        for zero_row in (None, 3):
            X = np.random.default_rng(5).standard_t(1.5, size=(3000, 12))
            if zero_row is not None:
                X[zero_row] = 0.0
            for tol in (TOL, SAMPLING_TOL):
                w = lewis_weights(X, tol).values
                assert np.array_equal(lewis_weights(np.asfortranarray(X), tol).values, w)
                assert verify_fixed_point(np.asfortranarray(X), w) == verify_fixed_point(X, w)

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

    def test_sweep_forms_match_triangular_solve(self):
        # one sweep's quadratic forms against an n-column triangular solve
        rng = np.random.default_rng(13)
        X = rng.standard_t(1.5, size=(5000, 8))
        Xe = X / np.abs(X).max(axis=0)
        for w in (np.ones(X.shape[0]), rng.uniform(0.01, 1.0, X.shape[0])):
            _, _, log_q, _ = _fixed_point_defect(X, w)
            np.testing.assert_allclose(np.exp(log_q), triangular_solve_forms(Xe, w),
                                       rtol=1e-12)

    def test_heavy_tailed_matches_plain_sweep(self):
        # both vectors are certified to 1e-10, so they agree to a few 1e-10
        rng = np.random.default_rng(13)
        X = rng.standard_t(1.5, size=(5000, 8))
        w = lewis_weights(X)
        assert verify_fixed_point(X, w) <= 1e-10
        assert abs(w.values.sum() - 8.0) <= 1e-8
        np.testing.assert_allclose(w.values, plain_sweep_weights(X), rtol=5e-10)

    @pytest.mark.parametrize("design", ["gaussian", "student_t", "isolated", "scaled"])
    def test_plain_map_halves_defect_after_burn_in(self, design):
        # why the unaccelerated w <- sqrt(q) needs about 37 sweeps to reach
        # 1e-10: after burn-in each sweep only halves the defect
        rng = np.random.default_rng(6)
        X = {
            "gaussian": lambda: random_tall(rng, 40, 5),
            "student_t": lambda: rng.standard_t(1.5, size=(400, 6)),
            "isolated": lambda: materialize_instance(
                {"family": "isolated", "n": 300, "d": 5}, 6)[0],
            "scaled": lambda: random_tall(rng, 200, 4) * 10.0 ** np.array([-6, -2, 3, 6]),
        }[design]()
        w, scale = np.ones(X.shape[0]), None
        residuals = []
        for _ in range(40):
            r, _, log_q, scale = _fixed_point_defect(X, w, scale)
            residuals.append(r)
            w = np.exp(0.5 * log_q)
        ratios = [b / a for a, b in zip(residuals[5:], residuals[6:]) if a > 1e-13]
        assert len(ratios) >= 20
        assert max(ratios) <= 0.55


def random_t_design(seed, nu, log_scales, n):
    """Student-t rows at column scales 10**log_scales, then three structural
    rows: one alone on an extra coordinate, a copy of row 0, and a zero row."""
    rng = np.random.default_rng(seed)
    d = len(log_scales)
    body = rng.standard_t(nu, size=(n, d)) * 10.0 ** np.asarray(log_scales)
    X = np.zeros((n + 3, d + 1))
    X[:n, :d] = body
    X[n, d] = 10.0 ** rng.uniform(-6, 6)
    X[n + 1, :d] = body[0]
    return X


class TestHeavyTailedProperties:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 1.5, 3.0]),
        st.lists(st.floats(-6, 6), min_size=1, max_size=6),
        st.integers(20, 400),
    )
    @settings(max_examples=40, deadline=None)
    def test_certified_fixed_point(self, seed, nu, log_scales, n):
        X = random_t_design(seed, nu, log_scales, n)
        d = X.shape[1]
        w = lewis_weights(X).values
        assert verify_fixed_point(X, w) <= 1e-10
        assert abs(w.sum() - d) <= 1e-8
        assert w[-1] == 0.0
        assert np.all(w[:-1] > 0.0) and np.all(w <= 1.0 + 1e-12)
        assert abs(w[n] - 1.0) <= 1e-9  # the only row on its coordinate
        np.testing.assert_allclose(w[n + 1], w[0], rtol=1e-9)  # the copy of row 0
        np.testing.assert_allclose(w, plain_sweep_weights(X), rtol=5e-10)
        assert_within_sampling_factor(X, lewis_weights(X, SAMPLING_TOL).values, w)


def assert_within_sampling_factor(X, w, ref):
    """w certifies to SAMPLING_TOL and lies within its factor of ref, the
    weights certified to TOL, in every row; both are zero on the same rows."""
    assert verify_fixed_point(X, w) <= SAMPLING_TOL
    nonzero = ref > 0
    assert np.array_equal(w > 0, nonzero)
    assert np.abs(np.log(w[nonzero] / ref[nonzero])).max() <= SAMPLING_LOG_FACTOR


def row_scaled_t_design(seed, d, extra):
    """Student-t(1.5) rows, each scaled by 10^U(-6, 6), with n = d + extra:
    row norms across twelve decades and n close to d, where the defect of the
    Lewis identity can floor near 1e-8, above the 1e-10 certificate."""
    rng = np.random.default_rng(seed)
    n = d + extra
    return rng.standard_t(1.5, size=(n, d)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))


class TestRowScaledNearSquare:
    # over 400 such designs: 314 certify, 39 raise ConvergenceError and 47
    # RankDeficiencyError; the examples pin one of each, and (68, 7, 3) a
    # ConvergenceError whose best defect the message rounds up past residual
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(0, 19))
    @example(68, 7, 3)
    @example(3, 2, 0)
    @example(0, 7, 12)
    @example(2, 4, 0)
    @settings(max_examples=60, deadline=None)
    def test_certifies_or_raises_a_numerical_error(self, seed, d, extra):
        X = row_scaled_t_design(seed, d, extra)
        try:
            w = lewis_weights(X)
        except RankDeficiencyError:
            return
        except ConvergenceError as e:
            assert f"best {e.best:.3e}, tol" in str(e), str(e)
            assert TOL < e.best <= e.residual
            return
        assert verify_fixed_point(X, w) <= TOL

    # over another 400 such designs, 1e-10 gives 285 certified, 45
    # ConvergenceError and 70 RankDeficiencyError, SAMPLING_TOL 330 certified
    # and the same 70 RankDeficiencyError: the rounding floor near 1e-8 lies
    # far below the sampling grade. The examples raise ConvergenceError at 1e-10
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(0, 19))
    @example(68, 7, 3)
    @example(0, 7, 12)
    @settings(max_examples=60, deadline=None)
    def test_sampling_grade_certifies(self, seed, d, extra):
        X = row_scaled_t_design(seed, d, extra)
        try:
            w = lewis_weights(X, SAMPLING_TOL)
        except RankDeficiencyError:
            return
        try:
            ref = lewis_weights(X)
        except ConvergenceError:
            assert verify_fixed_point(X, w) <= SAMPLING_TOL
            return
        assert_within_sampling_factor(X, w.values, ref.values)


@pytest.fixture
def gram_calls(monkeypatch):
    """Records each weighted Gram matrix built: one per Lewis sweep."""
    calls = []

    def counting_gram(*args, **kwargs):
        calls.append(1)
        return weighted_gram(*args, **kwargs)

    monkeypatch.setattr(linalg, "weighted_gram", counting_gram)
    return calls


def record_sweeps(monkeypatch, spikes=()):
    """Record (w, log q) of every sweep; report the defects of the sweeps
    numbered in spikes as 1000x too large."""
    sweeps = []

    def recording_defect(X, w, scale=None):
        residual, q, log_q, scale = _fixed_point_defect(X, w, scale)
        if len(sweeps) in spikes:
            residual *= 1e3
        sweeps.append((w.copy(), log_q.copy()))
        return residual, q, log_q, scale

    monkeypatch.setattr(lewis_module, "_fixed_point_defect", recording_defect)
    return sweeps


def anderson_step(sweeps, k, start, depth=5):
    """Reference type-II Anderson iterate after sweep k, in u = log w over
    g = log(q) / 2, mixing the differences of sweeps max(start, k - depth)..k
    by a least-squares fit on the n x depth difference matrix."""
    u = [np.log(w) for w, _ in sweeps[: k + 1]]
    g = [0.5 * log_q for _, log_q in sweeps[: k + 1]]
    f = [gj - uj for gj, uj in zip(g, u)]
    span = range(max(start, k - depth), k)
    if not span:
        return np.exp(g[k])
    dF = np.column_stack([f[j + 1] - f[j] for j in span])
    dG = np.column_stack([g[j + 1] - g[j] for j in span])
    gamma = np.linalg.lstsq(dF, f[k], rcond=None)[0]
    return np.exp(g[k] - dG @ gamma)


class TestSweepsAndSafeguards:
    # measured with depth-5 mixing: 8, 12-14 and 9 sweeps; the plain
    # w <- sqrt(q) iteration needs 37-38 on each
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gaussian(self, gram_calls, seed):
        lewis_weights(np.random.default_rng(seed).standard_normal((20000, 10)))
        assert len(gram_calls) <= 10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_student_t(self, gram_calls, seed):
        lewis_weights(np.random.default_rng(seed).standard_t(1.5, size=(20000, 10)))
        assert len(gram_calls) <= 17

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_isolated_instance(self, gram_calls, seed):
        X, _, _ = materialize_instance({"family": "isolated", "n": 2000, "d": 10}, seed)
        gram_calls.clear()  # count only the sweeps of lewis_weights
        lewis_weights(X)
        assert len(gram_calls) <= 11

    def test_iterates_follow_depth_five_anderson(self, monkeypatch):
        sweeps = record_sweeps(monkeypatch)
        X = np.random.default_rng(4).standard_t(1.5, size=(3000, 6))
        lewis_weights(X)
        assert len(sweeps) >= 8  # so the ring of five differences wraps
        for k in range(1, len(sweeps) - 1):
            np.testing.assert_allclose(sweeps[k + 1][0], anderson_step(sweeps, k, 0),
                                       rtol=1e-10)
        # the mixed iterates are not the plain map's
        assert np.max(np.abs(sweeps[4][0] / np.exp(0.5 * sweeps[3][1]) - 1.0)) > 1e-6

    def test_worse_iterate_restarts_with_plain_step(self, monkeypatch):
        # report the defects of sweeps 4 and 5 as 1000x too large: each is
        # above the best so far (sweep 3's), so each clears the history and
        # is followed by a plain step; later iterates mix only sweeps 5 on
        sweeps = record_sweeps(monkeypatch, spikes=(4, 5))
        X = np.random.default_rng(4).standard_t(1.5, size=(3000, 6))
        w = lewis_weights(X)
        monkeypatch.undo()
        assert len(sweeps) >= 8 and verify_fixed_point(X, w) <= 1e-10
        for k in (4, 5):
            np.testing.assert_allclose(sweeps[k + 1][0], np.exp(0.5 * sweeps[k][1]),
                                       rtol=1e-14)
        for k in range(6, len(sweeps) - 1):
            np.testing.assert_allclose(sweeps[k + 1][0], anderson_step(sweeps, k, 5),
                                       rtol=1e-10)

    def test_budget_exhausted_raises(self, gram_calls, monkeypatch):
        X = np.random.default_rng(3).standard_t(1.5, size=(2000, 6))
        monkeypatch.setattr(lewis_module, "MAX_SWEEPS", 3)
        with pytest.raises(ConvergenceError) as info:
            lewis_weights(X)
        assert info.value.residual > TOL
        assert len(gram_calls) == 3


class TestPrologue:
    """The sweeps read the caller's X in their Gram and quadratic-form passes
    only: column scales live in the d x d Gram and zero rows are found by the
    first sweep."""

    def test_peak_allocation_below_design(self):
        X = np.random.default_rng(21).standard_t(1.5, size=(50_000, 20))
        lewis_weights(X, SAMPLING_TOL)  # load the LAPACK kernels outside the trace
        tracemalloc.start()
        try:
            lewis_weights(X, SAMPLING_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes

    def test_all_zero_column_refused(self):
        X = np.random.default_rng(23).standard_normal((20, 3))
        X[:, 1] = 0.0
        for call in (lambda: lewis_weights(X), lambda: verify_fixed_point(X, np.ones(20))):
            with pytest.raises(RankDeficiencyError, match="^matrix has an all-zero column$"):
                call()

    @pytest.mark.parametrize("scales", [
        [1e150, 1e-150, 1.0, 3.0],
        [1e300, 1e-300, 1e150, 1e-150],
        [1e-300] * 4,
        [1e300] * 4,
    ], ids=["150", "300-and-150", "all-tiny", "all-huge"])
    def test_extreme_column_scales(self, scales):
        X = np.random.default_rng(24).standard_t(1.5, size=(2000, 4))
        w = lewis_weights(X).values
        Xs = X * np.array(scales)
        ws = lewis_weights(Xs).values
        np.testing.assert_allclose(ws, w, rtol=0, atol=1e-12)
        assert verify_fixed_point(Xs, ws) <= TOL

    def test_power_of_two_column_scales_keep_bytes(self):
        # X D is what the sweeps compute with, inside the Gram's range or not
        X = np.random.default_rng(25).standard_t(1.5, size=(3000, 4))
        w = lewis_weights(X).values
        for k in ([-40, 0, 17, 300], [-900, 0, 600, 1000]):
            assert np.array_equal(lewis_weights(X * 2.0 ** np.array(k)).values, w)

    def test_every_sweep_goes_through_the_defect(self, monkeypatch, gram_calls):
        sweeps = record_sweeps(monkeypatch)
        X = np.random.default_rng(27).standard_t(1.5, size=(2000, 5))
        X[[4, 9]] = 0.0
        lewis_weights(X, SAMPLING_TOL)
        assert len(sweeps) == len(gram_calls) >= 3
        w0, log_q0 = sweeps[0]  # the first sweep, at w = 1, sees the zero rows
        assert np.array_equal(w0, np.ones(2000))
        assert np.all(log_q0[[4, 9]] == -np.inf) and np.isfinite(np.delete(log_q0, [4, 9])).all()
        assert all(w.shape == (1998,) for w, _ in sweeps[1:])  # and then drops them

    def test_tiny_row_gets_finite_positive_weight(self):
        # row 7's quadratic form, near 1e-340, underflows to 0: its log q
        # comes from the row rescaled by a power of two
        X = np.random.default_rng(0).standard_normal((50, 3))
        X[7] = 1e-170
        w = lewis_weights(X).values
        assert verify_fixed_point(X, w) <= TOL
        rest = np.delete(X, 7, axis=0)
        w_rest = lewis_weights(rest).values
        np.testing.assert_allclose(np.delete(w, 7), w_rest, rtol=1e-8)
        # w_7 is linear in the row's scale: 1e-170 sqrt(1^T M^{-1} 1), M the
        # Gram of the other rows at their weights
        q = np.ones(3) @ np.linalg.solve(weighted_gram(rest, 1.0 / w_rest), np.ones(3))
        assert w[7] == pytest.approx(1e-170 * math.sqrt(q), rel=1e-8)
        ws = lewis_weights(X, SAMPLING_TOL).values
        assert 0.0 < ws[7] and np.isfinite(ws).all()


class TestVerifyFixedPoint:
    def test_identity_zero_residual(self):
        assert verify_fixed_point(np.eye(2), np.ones(2)) <= 1e-12

    def test_wrong_weights_flagged(self):
        # w = 1/2 on the identity: w^2 = 1/4 but the form evaluates to 1/2
        assert verify_fixed_point(np.eye(2), np.full(2, 0.5)) >= 0.9

    def test_self_consistency(self):
        rng = np.random.default_rng(7)
        X = random_tall(rng, 15, 4)
        w = lewis_weights(X)
        assert verify_fixed_point(X, w) <= 100 * TOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_fixed_point(np.eye(2), np.ones(3))

    def test_zero_rows_must_carry_zero_weight(self):
        X = np.vstack([np.eye(2), np.zeros((1, 2))])
        assert verify_fixed_point(X, np.array([1.0, 1.0, 0.0])) <= 1e-12
        for bad in (5.0, -1.0):
            with pytest.raises(ValueError, match="^weights must be 0 on all-zero rows$"):
                verify_fixed_point(X, np.array([1.0, 1.0, bad]))
        with pytest.raises(ValueError, match="^weights must be positive on nonzero rows$"):
            verify_fixed_point(X, np.array([0.0, 1.0, 0.0]))


    @pytest.mark.parametrize("scale", [1e-20, 1e-170])
    def test_rows_of_tiny_weight_are_measured_relatively(self, scale):
        """Row 7 scaled by 1e-20 (w^2 near 4e-43) or 1e-170 (w^2 underflows
        to 0): its defect is relative like every other row's, so scaling its
        certified weight by 10 or 1e-3 reads 0.99 or 1e6 - 1, not the defect
        of the certified weights."""
        X = np.random.default_rng(0).standard_normal((50, 3))
        X[7] *= scale
        w = lewis_weights(X).values
        assert w[7] * w[7] < 1e-30
        assert verify_fixed_point(X, w) <= TOL
        for factor, defect in ((10.0, 0.99), (1e-3, 1e6 - 1.0)):
            v = w.copy()
            v[7] *= factor
            assert verify_fixed_point(X, v) == pytest.approx(defect, rel=1e-8)


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

    @pytest.mark.parametrize("n, N", [(7, 30), (150, 15), (2000, 240)])
    def test_uniform_ones_give_the_bits_of_full(self, n, N):
        p = sampling_values(WeightVector(np.ones(n), kind="uniform"), N)
        np.testing.assert_array_equal(p.values, np.full(n, N / n))
        assert p.budget == float(N)

    def test_resampling_sampling_values_rejected(self):
        p = sampling_values(WeightVector(np.ones(2), kind="lewis"), 4)
        with pytest.raises(ValueError):
            sampling_values(p, 4)


class TestRecommendedBudget:
    def test_constant_prob_arithmetic(self):
        assert recommended_budget(2, 0.5, 0.1, "constant_prob") == \
            math.ceil(4 * 2 * math.log(2) / 0.25) == 23

    def test_high_prob_arithmetic(self):
        expected = math.ceil(4 * 10 / 0.0625 * math.log(10 / 0.0125))
        assert recommended_budget(10, 0.25, 0.05, "high_prob") == expected

    def test_monotone_decreasing_in_eps(self):
        budgets = [recommended_budget(5, eps, 0.1, "high_prob")
                   for eps in (0.1, 0.2, 0.4, 0.8)]
        assert budgets == sorted(budgets, reverse=True)
        budgets = [recommended_budget(5, eps, 0.1, "constant_prob")
                   for eps in (0.1, 0.2, 0.4, 0.8)]
        assert budgets == sorted(budgets, reverse=True)

    def test_out_of_range_rejected(self):
        # a d, eps or delta out of range is a data error, as in active._budget
        for d, eps, delta in ((0, 0.5, 0.1), (5, 0.0, 0.1), (5, 1.5, 0.1),
                              (5, 0.5, 0.0), (5, 0.5, 1.0)):
            with pytest.raises(DataError):
                recommended_budget(d, eps, delta)
        with pytest.raises(ValueError):
            recommended_budget(5, 0.5, 0.1, "bogus")
