import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lewisreg.instances import (
    biased_hypercube_instance,
    expected_loss,
    hidden_coordinate_instance,
    make_isolated_instance,
    make_outlier_instance,
    reduce_to_matrix,
    reduction_sample_count,
    sample_pairs,
    two_coin_instances,
)
from lewisreg.lad import LadProblem, l1_norm, objective, solve_lad
from lewisreg.lewis import lewis_weights
from lewisreg.sketch import RngStream


def empirical_loss(inst, beta, m, stream):
    X, y = sample_pairs(inst, m, stream)
    return np.abs(X @ beta - y).mean()


class TestExpectedLoss:
    def test_loss_at_truth(self):
        inst = biased_hypercube_instance(4, 0.1,
                                         beta_star=np.array([1.0, -1.0, 1.0, 1.0]))
        assert expected_loss(inst, inst.beta_star) == pytest.approx(0.8, abs=1e-12)

    def test_two_sign_flips(self):
        beta_star = np.array([1.0, -1.0, 1.0, 1.0])
        inst = biased_hypercube_instance(4, 0.1, beta_star=beta_star)
        beta = beta_star.copy()
        beta[0] *= -1
        beta[2] *= -1
        # excess is (2 bias / d) * ||beta - beta_star||_1 = 0.2 * 4 / 4
        assert expected_loss(inst, beta) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_hypercube_difference_identity(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 10))
        bias = float(rng.uniform(0.01, 0.45))
        beta_star = np.where(rng.random(d) < 0.5, -1.0, 1.0)
        inst = biased_hypercube_instance(d, bias, beta_star=beta_star)
        beta = np.where(rng.random(d) < 0.5, -1.0, 1.0)
        lhs = expected_loss(inst, beta) - expected_loss(inst, beta_star)
        rhs = (2 * bias / d) * np.abs(beta - beta_star).sum()
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_hidden_coordinate_at_truth(self):
        for d in (2, 3, 5, 8):
            inst = hidden_coordinate_instance(d, d - 1)
            assert expected_loss(inst, inst.beta_star) == \
                pytest.approx(1.0 / (4 * d), abs=1e-14)

    def test_hidden_coordinate_formula(self):
        inst = hidden_coordinate_instance(3, 1)
        beta = np.array([0.5, 0.25, -1.0])
        expected = (abs(0.5) + abs(-1.0) + 0.75 * abs(1 - 0.25) + 0.25 * abs(0.25)) / 3
        assert expected_loss(inst, beta) == pytest.approx(expected, abs=1e-14)

    def test_two_coin_tension(self):
        # for every probe, at least one of the pair has excess loss > 2 bias
        lo, hi = two_coin_instances(5, 0.1)
        base = 1 - 2 * 0.1
        g = np.random.default_rng(0)
        probes = [np.zeros(5), np.ones(5), -np.ones(5),
                  *(g.standard_normal(5) * s for s in (0.1, 1.0, 10.0))]
        for beta in probes:
            ex_lo = expected_loss(lo, beta) - base
            ex_hi = expected_loss(hi, beta) - base
            assert max(ex_lo, ex_hi) > 2 * 0.1 - 1e-12

    def test_hidden_coordinate_exclusivity(self):
        # no probe is simultaneously below 1/(2d) on two hidden coordinates
        d = 6
        insts = [hidden_coordinate_instance(d, i) for i in range(d)]
        g = np.random.default_rng(1)
        probes = [np.zeros(d), np.full(d, 0.5), *(row for row in np.eye(d)),
                  *(g.standard_normal(d) * s for s in (0.1, 0.5, 1.0, 5.0)),
                  *(0.5 * (np.eye(d)[i] + np.eye(d)[j])
                    for i in range(3) for j in range(3, 6))]
        for beta in probes:
            hits = sum(1 for inst in insts
                       if expected_loss(inst, beta) < 1.0 / (2 * d))
            assert hits <= 1

    def test_dimension_mismatch(self):
        inst = hidden_coordinate_instance(3, 0)
        with pytest.raises(ValueError):
            expected_loss(inst, np.ones(4))


class TestSamplePairs:
    def test_off_hidden_labels_are_zero(self):
        inst = hidden_coordinate_instance(4, 2)
        X, y = sample_pairs(inst, 2000, RngStream(0))
        off = X[:, 2] == 0.0
        assert np.all(y[off] == 0.0)

    def test_hidden_frequency(self):
        inst = hidden_coordinate_instance(3, 1)
        X, y = sample_pairs(inst, 100_000, RngStream(1))
        hit = X[:, 1] == 1.0
        freq = y[hit].mean()
        assert abs(freq - 0.75) <= 0.005

    def test_hypercube_sign_frequency(self):
        beta_star = np.array([1.0, -1.0, 1.0])
        inst = biased_hypercube_instance(3, 0.15, beta_star=beta_star)
        X, y = sample_pairs(inst, 60_000, RngStream(2))
        for i in range(3):
            rows = X[:, i] == 1.0
            agree = (y[rows] == beta_star[i]).mean()
            se = math.sqrt(0.25 / rows.sum())
            assert abs(agree - 0.65) <= 3 * se

    def test_monte_carlo_matches_expected_loss(self):
        g = np.random.default_rng(3)
        cases = [
            biased_hypercube_instance(4, 0.1,
                                      beta_star=np.where(g.random(4) < 0.5, -1.0, 1.0)),
            two_coin_instances(3, 0.2)[1],
            hidden_coordinate_instance(5, 3),
        ]
        for k, inst in enumerate(cases):
            beta = g.standard_normal(inst.d)
            m = 100_000
            emp = empirical_loss(inst, beta, m, RngStream(4, stream=k))
            exact = expected_loss(inst, beta)
            # residuals are bounded by max(1+||beta||_inf, ...) per draw
            bound = 3 * (1 + np.abs(beta).max()) / math.sqrt(m)
            assert abs(emp - exact) <= bound


class TestReduction:
    def test_statement_formula(self):
        expected = math.ceil((2 / 0.25) * (math.log(20) + 2 * math.log(12)))
        assert reduction_sample_count(2, 0.5, 0.1, "statement") == expected

    def test_proof_formula(self):
        expected = math.ceil((8 / 0.25) * (math.log(20) + 2 * math.log(16)))
        assert reduction_sample_count(2, 0.5, 0.1, "proof") == expected

    def test_monotone_in_delta(self):
        counts = [reduction_sample_count(3, 0.3, dl) for dl in
                  (0.01, 0.1, 0.5, 0.9, 0.99)]
        assert counts == sorted(counts, reverse=True)

    def test_rows_are_basis_vectors(self):
        inst = biased_hypercube_instance(3, 0.1, beta_star=np.ones(3))
        X, y = reduce_to_matrix(inst, 0.4, 0.2, RngStream(5))
        assert X.shape[0] == reduction_sample_count(3, 0.4, 0.2)
        assert np.all(X.sum(axis=1) == 1.0)
        assert np.all((X == 0.0) | (X == 1.0))
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_reduced_minimizer_transfers(self):
        # full-data LAD on the reduced instance lands near the distributional
        # optimum: well within the (1 + 6 eps) transfer bound
        inst = biased_hypercube_instance(3, 0.1, beta_star=np.array([1.0, -1.0, 1.0]))
        bound = (1 + 6 * 0.2) * (1 - 2 * 0.1)
        ok = 0
        for t in range(10):
            X, y = reduce_to_matrix(inst, 0.2, 0.1, RngStream(6, stream=t))
            beta = solve_lad(LadProblem(X, y)).beta
            if expected_loss(inst, beta) <= bound:
                ok += 1
        assert ok >= 9


class TestPlantedInstances:
    def test_zero_magnitude_opt_near_noise_norm(self):
        inst = make_outlier_instance(400, 3, 0.0, RngStream(10), noise_scale=0.5)
        noise_norm = l1_norm(inst.y - inst.X @ inst.beta_star)
        assert inst.opt <= noise_norm * (1 + 1e-9)
        assert inst.opt >= 0.8 * noise_norm

    def test_square_instance_interpolates(self):
        inst = make_outlier_instance(4, 4, 1e5, RngStream(11), noise_scale=0.0)
        assert inst.opt <= 1e-8 * max(1.0, l1_norm(inst.y))

    def test_opt_matches_full_solve(self):
        inst = make_outlier_instance(200, 4, 1e4, RngStream(12))
        sol = solve_lad(LadProblem(inst.X, inst.y))
        assert inst.opt == pytest.approx(sol.objective, rel=1e-9)

    def test_isolated_row_has_full_lewis_weight(self):
        inst = make_isolated_instance(300, 5, RngStream(13), magnitude=25.0)
        w = lewis_weights(inst.X)
        assert w.values[-1] >= 0.99

    def test_isolated_shape(self):
        inst = make_isolated_instance(50, 3, RngStream(14))
        assert np.all(inst.X[:-1, -1] == 0.0)
        assert inst.X[-1, -1] != 0.0
        assert np.all(inst.X[-1, :-1] == 0.0)

    def test_outlier_objective_at_truth(self):
        inst = make_outlier_instance(500, 4, 1e6, RngStream(15), noise_scale=0.0)
        obj = objective(LadProblem(inst.X, inst.y), inst.beta_star)
        assert obj == pytest.approx(1e6, rel=1e-9)
        assert inst.opt <= obj * (1 + 1e-9)

    def test_n_below_d_rejected(self):
        with pytest.raises(ValueError):
            make_outlier_instance(2, 3, 1.0, RngStream(16))
