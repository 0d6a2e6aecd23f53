"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Monte Carlo criteria run on fixed seeds so outcomes are
reproducible; tolerances and trial counts are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from lewisreg.active import (
    InMemoryLabelOracle,
    active_solve,
    sketch_and_solve_known_y,
)
from lewisreg.dataio import json_bytes
from lewisreg.experiment import ExperimentSpec, run_experiment
from lewisreg.instances import (
    biased_hypercube_instance,
    expected_loss,
    hidden_coordinate_instance,
    make_isolated_instance,
    make_outlier_instance,
    reduce_to_matrix,
    sample_pairs,
    two_coin_instances,
)
from lewisreg.lad import LadProblem, objective, solve_lad
from lewisreg.lewis import (
    lewis_weights,
    recommended_budget,
    sampling_values,
    verify_fixed_point,
)
from lewisreg.linalg import WeightVector
from lewisreg.sketch import RngStream, draw_sketch

from helpers import (
    check_row_addition_monotonicity,
    embedding_distortion,
    oversampled_budget,
    weighted_median_1d,
)


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def certificate_infnorm(A, b, w, beta, zero_tol=1e-7):
    """Independent subgradient check (same construction as in test_lad)."""
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


@pytest.fixture(scope="module")
def outlier_instance():
    # shared by criteria 6, 7, and 8
    return make_outlier_instance(2000, 10, 1e6, RngStream(606).derive("inst"))


def test_criterion_1_lewis_fixed_point():
    t0 = time.perf_counter()
    g = np.random.default_rng(101)
    worst_defect = 0.0
    worst_sum_gap = 0.0
    for _ in range(100):
        d = int(g.integers(2, 21))
        n = int(np.exp(g.uniform(np.log(max(20, d)), np.log(2000))))
        n = max(n, d)
        X = g.standard_normal((n, d))
        heavy = g.integers(0, n, size=max(1, n // 50))
        X[heavy] *= 100.0  # spread the weights over orders of magnitude
        w = lewis_weights(X)
        worst_defect = max(worst_defect, verify_fixed_point(X, w))
        worst_sum_gap = max(worst_sum_gap, abs(w.values.sum() - d))
    elapsed = time.perf_counter() - t0
    ok = worst_defect <= 1e-8 and worst_sum_gap <= 1e-6 and elapsed < 30.0
    report(1, ok, f"100 matrices: max defect {worst_defect:.2e} (<=1e-8), "
                  f"max |sum w - d| {worst_sum_gap:.2e} (<=1e-6), {elapsed:.1f}s (<30s)")


def test_criterion_2_stacking_law():
    g = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        d = int(g.integers(2, 6))
        n = int(g.integers(d + 1, 40))
        X = g.standard_normal((n, d))
        w = lewis_weights(X).values
        for k in (2, 3):
            stacked = np.vstack([X] * k) / k
            ws = lewis_weights(stacked).values
            worst = max(worst, float(np.max(np.abs(ws - np.tile(w / k, k)))))
    report(2, worst <= 1e-6,
           f"20 matrices, k in {{2,3}}: max |w_stacked - w/k| = {worst:.2e} (<=1e-6)")


def test_criterion_3_row_addition_monotonicity():
    g = np.random.default_rng(303)
    worst = -math.inf
    all_ok = True
    for _ in range(50):
        d = int(g.integers(2, 6))
        n = int(g.integers(d + 1, 30))
        extra = int(g.integers(1, 10))
        X = g.standard_normal((n, d))
        E = g.standard_normal((extra, d))
        res = check_row_addition_monotonicity(X, E)
        worst = max(worst, res.max_violation)
        all_ok &= res.ok
    report(3, all_ok and worst <= 1e-7,
           f"50 pairs: max weight increase {worst:.2e} (<=1e-7)")


def test_criterion_4_subspace_embedding():
    t0 = time.perf_counter()
    rng = RngStream(404)
    X = rng.derive("X").generator().standard_normal((500, 5))
    eps = 0.5
    N = recommended_budget(5, eps, 0.1, "constant_prob")
    p = sampling_values(lewis_weights(X), N)
    good = 0
    for t in range(100):
        S = draw_sketch(p, N, rng.derive("draw", t))
        if embedding_distortion(S, X, 200, rng.derive("probe", t)) <= eps:
            good += 1
    elapsed = time.perf_counter() - t0
    ok = good >= 85 and elapsed < 60.0
    report(4, ok, f"N={N}: distortion <= {eps} in {good}/100 draws (>=85), "
                  f"{elapsed:.1f}s (<60s)")


def test_criterion_5_lad_solver():
    g = np.random.default_rng(505)
    # d = 1: oracle equivalence on 200 instances
    worst_rel = 0.0
    for _ in range(200):
        m = int(g.integers(3, 60))
        a = g.standard_normal(m)
        a[np.abs(a) < 1e-2] += 0.5
        b = g.standard_normal(m) * g.choice([1.0, 10.0])
        w = g.random(m) + 0.1
        prob = LadProblem(a[:, None], b, w)
        sol = solve_lad(prob)
        med = weighted_median_1d(b / a, w * np.abs(a))
        oracle_obj = objective(prob, np.array([med]))
        worst_rel = max(worst_rel,
                        abs(sol.objective - oracle_obj) / max(oracle_obj, 1e-12))
    # multi-dimensional: subgradient certificate on every solve
    worst_cert = 0.0
    cert_ok = True
    for _ in range(40):
        d = int(g.integers(2, 9))
        m = int(g.integers(d + 2, 300))
        A = g.standard_normal((m, d))
        b = A @ g.standard_normal(d) + g.standard_normal(m) * g.choice([0.1, 1.0, 100.0])
        w = g.random(m) + 0.1
        sol = solve_lad(LadProblem(A, b, w))
        bound = 1e-8 * w.sum() * np.max(np.abs(A))
        cert = certificate_infnorm(A, b, w, sol.beta)
        worst_cert = max(worst_cert, cert / bound)
        cert_ok &= cert <= bound
    ok = worst_rel <= 1e-8 and cert_ok
    report(5, ok, f"200 d=1 solves: max relative gap {worst_rel:.2e} (<=1e-8); "
                  f"40 multi-d certificates all within bound "
                  f"(worst {worst_cert:.2e} of bound)")


def test_criterion_6_main_guarantee(outlier_instance):
    t0 = time.perf_counter()
    inst = outlier_instance
    eps = 0.25
    N = oversampled_budget(10, eps, 0.1, "constant_prob")
    successes = 0
    max_distinct = 0
    for t in range(100):
        res = active_solve(inst.X, InMemoryLabelOracle(inst.y), eps, 0.1,
                           RngStream(616).derive("trial", t),
                           regime="constant_prob")
        obj = objective(LadProblem(inst.X, inst.y), res.beta_hat)
        if obj <= (1 + eps) * inst.opt:
            successes += 1
        max_distinct = max(max_distinct, res.labels_queried)
        assert res.labels_queried <= res.n_draws == N
    elapsed = time.perf_counter() - t0
    ok = successes >= 85 and max_distinct <= N < inst.X.shape[0] and elapsed < 300.0
    report(6, ok, f"n=2000 d=10 eps=0.25: {successes}/100 within 1.25 OPT (>=85); "
                  f"distinct labels <= {max_distinct} <= N={N} < n=2000; "
                  f"{elapsed:.0f}s (<300s)")


def test_criterion_7_known_y_mode(outlier_instance):
    inst = outlier_instance
    eps = 0.25
    N = recommended_budget(10, eps, 0.1, "constant_prob")
    act, aug = 0, 0
    for t in range(100):
        res_a = active_solve(inst.X, InMemoryLabelOracle(inst.y), eps, 0.1,
                             RngStream(717).derive("act", t), budget_override=N)
        if objective(LadProblem(inst.X, inst.y), res_a.beta_hat) <= (1 + eps) * inst.opt:
            act += 1
        res_k = sketch_and_solve_known_y(inst.X, inst.y, eps, 0.1,
                                         RngStream(717).derive("aug", t),
                                         budget_override=N)
        if objective(LadProblem(inst.X, inst.y), res_k.beta_hat) <= (1 + eps) * inst.opt:
            aug += 1
    ok = aug / 100 >= act / 100 - 0.05
    report(7, ok, f"equal N={N}: known-y success {aug}/100 vs active {act}/100 "
                  f"(allowed gap 5 points)")


def test_criterion_8_constant_factor_regime(outlier_instance):
    inst = outlier_instance
    d = 10
    N = math.ceil(4 * d * math.log(d))
    ratios = []
    for t in range(100):
        res = active_solve(inst.X, InMemoryLabelOracle(inst.y), 0.5, 0.1,
                           RngStream(818).derive("trial", t), budget_override=N)
        obj = objective(LadProblem(inst.X, inst.y), res.beta_hat)
        ratios.append(obj / inst.opt)
    ratios = np.array(ratios)
    within = int(np.sum(ratios <= 41.0))
    med = float(np.median(ratios))
    ok = within >= 95 and med <= 3.0
    report(8, ok, f"N=ceil(4 d log d)={N}: ratio <= 41 in {within}/100 (>=95), "
                  f"median ratio {med:.3f} (<=3)")


def test_criterion_9_lower_bound_loss_oracles():
    # exact closed forms
    beta_star = np.array([1.0, -1.0, 1.0, 1.0])
    inst = biased_hypercube_instance(4, 0.1, beta_star=beta_star)
    e1 = abs(expected_loss(inst, beta_star) - (1 - 2 * 0.1))
    flipped = beta_star.copy()
    flipped[1] *= -1
    e2 = abs((expected_loss(inst, flipped) - expected_loss(inst, beta_star))
             - (2 * 0.1 / 4) * 2.0)
    hidden = hidden_coordinate_instance(5, 2)
    e3 = abs(expected_loss(hidden, hidden.beta_star) - 1 / (4 * 5))
    exact_ok = max(e1, e2, e3) <= 1e-12

    # Monte Carlo agreement at 1e6 samples, three sigma
    mc_ok = True
    details = []
    cases = [
        (inst, beta_star),
        (two_coin_instances(3, 0.2)[0], np.array([0.3, -0.7, 1.2])),
        (hidden, np.array([0.1, 0.0, 0.8, -0.2, 0.0])),
    ]
    for k, (case, beta) in enumerate(cases):
        X, y = sample_pairs(case, 1_000_000, RngStream(909, stream=k))
        vals = np.abs(X @ beta - y)
        emp = float(vals.mean())
        se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
        gap = abs(emp - expected_loss(case, beta))
        mc_ok &= gap <= 3 * se
        details.append(f"{case.family}: |emp-exact|={gap:.2e} (3se={3*se:.2e})")
    report(9, exact_ok and mc_ok,
           f"closed forms exact to {max(e1, e2, e3):.1e} (<=1e-12); " + "; ".join(details))


def test_criterion_10_comparative_hardness():
    inst = make_isolated_instance(500, 5, RngStream(1010).derive("inst"),
                                  magnitude=50.0, noise_scale=0.05)
    eps = 0.25
    N = 100
    p_lewis = sampling_values(lewis_weights(inst.X), N)
    p_unif = WeightVector(np.full(500, N / 500), kind="sampling", budget=float(N))
    from lewisreg.active import sample_and_solve
    from lewisreg.linalg import RankDeficiencyError

    def arm(p, tag):
        wins = 0
        for t in range(200):
            try:
                res = sample_and_solve(inst.X, InMemoryLabelOracle(inst.y), p,
                                       RngStream(1011).derive(tag, t))
            except RankDeficiencyError:
                continue  # the sketch spans fewer than d directions: failure
            obj = objective(LadProblem(inst.X, inst.y), res.beta_hat)
            if obj <= (1 + eps) * inst.opt:
                wins += 1
        return wins

    k_lewis = arm(p_lewis, "lewis")
    k_unif = arm(p_unif, "unif")
    p_l, p_u = k_lewis / 200, k_unif / 200
    sigma = math.sqrt(p_l * (1 - p_l) / 200 + p_u * (1 - p_u) / 200)
    ok = p_l >= 0.90 and p_u <= 0.50 and (p_l - p_u) >= 3 * max(sigma, 1e-9)
    report(10, ok, f"budget {N}: lewis {k_lewis}/200 (>=90%), uniform {k_unif}/200 "
                   f"(<=50%), gap {(p_l - p_u):.2f} >= 3 sigma ({3 * sigma:.2f})")


def test_criterion_11_reduction_sanity():
    eps_bias = 0.1
    inst = biased_hypercube_instance(3, eps_bias,
                                     beta_star=np.array([1.0, -1.0, 1.0]))
    bound = (1 + 6 * 0.2) * (1 - 2 * eps_bias)
    good = 0
    for t in range(100):
        X, y = reduce_to_matrix(inst, 0.2, 0.1, RngStream(1111).derive("t", t))
        beta = solve_lad(LadProblem(X, y)).beta
        if expected_loss(inst, beta) <= bound:
            good += 1
    report(11, good >= 95,
           f"d=3 eps=0.2 bias=0.1: distributional loss <= {bound:.3f} "
           f"in {good}/100 trials (>=95)")


def test_criterion_12_determinism():
    spec = ExperimentSpec(
        instance={"family": "outlier", "n": 150, "d": 3,
                  "outlier_magnitude": 1e4, "noise_scale": 1.0},
        method="lewis", budgets=[15, 30], eps=0.25, delta=0.1,
        trials=5, seed=1212)
    blobs = []
    for _ in range(2):
        rep = run_experiment(spec).to_json_dict()
        rep.pop("timing")
        blobs.append(json_bytes(rep))
    report(12, blobs[0] == blobs[1],
           f"re-run report identical modulo timing ({len(blobs[0])} bytes)")
