import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lewisreg.lewis import lewis_weights, recommended_budget, sampling_values
from lewisreg.linalg import WeightVector
from lewisreg.sketch import (
    RNG_ALGORITHM,
    RngStream,
    Sketch,
    apply_to_columns,
    build_alias_table,
    draw_sketch,
    embedding_distortion,
    identity_sketch,
)

from helpers import sketch_from_json_dict, sketch_to_json_dict


def sampling(values, budget):
    return WeightVector(np.asarray(values, dtype=float), kind="sampling",
                        budget=float(budget))


def vose_loop_table(prob):
    """Reference: Vose's alias table built by the sequential stack loop."""
    prob = np.asarray(prob, dtype=np.float64)
    n = prob.shape[0]
    scaled = prob * n
    cutoff = np.ones(n)
    alias = np.arange(n, dtype=np.intp)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        cutoff[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    positive = np.flatnonzero(prob > 0)
    for i in small + large:
        if prob[i] > 0:
            cutoff[i] = 1.0
            alias[i] = i
        else:
            cutoff[i] = 0.0
            alias[i] = positive[0]
    return cutoff, alias


def reference_draw(values, N, rng):
    """draw_sketch's draw, on the loop-built table."""
    cutoff, alias = vose_loop_table(values / values.sum())
    g = rng.generator()
    j = g.integers(0, values.shape[0], size=N)
    u = g.random(N)
    idx = np.where(u < cutoff[j], j, alias[j])
    return idx, 1.0 / values[idx]


def probability_vector(family, n, seed):
    """A probability vector of one test family, drawn from a seeded stream."""
    g = np.random.default_rng(seed)
    if family == "single":
        v = np.ones(1)
    elif family == "exact_uniform":
        v = np.full(n, 1.0 / n)
    elif family == "budget_uniform":
        v = np.full(n, (n // 3 + 1) / n)
    elif family == "spikes":
        v = g.random(n) * 1e-3
        v[g.integers(0, n, size=3)] += g.pareto(1.0, size=3) + 1.0
    elif family == "pareto":
        v = g.pareto(g.uniform(0.5, 3.0), size=n) + 1e-12
    elif family == "dyadic":
        # n p in quarters summing exactly to n: every prefix sum is exact, so
        # the remainders tie 1 exactly wherever they meet it
        n = 2 ** int(np.log2(n))
        return g.multinomial(4 * n, np.full(n, 1.0 / n)) / (4.0 * n)
    else:  # zeros, or "short": zeros summing to less than 1, so rows are left over
        v = g.random(n) * (g.random(n) < 0.6)
        v[g.integers(0, n)] = g.random() + 0.1
        if family == "short":
            return v / v.sum() * g.uniform(0.5, 0.99)
    return v / v.sum()


ALIAS_FAMILIES = ["single", "exact_uniform", "budget_uniform", "spikes", "pareto",
                  "zeros", "dyadic", "short"]


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(7, stream=3).generator().random(5)
        b = RngStream(7, stream=3).generator().random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_substreams_differ(self):
        a = RngStream(7).derive("x").generator().random(5)
        b = RngStream(7).derive("y").generator().random(5)
        assert not np.array_equal(a, b)

    def test_derivation_deterministic(self):
        assert RngStream(1).derive("trial", 4) == RngStream(1).derive("trial", 4)


class TestAliasTable:
    def test_uniform_degenerates_to_accept(self):
        cutoff, alias = build_alias_table(np.full(4, 0.25))
        np.testing.assert_array_equal(cutoff, np.ones(4))

    def test_zero_entries_unreachable(self):
        p = np.array([0.0, 0.5, 0.0, 0.5])
        cutoff, alias = build_alias_table(p)
        assert cutoff[0] == 0.0 and cutoff[2] == 0.0
        assert p[alias[0]] > 0 and p[alias[2]] > 0

    def test_frequencies_match(self):
        rng = np.random.default_rng(0)
        p = rng.random(6)
        p /= p.sum()
        cutoff, alias = build_alias_table(p)
        g = np.random.default_rng(1)
        n = 200_000
        j = g.integers(0, 6, size=n)
        u = g.random(n)
        idx = np.where(u < cutoff[j], j, alias[j])
        freq = np.bincount(idx, minlength=6) / n
        np.testing.assert_allclose(freq, p, atol=4 * np.sqrt(0.25 / n) + 0.003)


class TestAliasTableMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(ALIAS_FAMILIES), n=st.integers(1, 3000),
           seed=st.integers(0, 2**32 - 1))
    def test_same_table_as_sequential_loop(self, family, n, seed):
        prob = probability_vector(family, n, seed)
        cutoff, alias = build_alias_table(prob)
        ref_cutoff, ref_alias = vose_loop_table(prob)
        np.testing.assert_array_equal(alias, ref_alias)
        np.testing.assert_allclose(cutoff, ref_cutoff, rtol=0, atol=1e-9)
        zero = prob == 0
        assert np.all(cutoff[zero] == 0.0)
        assert np.all(prob[alias[zero]] > 0)

    @pytest.mark.parametrize("design", ["gaussian", "student_t"])
    def test_draws_equal_loop_table_draws(self, design):
        g = RngStream(21).derive(design).generator()
        n, d = 20_000, 8
        X = g.standard_normal((n, d)) if design == "gaussian" \
            else g.standard_t(1.5, size=(n, d))
        w = lewis_weights(X)
        for N in (40, 400, 4000):
            p = sampling_values(w, N)
            rng = RngStream(22, stream=N)
            S = draw_sketch(p, N, rng)
            idx, scales = reference_draw(p.values, N, rng)
            np.testing.assert_array_equal(S.indices, idx)
            np.testing.assert_array_equal(S.scales, scales)


# Digest of the draws in pinned_draws_digest() under each recorded
# RNG_ALGORITHM. A change that alters any draw must record a new algorithm
# string here, never overwrite an existing entry.
PINNED_DRAWS = {
    "philox4x64 keyed by sha256(seed, stream, substream)":
        "18aa19c860a166922afaa3db0d34b3ff088ebc3f7034ba59c66b4675b554b934",
}


def pinned_draws_digest():
    """sha256 of draw_sketch indices and scales on exactly computed sampling
    values: the row l1 norms of a seeded integer design (one zero row, one
    heavy row) at three budgets, and uniform values."""
    g = RngStream(2024).derive("pinned design").generator()
    X = g.integers(-9, 10, size=(5000, 6)).astype(np.float64)
    X[17] = 0.0
    X[4321] *= 1000.0
    norms = np.abs(X).sum(axis=1)
    h = hashlib.sha256()
    for N in (10, 100, 2500):
        for values in (norms * (N / norms.sum()), np.full(5000, N / 5000)):
            S = draw_sketch(sampling(values, N), N, RngStream(7, stream=N))
            h.update(S.indices.astype("<i8").tobytes())
            h.update(S.scales.astype("<f8").tobytes())
    return h.hexdigest()


def test_draws_pinned_to_rng_algorithm():
    assert RNG_ALGORITHM in PINNED_DRAWS, "record the draws of the new RNG_ALGORITHM"
    assert pinned_draws_digest() == PINNED_DRAWS[RNG_ALGORITHM], (
        "the draws changed: bump RNG_ALGORITHM and pin the new digest")


class TestDrawSketch:
    def test_single_row(self):
        S = draw_sketch(sampling([4.0], 4), 4, RngStream(0))
        assert np.all(S.indices == 0)
        np.testing.assert_allclose(S.scales, 0.25)
        v = np.array([3.5])
        assert abs(np.abs(apply_to_columns(S, v)).sum() - 3.5) < 1e-12

    def test_deterministic(self):
        p = sampling([1.0, 1.0, 1.0, 1.0], 4)
        S1 = draw_sketch(p, 4, RngStream(5))
        S2 = draw_sketch(p, 4, RngStream(5))
        np.testing.assert_array_equal(S1.indices, S2.indices)
        np.testing.assert_array_equal(S1.scales, S2.scales)

    def test_draw_count_exact(self):
        p = sampling(np.full(10, 1.7), 17)
        for N in (1, 5, 17):
            q = sampling(np.full(10, N / 10), N)
            assert draw_sketch(q, N, RngStream(1)).n_draws == N

    def test_uniform_frequencies(self):
        # empirical index frequency over many sketches approaches 1/4
        p = sampling(np.ones(4), 4)
        counts = np.zeros(4)
        total = 0
        for t in range(25_000):
            S = draw_sketch(p, 4, RngStream(2, stream=t))
            counts += np.bincount(S.indices, minlength=4)
            total += 4
        np.testing.assert_allclose(counts / total, 0.25, atol=0.01)

    def test_zero_probability_never_drawn(self):
        values = np.array([0.0, 3.0, 0.0, 2.0, 5.0]) * 1000.0
        p = sampling(values, 10_000)
        hit = np.zeros(5, dtype=np.int64)
        for t in range(100):
            S = draw_sketch(p, 10_000, RngStream(3, stream=t))
            hit += np.bincount(S.indices, minlength=5)
        assert hit[0] == 0 and hit[2] == 0
        assert hit.sum() == 1_000_000

    def test_scales_are_inverse_values(self):
        values = np.array([1.0, 2.0, 3.0])
        p = sampling(values, 6)
        S = draw_sketch(p, 6, RngStream(4))
        np.testing.assert_allclose(S.scales, 1.0 / values[S.indices])

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            draw_sketch(sampling([1.0, 1.0], 4), 4, RngStream(0))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            draw_sketch(sampling([0.0, 0.0], 2), 2, RngStream(0))

    def test_unbiased_l1(self):
        # E ||S v||_1 = ||v||_1; batch the Monte Carlo over 1e5 sketches
        rng = np.random.default_rng(5)
        n, N, sketches = 6, 8, 100_000
        values = rng.random(n) + 0.2
        values *= N / values.sum()
        p = sampling(values, N)
        v = rng.standard_normal(n)
        g = RngStream(6).generator()
        from lewisreg.sketch import build_alias_table
        cutoff, alias = build_alias_table(values / N)
        j = g.integers(0, n, size=(sketches, N))
        u = g.random((sketches, N))
        idx = np.where(u < cutoff[j], j, alias[j])
        norms = (np.abs(v[idx]) / values[idx]).sum(axis=1)
        se = norms.std(ddof=1) / np.sqrt(sketches)
        assert abs(norms.mean() - np.abs(v).sum()) <= 3 * se


class TestApplyToColumns:
    def test_identity_sketch_is_identity(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((5, 3))
        S = identity_sketch(5)
        np.testing.assert_array_equal(apply_to_columns(S, M), M)
        v = rng.standard_normal(5)
        np.testing.assert_array_equal(apply_to_columns(S, v), v)

    def test_rows_scaled(self):
        S = Sketch(source_n=3, indices=np.array([2, 0]), scales=np.array([2.0, 4.0]))
        M = np.arange(6.0).reshape(3, 2)
        np.testing.assert_allclose(apply_to_columns(S, M),
                                   [[8.0, 10.0], [0.0, 4.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_to_columns(identity_sketch(3), np.ones((4, 2)))


class TestEmbeddingDistortion:
    def test_identity_sketch_zero(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 3))
        assert embedding_distortion(identity_sketch(20), X, 50, RngStream(9)) <= 1e-12

    def test_lewis_sketch_low_distortion(self):
        rng = RngStream(10)
        X = rng.derive("X").generator().standard_normal((500, 5))
        w = lewis_weights(X)
        N = recommended_budget(5, 0.5, 0.1, "constant_prob", C=4)
        p = sampling_values(w, N)
        hits = 0
        for t in range(20):
            S = draw_sketch(p, N, rng.derive("draw", t))
            if embedding_distortion(S, X, 200, rng.derive("probe", t)) <= 0.5:
                hits += 1
        assert hits >= 17

    def test_uniform_misses_isolated_direction(self):
        # one dominant row alone on the last coordinate; a small uniform sketch
        # rarely includes it and then cannot see most of the l1 mass
        rng = RngStream(11)
        g = rng.derive("X").generator()
        n, d = 400, 3
        X = np.zeros((n, d))
        X[: n - 1, : d - 1] = g.standard_normal((n - 1, d - 1))
        X[n - 1, d - 1] = 1e4
        N = 12
        p = sampling(np.full(n, N / n), N)
        big = 0
        for t in range(40):
            S = draw_sketch(p, N, rng.derive("draw", t))
            if (n - 1) in S.indices:
                continue
            if embedding_distortion(S, X, 100, rng.derive("probe", t)) >= 0.9:
                big += 1
        assert big >= 20


class TestSerialization:
    def test_json_round_trip(self):
        p = sampling([1.0, 2.0, 1.0], 4)
        S = draw_sketch(p, 4, RngStream(12, stream=1))
        blob = json.dumps(sketch_to_json_dict(S))
        T = sketch_from_json_dict(json.loads(blob))
        assert T.source_n == S.source_n
        np.testing.assert_array_equal(T.indices, S.indices)
        np.testing.assert_array_equal(T.scales, S.scales)
        assert T.seed == S.seed

    def test_invariant_checks(self):
        with pytest.raises(ValueError):
            Sketch(source_n=2, indices=np.array([2]), scales=np.array([1.0]))
        with pytest.raises(ValueError):
            Sketch(source_n=2, indices=np.array([0]), scales=np.array([-1.0]))
