"""Sampling-and-reweighting sketches.

A sketch of budget N over n source rows is N independent categorical draws,
row i coming up with probability p_i / N and recorded with scale 1 / p_i, so
that E ||S v||_1 = ||v||_1 whenever the p_i sum to N. Sketches are stored as
(index, scale) pairs, never as dense N x n matrices.

Randomness comes from RngStream, a thin wrapper over numpy's counter-based
Philox generator keyed by sha256(seed, stream, substream); equal keys give
bit-identical draw sequences on every platform.
"""

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .linalg import WeightVector, as_design_matrix

__all__ = [
    "RngStream",
    "Sketch",
    "build_alias_table",
    "draw_sketch",
    "identity_sketch",
    "apply_to_columns",
    "embedding_distortion",
]

RNG_ALGORITHM = "philox4x64 keyed by sha256(seed, stream, substream)"


def _key128(*parts) -> int:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:16], "little")


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream identified by (seed, stream, substream)."""

    seed: int
    stream: int = 0
    substream: int = 0

    def generator(self) -> np.random.Generator:
        key = _key128("lewisreg", self.seed, self.stream, self.substream)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, *tags) -> "RngStream":
        """Child stream for a named purpose; tags may be ints or strings."""
        return replace(self, substream=_key128(self.substream, *tags))


def build_alias_table(prob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table for a probability vector (sums to 1).

    Returns (cutoff, alias): draw j uniform, u uniform in [0,1); the sample is
    j if u < cutoff[j] else alias[j]. Entries with zero probability get
    cutoff 0 and a positive-probability alias, so they can never be returned.

    O(n) in a few array passes: Vose's stack loop (smalls and larges popped by
    descending index) replayed with prefix sums. With D and E the cumulative
    deficits of the smalls and excesses of the larges, small k takes the first
    large j with E(j) >= D(k-1); large j turns small after the first k with
    D(k) > E(j), with cutoff 1 + E(j) - D(k) and the next large as alias. This
    is the loop's alias array (barring a remainder that ties 1 to rounding),
    and its cutoffs to the rounding of the prefix sums.
    """
    prob = np.asarray(prob, dtype=np.float64)
    n = prob.shape[0]
    positive = np.flatnonzero(prob > 0)
    if positive.size == 0:
        raise ValueError("all probabilities are zero")
    scaled = prob * n
    cutoff = np.ones(n)
    alias = np.arange(n, dtype=np.intp)
    small = np.flatnonzero(scaled < 1.0)[::-1]
    large = np.flatnonzero(scaled >= 1.0)[::-1]
    D = np.cumsum(1.0 - scaled[small])
    E = np.cumsum(scaled[large] - 1.0)
    j = np.searchsorted(E, np.concatenate(([0.0], D))[:-1], side="left")
    paired, left = small[j < large.size], small[j == large.size]
    cutoff[paired] = scaled[paired]
    alias[paired] = large[j[j < large.size]]
    k = np.searchsorted(D, E[:-1], side="right")  # the last large has no successor
    turned = np.flatnonzero(k < small.size)
    cutoff[large[turned]] = (1.0 + E[turned]) - D[k[turned]]
    alias[large[turned]] = large[turned + 1]
    # leftovers keep cutoff 1 and alias themselves (their mass is rounding
    # noise), except zero entries, which must stay unreachable
    zero = left[prob[left] <= 0]
    cutoff[zero] = 0.0
    alias[zero] = positive[0]
    return cutoff, alias


@dataclass(frozen=True)
class Sketch:
    """A realized sampling-and-reweighting draw: N (row index, scale) pairs."""

    source_n: int
    indices: np.ndarray
    scales: np.ndarray
    seed: tuple | None = None

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        sc = np.asarray(self.scales, dtype=np.float64)
        if idx.shape != sc.shape or idx.ndim != 1:
            raise ValueError("indices and scales must be 1-D of equal length")
        if idx.size and (idx.min() < 0 or idx.max() >= self.source_n):
            raise ValueError("sketch index out of range")
        if np.any(sc <= 0):
            raise ValueError("sketch scales must be positive")
        idx = idx.copy(); idx.setflags(write=False)
        sc = sc.copy(); sc.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "scales", sc)

    @property
    def n_draws(self) -> int:
        return self.indices.shape[0]


def draw_sketch(p: WeightVector, N: int, rng: RngStream) -> Sketch:
    """Draw a sampling-and-reweighting sketch from sampling values p.

    Parameters
    ----------
    p : WeightVector of kind "sampling" whose entries sum to N (1e-6 relative).
    N : number of rows to draw; each is index i with probability p_i / N,
        recorded with scale 1 / p_i.
    rng : RngStream; the same stream always yields the same sketch.
    """
    if not isinstance(p, WeightVector) or p.kind != "sampling":
        raise ValueError("draw_sketch expects sampling values")
    if N < 1:
        raise ValueError("budget must be at least 1")
    values = p.values
    total = p.total
    if total <= 0:
        raise ValueError("sampling values are all zero")
    if abs(total - N) > 1e-6 * N:
        raise ValueError(f"sampling values sum to {total}, expected {N}")
    cutoff, alias = build_alias_table(values / total)
    g = rng.generator()
    n = values.shape[0]
    j = g.integers(0, n, size=N)
    u = g.random(N)
    idx = np.where(u < cutoff[j], j, alias[j]).astype(np.intp)
    scales = 1.0 / values[idx]
    return Sketch(source_n=n, indices=idx, scales=scales,
                  seed=(rng.seed, rng.stream, rng.substream))


def identity_sketch(n: int) -> Sketch:
    """The deterministic sketch with draws (k, 1) in order; applies as identity."""
    return Sketch(source_n=n, indices=np.arange(n, dtype=np.intp),
                  scales=np.ones(n), seed=None)


def apply_to_columns(S: Sketch, M) -> np.ndarray:
    """Row k of the output is scale_k times row i_k of M (matrix or vector)."""
    A = np.asarray(M, dtype=np.float64)
    if A.shape[0] != S.source_n:
        raise ValueError(f"operand has {A.shape[0]} rows, sketch expects {S.source_n}")
    if A.ndim == 1:
        return A[S.indices] * S.scales
    if A.ndim == 2:
        return A[S.indices] * S.scales[:, None]
    raise ValueError("operand must be a vector or a matrix")


def embedding_distortion(S: Sketch, X, probes: int, rng: RngStream) -> float:
    """Largest observed |  ||S X b||_1 - 1 | over random probe directions b,
    each normalized so ||X b||_1 = 1.

    This is a lower bound on the true subspace distortion (the max over the
    whole column space), not a certificate.
    """
    X = as_design_matrix(X)
    if probes < 1:
        raise ValueError("need at least one probe")
    g = rng.generator()
    d = X.shape[1]
    B = g.standard_normal((d, probes))
    Y = X @ B
    norms = np.abs(Y).sum(axis=0)
    ok = norms > 0
    if not np.any(ok):
        raise ValueError("all probes collapsed to zero; X may be zero")
    Y = Y[:, ok] / norms[ok]
    SY = Y[S.indices] * S.scales[:, None]
    sketched = np.abs(SY).sum(axis=0)
    return float(np.max(np.abs(sketched - 1.0)))
