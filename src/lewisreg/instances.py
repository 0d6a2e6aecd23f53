"""Instance generators: benign designs, adversarial stress cases, and the
hard distributional families with closed-form expected losses.

Three distributional families over (x, y) pairs with x a uniform standard
basis vector:

- biased_hypercube: y = z * x^T beta_star with z = +1 w.p. 1/2 + bias and
  -1 otherwise; beta_star is a +-1 vector.
- two_coin: the same construction restricted to beta_star = -1 or +1 on every
  coordinate; distinguishing the pair is a biased-coin problem.
- hidden_coordinate: beta_star = e_{i*} and y = z * x^T beta_star with z
  Bernoulli(3/4) in {0, 1}; every query off the hidden coordinate returns 0.

Each family exposes its exact expected absolute loss, so Monte Carlo runs can
be checked against closed forms. reduce_to_matrix turns a distributional
instance into a fixed (X, y) regression instance by i.i.d. sampling, with the
sample count formula exposed under both published constant choices.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lad import LadProblem, solve_lad
from .linalg import DataError, as_vector
from .sketch import RngStream

__all__ = [
    "DistributionalInstance",
    "biased_hypercube_instance",
    "two_coin_instances",
    "hidden_coordinate_instance",
    "expected_loss",
    "sample_pairs",
    "reduction_sample_count",
    "reduce_to_matrix",
    "PlantedInstance",
    "make_outlier_instance",
    "make_isolated_instance",
]

FAMILIES = ("biased_hypercube", "two_coin", "hidden_coordinate")


@dataclass(frozen=True)
class DistributionalInstance:
    d: int
    family: str
    beta_star: np.ndarray
    bias: float
    hidden_index: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.d < 1:
            raise DataError("d must be at least 1")
        bs = as_vector(self.beta_star, length=self.d).copy()
        bs.setflags(write=False)
        object.__setattr__(self, "beta_star", bs)
        if self.family in ("biased_hypercube", "two_coin"):
            if not np.all(np.abs(bs) == 1.0):
                raise ValueError("beta_star must be a +-1 vector")
            if not (0 < self.bias < 0.5):
                raise DataError("bias must lie in (0, 1/2)")
        else:
            if self.hidden_index is None or not 0 <= self.hidden_index < self.d:
                raise DataError("hidden_index must name a coordinate")
            expected = np.zeros(self.d)
            expected[self.hidden_index] = 1.0
            if not np.array_equal(bs, expected):
                raise ValueError("beta_star must be the hidden basis vector")


def biased_hypercube_instance(d: int, bias: float, beta_star=None,
                              rng: RngStream | None = None) -> DistributionalInstance:
    if d < 1:
        raise DataError("d must be at least 1")
    if beta_star is None:
        if rng is None:
            raise ValueError("need beta_star or an rng to draw one")
        g = rng.generator()
        beta_star = np.where(g.random(d) < 0.5, -1.0, 1.0)
    return DistributionalInstance(d=d, family="biased_hypercube",
                                  beta_star=np.asarray(beta_star, dtype=np.float64),
                                  bias=bias)


def two_coin_instances(d: int, bias: float) -> tuple[DistributionalInstance,
                                                     DistributionalInstance]:
    """The all-minus-one and all-plus-one pair."""
    if d < 1:
        raise DataError("d must be at least 1")
    lo = DistributionalInstance(d=d, family="two_coin",
                                beta_star=-np.ones(d), bias=bias)
    hi = DistributionalInstance(d=d, family="two_coin",
                                beta_star=np.ones(d), bias=bias)
    return lo, hi


def hidden_coordinate_instance(d: int, hidden_index: int) -> DistributionalInstance:
    if not 0 <= hidden_index < d:
        raise DataError("hidden_index must name a coordinate")
    beta_star = np.zeros(d)
    beta_star[hidden_index] = 1.0
    return DistributionalInstance(d=d, family="hidden_coordinate",
                                  beta_star=beta_star, bias=0.25,
                                  hidden_index=hidden_index)


def expected_loss(inst: DistributionalInstance, beta) -> float:
    """Exact E |x^T beta - y| under the instance's distribution."""
    beta = as_vector(beta, length=inst.d)
    if inst.family in ("biased_hypercube", "two_coin"):
        hi = 0.5 + inst.bias
        lo = 0.5 - inst.bias
        terms = hi * np.abs(beta - inst.beta_star) + lo * np.abs(beta + inst.beta_star)
        return math.fsum(terms) / inst.d
    i = inst.hidden_index
    off = math.fsum(np.abs(np.delete(beta, i)))
    hit = (0.5 + inst.bias) * abs(1.0 - beta[i]) + (0.5 - inst.bias) * abs(beta[i])
    return (off + hit) / inst.d


def sample_pairs(inst: DistributionalInstance, m: int,
                 rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """m i.i.d. draws of (x, y); x rows are standard basis vectors."""
    if m < 1:
        raise ValueError("need at least one sample")
    g = rng.generator()
    idx = g.integers(0, inst.d, size=m)
    if inst.family in ("biased_hypercube", "two_coin"):
        z = np.where(g.random(m) < 0.5 + inst.bias, 1.0, -1.0)
    else:
        z = (g.random(m) < 0.5 + inst.bias).astype(np.float64)
    y = z * inst.beta_star[idx]
    X = np.zeros((m, inst.d))
    X[np.arange(m), idx] = 1.0
    return X, y


def reduction_sample_count(d: int, eps: float, delta: float,
                           constants: str = "proof") -> int:
    """Row count for the distribution-to-matrix reduction.

    Two published constant choices exist for the same bound; the "statement"
    variant is (2/eps^2)(log(2/delta) + d log(3d/eps)), the "proof" variant
    (the default) is (8/eps^2)(log(2/delta) + d log(4d/eps)).
    """
    if not (0 < eps < 1) or not (0 < delta < 1):
        raise DataError("eps and delta must lie in (0, 1)")
    if constants == "statement":
        value = (2.0 / eps**2) * (math.log(2.0 / delta) + d * math.log(3.0 * d / eps))
    elif constants == "proof":
        value = (8.0 / eps**2) * (math.log(2.0 / delta) + d * math.log(4.0 * d / eps))
    else:
        raise DataError("constants must be 'statement' or 'proof'")
    return int(math.ceil(value))


def reduce_to_matrix(inst: DistributionalInstance, eps: float, delta: float,
                     rng: RngStream,
                     constants: str = "proof") -> tuple[np.ndarray, np.ndarray]:
    """Emit a fixed regression instance whose (1+eps)-accurate solution is
    (1+6 eps)-accurate for the distribution, with failure probability 2 delta."""
    n = reduction_sample_count(inst.d, eps, delta, constants)
    return sample_pairs(inst, n, rng)


class PlantedInstance(NamedTuple):
    X: np.ndarray
    y: np.ndarray
    beta_star: np.ndarray
    opt: float


def make_outlier_instance(n: int, d: int, outlier_magnitude: float,
                          rng: RngStream, *, n_outliers: int = 1,
                          noise_scale: float = 1.0) -> PlantedInstance:
    """Gaussian design with a planted coefficient vector, additive noise, and
    a handful of huge label outliers. opt is the certified full-data minimum."""
    if d < 1:
        raise DataError("d must be at least 1")
    if n < d:
        raise DataError("need n >= d")
    if not 0 <= n_outliers <= n:
        raise DataError("n_outliers must lie in [0, n]")
    g = rng.generator()
    X = g.standard_normal((n, d))
    beta_star = g.standard_normal(d)
    y = X @ beta_star
    if noise_scale:
        y = y + noise_scale * g.standard_normal(n)
    if n_outliers and outlier_magnitude:
        rows = g.choice(n, size=n_outliers, replace=False)
        signs = np.where(g.random(n_outliers) < 0.5, -1.0, 1.0)
        y[rows] += outlier_magnitude * signs
    opt = solve_lad(LadProblem(X, y)).objective
    return PlantedInstance(X=X, y=y, beta_star=beta_star, opt=opt)


def make_isolated_instance(n: int, d: int, rng: RngStream, *,
                           magnitude: float = 10.0,
                           noise_scale: float = 0.05) -> PlantedInstance:
    """One row sits alone on the last coordinate; every other row lives on the
    first d-1 coordinates. Whoever skips that row learns nothing about the
    last coefficient, so its Lewis weight is 1 and uniform sampling struggles."""
    if d < 2 or n <= d:
        raise DataError("need d >= 2 and n > d")
    g = rng.generator()
    X = np.zeros((n, d))
    X[: n - 1, : d - 1] = g.standard_normal((n - 1, d - 1))
    X[n - 1, d - 1] = magnitude
    beta_star = g.standard_normal(d)
    y = X @ beta_star
    if noise_scale:
        y = y + noise_scale * g.standard_normal(n)
    opt = solve_lad(LadProblem(X, y)).objective
    return PlantedInstance(X=X, y=y, beta_star=beta_star, opt=opt)
