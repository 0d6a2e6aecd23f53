"""End-to-end label-efficient LAD regression.

The pipeline: Lewis weights of the unlabeled design matrix -> sampling values
summing to the budget -> one sketch draw -> label queries for the drawn rows
only (deduplicated) -> weighted LAD on the sketched problem. The set of
queried indices depends only on (X, stream, budget), never on any label, so
the strategy is nonadaptive.

A known-label variant samples by the Lewis weights of the augmented matrix
[X y] instead, which sees label outliers and therefore carries the stronger
fixed-factor guarantee for eps < 1/3.

Both sample by Lewis weights certified to SAMPLING_TOL and enlarge a
recommended budget to match (see lewisreg.lewis). The weights depend only on
X (or on [X y]), never on the draw, so a caller making many draws from one
design computes them once and passes them in as weights=.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataio import parse_real, text_lines
from .lad import LadProblem, solve_lad
from .lewis import SAMPLING_TOL, lewis_weights, recommended_budget, sampling_values
from .linalg import (
    DataError,
    WeightVector,
    as_design_matrix,
    as_vector,
    orthonormal_column_basis,
)
from .sketch import RngStream, Sketch, draw_sketch

__all__ = [
    "LabelOracle",
    "InMemoryLabelOracle",
    "FileBackedLabelOracle",
    "ActiveResult",
    "sample_and_solve",
    "active_solve",
    "sketch_and_solve_known_y",
    "augmented_lewis_weights",
]


class LabelOracle:
    """Access path to the hidden labels: answers y_i one index at a time.

    Every call is logged; repeated queries of the same index return the cached
    first answer. Subclasses implement _lookup and report their length via n.
    """

    def __init__(self):
        self._cache: dict[int, float] = {}
        self.query_log: list[int] = []

    @property
    def n(self) -> int:
        raise NotImplementedError

    def _lookup(self, i: int) -> float:
        raise NotImplementedError

    def query(self, i: int) -> float:
        i = int(i)
        if not 0 <= i < self.n:
            raise IndexError(f"label index {i} out of range [0, {self.n})")
        self.query_log.append(i)
        if i not in self._cache:
            self._cache[i] = float(self._lookup(i))
        return self._cache[i]


class InMemoryLabelOracle(LabelOracle):
    """Oracle over an in-memory label vector (for experiments)."""

    def __init__(self, y):
        super().__init__()
        self._y = as_vector(y)

    @property
    def n(self) -> int:
        return self._y.shape[0]

    def _lookup(self, i: int) -> float:
        return self._y[i]


class FileBackedLabelOracle(LabelOracle):
    """Oracle over a labels file, one real per line, parsed lazily.

    Construction reads the file's nonblank lines (dataio.text_lines, the
    reader read_labels uses too) without parsing any value; each distinct
    query then parses exactly one line. lines_read counts parsed label lines.
    """

    def __init__(self, path):
        super().__init__()
        self._path = str(path)
        self._lines = text_lines(path)
        self.lines_read = 0

    @property
    def n(self) -> int:
        return len(self._lines)

    def _lookup(self, i: int) -> float:
        self.lines_read += 1
        return parse_real(self._path, *self._lines[i])


@dataclass(frozen=True)
class ActiveResult:
    beta_hat: np.ndarray
    n_draws: int
    labels_queried: int
    sketch: Sketch
    solver_status: str
    sketched_objective: float


def sample_and_solve(X, oracle: LabelOracle, values: WeightVector,
                     rng: RngStream) -> ActiveResult:
    """Draw a sketch from sampling values, query each distinct drawn index
    once, and minimize the reweighted sketched objective.

    The one draw-query-solve step: active_solve and sketch_and_solve_known_y
    call it with Lewis sampling values, the baseline samplers directly.
    Repeated draws of a row cost a single label query and enter the solve as
    one row whose weight is the sum of their scales, the same objective.
    """
    X = as_design_matrix(X)
    if oracle.n != X.shape[0]:
        raise ValueError("oracle length does not match the design matrix")
    if len(values) != X.shape[0]:
        raise ValueError("sampling values length does not match the design matrix")
    return _sample_and_solve(X, oracle, values, rng)


def _sample_and_solve(X: np.ndarray, oracle: LabelOracle, values: WeightVector,
                      rng: RngStream) -> ActiveResult:
    """sample_and_solve on an X already validated, of the oracle's length."""
    if values.kind != "sampling":
        raise ValueError("expected sampling values")
    N = int(round(values.budget))
    if N < X.shape[1]:
        raise DataError(f"budget {N} below column count {X.shape[1]}; refused")
    S = draw_sketch(values, rng)
    distinct, draw_of = np.unique(S.indices, return_inverse=True)
    y = np.array([oracle.query(int(i)) for i in distinct])
    sol = solve_lad(LadProblem(X[distinct], y,
                               row_weights=np.bincount(draw_of, weights=S.scales)))
    return ActiveResult(beta_hat=sol.beta, n_draws=S.n_draws,
                        labels_queried=int(distinct.size), sketch=S,
                        solver_status=sol.status,
                        sketched_objective=sol.objective)


def _budget(eps: float, delta: float, regime: str, budget_override: int | None,
            k: int, d: int) -> int:
    """budget_override exactly, or recommended_budget for k importance columns
    over (1 - SAMPLING_TOL)^2, so that no row's expected draw count falls below
    what exact weights would give it; refused below the column count d of X.
    Checked before any weights."""
    if not (0 < eps < 1) or not (0 < delta < 1):
        raise DataError("eps and delta must lie in (0, 1)")
    N = budget_override if budget_override is not None else math.ceil(
        recommended_budget(k, eps, delta, regime) / (1 - SAMPLING_TOL) ** 2)
    if N < d:
        raise DataError(f"budget {N} below column count {d}; refused")
    return N


def _given_weights(weights: WeightVector, n: int) -> WeightVector:
    """weights, checked to be Lewis weights of n rows."""
    if not isinstance(weights, WeightVector) or weights.kind != "lewis" or len(weights) != n:
        raise ValueError(f"weights must be a WeightVector of kind 'lewis' and length {n}")
    return weights


def active_solve(X, oracle: LabelOracle, eps: float, delta: float,
                 rng: RngStream, regime: str = "high_prob",
                 budget_override: int | None = None,
                 weights: WeightVector | None = None) -> ActiveResult:
    """Label-efficient LAD solve by Lewis-weight sampling.

    Scales the Lewis weights of X (computed here to SAMPLING_TOL unless given
    as weights) to sampling values summing to the budget (recommended_budget(d,
    eps, delta, regime) oversampled for that tolerance, unless overridden) and
    hands them to the step of sample_and_solve. The entries of X are checked
    once, here; lewis_weights checks them again only through its first Gram,
    at no extra pass.
    """
    X = as_design_matrix(X)
    n, d = X.shape
    if oracle.n != n:
        raise ValueError("oracle length does not match the design matrix")
    N = _budget(eps, delta, regime, budget_override, d, d)
    w = lewis_weights(X, SAMPLING_TOL) if weights is None else _given_weights(weights, n)
    return _sample_and_solve(X, oracle, sampling_values(w, N), rng)


def augmented_lewis_weights(X, y) -> WeightVector:
    """Lewis weights of the augmented matrix [X y] to SAMPLING_TOL, the
    known-label sampler."""
    X = as_design_matrix(X)
    y = as_vector(y, length=X.shape[0])
    # weights depend only on the column space, so a basis substitutes for
    # [X y] itself when y already lies in the span of X
    return lewis_weights(orthonormal_column_basis(np.hstack([X, y[:, None]])), SAMPLING_TOL)


def sketch_and_solve_known_y(X, y, eps: float, delta: float, rng: RngStream,
                             regime: str = "high_prob",
                             budget_override: int | None = None,
                             weights: WeightVector | None = None) -> ActiveResult:
    """Sketch-and-solve with all labels available.

    Samples by the Lewis weights of the augmented matrix [X y]
    (augmented_lewis_weights, unless given as weights), so rows whose labels
    dominate the residual geometry are seen by the sampler. For eps < 1/3 the
    sketched minimizer is within a (1 + 4 eps) factor; larger eps samples
    the same way, without that guarantee.
    """
    X = as_design_matrix(X)
    y = as_vector(y, length=X.shape[0])
    n, d = X.shape
    N = _budget(eps, delta, regime, budget_override, d + 1, d)
    w = augmented_lewis_weights(X, y) if weights is None else _given_weights(weights, n)
    return _sample_and_solve(X, InMemoryLabelOracle(y), sampling_values(w, N), rng)
