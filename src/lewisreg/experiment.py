"""Monte Carlo experiment harness: budget sweeps over sampling methods.

Every trial owns an independent RngStream derived from the spec seed, the
trial index, and the budget, so any single trial can be replayed in
isolation and a re-run of the whole spec reproduces the report byte for byte
(timing aside). Solver failures inside a trial (for example a rank-deficient
sketched problem when uniform sampling misses the only row spanning a
direction) count as failed trials, with no ratio.

The sampling weights depend only on the instance, never on a draw, so
run_experiment computes them once per spec: the Lewis weights of X for
"lewis", of [X y] for "known_y_augmented", the leverage scores of X for
"leverage_l2_baseline" (uniform needs none). Every trial reuses them; when
computing them fails numerically, every trial records that failure. Trials
still go through active_solve and sketch_and_solve_known_y, passing weights=,
so a trial draws the same rows as a one-shot call with the same stream.

Comparing methods means running one spec per method on one (instance, seed),
back to back in one process. run_experiment therefore memoizes the last
generated instance's preparation (the full LadProblem, X and y read-only,
and its meta) for the next spec on the same family fields and seed, resolved
through INSTANCE_FIELDS. Past the budget check, every spec solves an optimum
that is not planted; timing["instance_seconds"] includes that solve. File
instances are read afresh by every spec; materialize_instance caches nothing.
"""

import copy
import functools
import math
import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, active
from .active import (
    InMemoryLabelOracle,
    active_solve,
    sample_and_solve,
    sketch_and_solve_known_y,
)
from .dataio import read_labels, read_matrix_csv, write_json
from .instances import (
    biased_hypercube_instance,
    hidden_coordinate_instance,
    make_isolated_instance,
    make_outlier_instance,
    reduce_to_matrix,
    two_coin_instances,
)
from .lad import LadProblem, l1_norm, objective, solve_lad
from .lewis import SAMPLING_TOL, ConvergenceError, sampling_values
from .linalg import DataError, RankDeficiencyError, WeightVector, leverage_scores
from .sketch import RngStream

__all__ = [
    "METHODS",
    "ExperimentSpec",
    "ExperimentReport",
    "trial_stream",
    "run_experiment",
    "wilson_interval",
]

METHODS = ("lewis", "uniform", "leverage_l2_baseline", "known_y_augmented")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a sweep needs: the instance, the method, budgets, trial
    count, tolerance pair, and the master seed."""

    instance: dict
    method: str
    budgets: list[int]
    eps: float
    delta: float
    trials: int
    seed: int
    output: str | None = None
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.instance, dict):
            raise DataError(f"instance must be a JSON object, got {self.instance!r}")
        if self.method not in METHODS:
            raise DataError(f"unknown method {self.method!r}; choose from {METHODS}")
        for name in ("trials", "seed", "workers"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.output is not None:
            _text("output", self.output)
        if self.trials < 1:
            raise DataError("trials must be at least 1")
        if not self.budgets:
            raise DataError("need at least one budget")
        object.__setattr__(self, "budgets",
                           [_integer("budgets entry", b) for b in self.budgets])
        if self.budgets != sorted(self.budgets):
            raise DataError("budgets must be sorted ascending")
        if len(set(self.budgets)) != len(self.budgets):
            raise DataError("budgets must not repeat")
        # the reals are checked, not stored converted, so the report keeps them as given
        eps, delta = _real("eps", self.eps), _real("delta", self.delta)
        if not (0 < eps < 1) or not (0 < delta < 1):
            raise DataError("eps and delta must lie in (0, 1)")
        if self.workers < 1:
            raise DataError("workers must be at least 1")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentSpec":
        if not isinstance(obj, dict):
            raise DataError(f"spec must be a JSON object, got {obj!r}")
        extra = set(obj) - set(cls.__dataclass_fields__)
        if extra:
            raise DataError(f"unknown spec fields: {sorted(extra)}")
        try:
            return cls(**obj)
        except TypeError as e:  # a missing field, or budgets that are not a list
            raise DataError(f"malformed spec: {e}") from None


def trial_stream(seed: int, trial: int, budget: int) -> RngStream:
    """The random stream owned by one (trial, budget) cell."""
    return RngStream(seed).derive("trial", trial, "budget", budget)


def _integer(name: str, value) -> int:
    """value as an int; DataError for bools, strings and numbers with a
    fractional part, so a field never silently truncates or parses text."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1:
        raise DataError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """value as a float; DataError for bools, strings and other non-numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _text(name: str, value) -> str:
    """value if it is a string; DataError otherwise, so that a number is
    never taken for a file descriptor or a path prefix."""
    if not isinstance(value, str):
        raise DataError(f"{name} must be a string, got {value!r}")
    return value


def _constants(name: str, value) -> str:
    """value if it names one of the reduction's two constant choices;
    DataError otherwise."""
    if not isinstance(value, str) or value not in ("statement", "proof"):
        raise DataError("constants must be 'statement' or 'proof'")
    return value


def _field(desc: dict, key: str, kind, default=None):
    """desc[key], or the default when one is given, converted by kind;
    DataError when a required field is missing or a value does not convert."""
    if default is None and key not in desc:
        raise DataError(f"instance descriptor has no {key!r} field")
    return kind(f"instance field {key!r}:", desc.get(key, default))


_REDUCTION = {"reduction_eps": (_real, 0.2), "reduction_delta": (_real, 0.1),
              "constants": (_constants, "proof")}

# For each generated family, the descriptor fields it reads beside "family",
# in reading order, as key: (converter, default). A None default marks a
# required field. materialize_instance and gen both read it.
INSTANCE_FIELDS = {
    "outlier": {"n": (_integer, None), "d": (_integer, None),
                "outlier_magnitude": (_real, 1e6), "n_outliers": (_integer, 1),
                "noise_scale": (_real, 1.0)},
    "isolated": {"n": (_integer, None), "d": (_integer, None),
                 "magnitude": (_real, 10.0), "noise_scale": (_real, 0.05)},
    "biased_hypercube": {"d": (_integer, None), "bias": (_real, 0.1), **_REDUCTION},
    "two_coin": {"d": (_integer, None), "bias": (_real, 0.1), "which": (_integer, 0),
                 **_REDUCTION},
    "hidden_coordinate": {"d": (_integer, None), "hidden_index": (_integer, 0),
                          **_REDUCTION},
}


def generate_instance(family: str, fields: dict, rng: RngStream):
    """(X, y, beta_star, opt) of a generated family from its resolved fields
    (every key INSTANCE_FIELDS lists for it). opt is the certified full-data
    optimum of the planted families and None for the reduced ones."""
    if family == "outlier":
        return make_outlier_instance(rng=rng, **fields)
    if family == "isolated":
        return make_isolated_instance(rng=rng, **fields)
    if family == "biased_hypercube":
        dist = biased_hypercube_instance(fields["d"], fields["bias"], rng=rng)
    elif family == "two_coin":
        if fields["which"] not in (0, 1):
            raise DataError("which must be 0 or 1")
        dist = two_coin_instances(fields["d"], fields["bias"])[fields["which"]]
    else:
        dist = hidden_coordinate_instance(fields["d"], fields["hidden_index"])
    X, y = reduce_to_matrix(dist, fields["reduction_eps"], fields["reduction_delta"],
                            rng.derive("reduction"), constants=fields["constants"])
    return X, y, dist.beta_star, None


def _refuse_unread(desc: dict, fields, what: str) -> None:
    """DataError naming every descriptor key outside fields, so a misspelt
    optional field is refused instead of silently taking its default."""
    extra = set(desc) - set(fields)
    if extra:
        raise DataError(f"unknown instance fields for {what}: "
                        f"{sorted(map(str, extra))}; it reads {sorted(fields)}")


def _is_file_instance(desc: dict) -> bool:
    return "x_file" in desc or "y_file" in desc


def _family_fields(desc: dict) -> tuple[str, dict]:
    """(family, fields) of a generating descriptor, read through INSTANCE_FIELDS."""
    family = desc.get("family")
    if not isinstance(family, str) or family not in INSTANCE_FIELDS:
        raise DataError(f"unrecognized instance descriptor: {desc!r}")
    table = INSTANCE_FIELDS[family]
    _refuse_unread(desc, ("family", *table), f"family {family!r}")
    return family, {key: _field(desc, key, kind, default)
                    for key, (kind, default) in table.items()}


def materialize_instance(desc: dict, seed: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Build (X, y) from an instance descriptor, plus provenance metadata.

    Descriptors: {"x_file":..., "y_file":...} loads files; {"family": ...}
    generates, with the instance drawn from a dedicated substream of the seed.
    A key the descriptor's kind does not read is refused. Every call builds
    fresh, writable arrays.
    """
    if _is_file_instance(desc):
        _refuse_unread(desc, ("x_file", "y_file"), "file instances")
        if "x_file" not in desc or "y_file" not in desc:
            raise DataError("file instances need both x_file and y_file")
        x_file, y_file = (_field(desc, key, _text) for key in ("x_file", "y_file"))
        X = read_matrix_csv(x_file)
        y = read_labels(y_file)
        if y.shape[0] != X.shape[0]:
            raise DataError(f"{y_file}: {y.shape[0]} labels for {X.shape[0]} rows")
        return X, y, {"source": {"x_file": x_file, "y_file": y_file}}

    family, fields = _family_fields(desc)
    X, y, beta_star, opt = generate_instance(family, fields,
                                             RngStream(seed).derive("instance"))
    if opt is None:
        return X, y, {"beta_star": [float(v) for v in beta_star]}
    return X, y, {"opt": opt}


def _prepare_instance(desc: dict, seed: int) -> tuple[LadProblem, dict]:
    """The full problem, A and b read-only, and the instance's meta, which
    callers copy and do not write. Consecutive calls for one generated
    instance share both; file instances are prepared afresh, and a call that
    raises caches nothing."""
    if _is_file_instance(desc):
        return _prepare(desc, seed)
    family, fields = _family_fields(desc)
    return _prepare_generated(family, tuple(fields.items()), seed)


@functools.lru_cache(maxsize=1)  # one entry bounds the memory to one instance
def _prepare_generated(family: str, fields: tuple, seed: int) -> tuple[LadProblem, dict]:
    # the resolved fields are a descriptor that materialize_instance reads alike
    return _prepare({"family": family, **dict(fields)}, seed)


def _prepare(desc: dict, seed: int) -> tuple[LadProblem, dict]:
    X, y, meta = materialize_instance(desc, seed)
    prob = LadProblem(X, y)
    prob.A.setflags(write=False)
    prob.b.setflags(write=False)
    return prob, meta


def wilson_interval(successes: int, n: int):
    """95 percent Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
    z = 1.959963984540054  # the 97.5th percentile of the standard normal
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _sampling_weights(method, X, y) -> WeightVector | None:
    """The importance values a method samples by, once per spec; None for
    uniform. Looked up on lewisreg.active, where perfbench/spans.py wraps it."""
    if method == "lewis":
        return active.lewis_weights(X, SAMPLING_TOL)
    if method == "known_y_augmented":
        return active.augmented_lewis_weights(X, y)
    if method == "leverage_l2_baseline":
        return leverage_scores(X)
    return None


def _record(budget, trial, opt, error=None) -> dict:
    return {
        "budget": budget,
        "trial": trial,
        "draws": budget,
        "distinct_labels": None,
        "objective": None,
        "opt": opt,
        "ratio": None,
        "success": False,
        "status": None,
        "error": error,
    }


def _failure(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def _run_trial(prob, opt, method, weights, eps, delta, seed, budget, trial):
    X, y = prob.A, prob.b
    rng = trial_stream(seed, trial, budget)
    record = _record(budget, trial, opt)
    try:
        if method == "lewis":
            res = active_solve(X, InMemoryLabelOracle(y), eps, delta, rng,
                               budget_override=budget, weights=weights)
        elif method == "uniform":
            n = X.shape[0]
            p = WeightVector(np.full(n, budget / n), kind="sampling",
                             budget=float(budget))
            res = sample_and_solve(X, InMemoryLabelOracle(y), p, rng)
        elif method == "leverage_l2_baseline":
            res = sample_and_solve(X, InMemoryLabelOracle(y),
                                   sampling_values(weights, budget), rng)
        elif method == "known_y_augmented":
            res = sketch_and_solve_known_y(X, y, eps, delta, rng,
                                           budget_override=budget, weights=weights)
        else:
            raise ValueError(f"unknown method {method!r}")
    except (RankDeficiencyError, ConvergenceError) as e:
        # e.g. a sketch that misses every row spanning some direction; the
        # trial failed to produce an estimate, which counts as a failure.
        # Any other error is a bug and propagates.
        record["error"] = _failure(e)
        return record

    obj = objective(prob, res.beta_hat)
    if opt > 0:
        ratio = obj / opt
        success = ratio <= 1.0 + eps
    else:
        ratio = None  # a zero-optimum instance has no meaningful ratio
        success = obj <= 1e-8 * max(1.0, l1_norm(y))
    record["distinct_labels"] = res.labels_queried
    record["objective"] = obj
    record["ratio"] = ratio
    record["success"] = bool(success)
    record["status"] = res.solver_status
    return record


@dataclass
class ExperimentReport:
    spec: dict
    environment: dict
    trials: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def write(self, prefix: str) -> None:
        """Write <prefix>.report.json, the whole report, and <prefix>.curve.csv,
        one row per budget with the mean ratio left empty when no trial has one."""
        write_json(f"{prefix}.report.json", self.to_json_dict())
        with open(f"{prefix}.curve.csv", "w", encoding="utf-8") as fh:
            fh.write("budget,success_rate,ci_low,ci_high,mean_ratio\n")
            for a in self.aggregates:
                mr = "" if a["mean_ratio"] is None else repr(a["mean_ratio"])
                fh.write(f"{a['budget']},{a['success_rate']!r},{a['ci_low']!r},"
                         f"{a['ci_high']!r},{mr}\n")


def _aggregate(budget: int, records: list[dict]) -> dict:
    n = len(records)
    successes = sum(1 for r in records if r["success"])
    lo, hi = wilson_interval(successes, n)
    finite = [r["ratio"] for r in records if r["ratio"] is not None
              and np.isfinite(r["ratio"])]
    mean_ratio = float(np.mean(finite)) if finite else None
    median_ratio = float(np.median(finite)) if finite else None
    labels = [r["distinct_labels"] for r in records if r["distinct_labels"]]
    return {
        "budget": budget,
        "trials": n,
        "successes": successes,
        "success_rate": successes / n,
        "ci_low": lo,
        "ci_high": hi,
        "mean_ratio": mean_ratio,
        "median_ratio": median_ratio,
        "mean_distinct_labels": float(np.mean(labels)) if labels else None,
        "failed_trials": sum(1 for r in records if r["error"] is not None),
    }


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    t0 = time.perf_counter()
    prob, meta = _prepare_instance(spec.instance, spec.seed)
    X, y = prob.A, prob.b
    d = X.shape[1]
    if spec.budgets[0] < d:
        raise DataError(f"budget {spec.budgets[0]} below column count {d}; refused")
    opt = float(meta["opt"]) if "opt" in meta else solve_lad(prob).objective
    instance_seconds = time.perf_counter() - t0

    # in (budget, trial) order, which both maps below keep
    cells = [(budget, trial) for budget in spec.budgets for trial in range(spec.trials)]
    try:
        weights = _sampling_weights(spec.method, X, y)
    except (RankDeficiencyError, ConvergenceError) as e:
        # every trial would have computed these same weights and failed alike
        results = [_record(budget, trial, opt, _failure(e)) for budget, trial in cells]
    else:
        run_trial = functools.partial(_run_trial, prob, opt, spec.method, weights,
                                      spec.eps, spec.delta, spec.seed)
        columns = zip(*cells)  # the budgets, then the trial indices
        if spec.workers > 1:
            # imported here, not at the top: it adds 12-18 ms to every CLI start
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=spec.workers) as pool:
                results = list(pool.map(run_trial, *columns, chunksize=1))
        else:
            results = list(map(run_trial, *columns))

    aggregates = [
        _aggregate(budget, [r for r in results if r["budget"] == budget])
        for budget in spec.budgets
    ]
    report = ExperimentReport(
        spec=spec.to_json_dict(),
        environment={
            "version": __version__,
            "seed": spec.seed,
            "n": int(X.shape[0]),
            "d": int(X.shape[1]),
            "opt": opt,
            "instance_meta": {**copy.deepcopy(meta), "opt": opt},
        },
        trials=results,
        aggregates=aggregates,
        timing={"total_seconds": time.perf_counter() - t0,
                "instance_seconds": instance_seconds},
    )
    return report
