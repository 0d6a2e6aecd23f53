"""Monte Carlo experiment harness: budget sweeps over sampling methods.

Every trial owns an independent RngStream derived from the spec seed, the
trial index, and the budget, so any single trial can be replayed in
isolation and a re-run of the whole spec reproduces the report byte for byte
(timing aside). Solver failures inside a trial (for example a rank-deficient
sketched problem when uniform sampling misses the only row spanning a
direction) count as failed trials with an infinite ratio.

The sampling weights depend only on the instance, never on a draw, so
run_experiment computes them once per spec: the Lewis weights of X for
"lewis", of [X y] for "known_y_augmented", the leverage scores of X for
"leverage_l2_baseline" (uniform needs none). Every trial reuses them; when
computing them fails numerically, every trial records that failure. Trials
still go through active_solve and sketch_and_solve_known_y, passing weights=,
so a trial draws the same rows as a one-shot call with the same stream.

Comparing methods means running one spec per method on one (instance, seed),
back to back in one process. run_experiment therefore keeps the last
generated instance: the next spec on the same descriptor and seed reuses its
X, y (read-only) and its planted reference optimum instead of generating the
instance and solving it again. The report says how long preparing the
instance took in timing["instance_seconds"]; nothing else in it changes.
File instances are read afresh by every spec, and materialize_instance
itself caches nothing.
"""

import copy
import json
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
from .lewis import ConvergenceError, sampling_values
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
    solver_tol: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.instance, dict):
            raise DataError(f"instance must be a JSON object, got {self.instance!r}")
        if self.method not in METHODS:
            raise DataError(f"unknown method {self.method!r}; choose from {METHODS}")
        for name in ("trials", "seed", "workers"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.trials < 1:
            raise DataError("trials must be at least 1")
        if not self.budgets:
            raise DataError("need at least one budget")
        object.__setattr__(self, "budgets",
                           [_as_int("budgets entry", b) for b in self.budgets])
        if self.budgets != sorted(self.budgets):
            raise DataError("budgets must be sorted ascending")
        if len(set(self.budgets)) != len(self.budgets):
            raise DataError("budgets must not repeat")
        if not (0 < self.eps < 1) or not (0 < self.delta < 1):
            raise DataError("eps and delta must lie in (0, 1)")
        if self.workers < 1:
            raise DataError("workers must be at least 1")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentSpec":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise DataError(f"unknown spec fields: {sorted(extra)}")
        try:
            return cls(**obj)
        except DataError:
            raise
        except (TypeError, ValueError) as e:  # a field of the wrong type
            raise DataError(f"malformed spec: {e}") from None


def _as_int(name: str, value) -> int:
    """value as an int; DataError for anything but an integer (bools and
    integral floats included), so a spec never silently truncates."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer, got {value!r}")
    return int(value)


def trial_stream(seed: int, trial: int, budget: int) -> RngStream:
    """The random stream owned by one (trial, budget) cell."""
    return RngStream(seed).derive("trial", trial, "budget", budget)


def _field(desc: dict, key: str, kind, default=None):
    """desc[key], or the default when one is given, converted by kind;
    DataError when a required field is missing or a value does not convert."""
    try:
        return kind(desc[key] if default is None else desc.get(key, default))
    except KeyError:
        raise DataError(f"instance descriptor has no {key!r} field") from None
    except (TypeError, ValueError) as e:
        raise DataError(f"instance field {key!r}: {e}") from None


_REDUCTION_FIELDS = ("reduction_eps", "reduction_delta", "constants")

# the descriptor fields each generated family reads, beside "family"
_FAMILY_FIELDS = {
    "outlier": ("n", "d", "outlier_magnitude", "n_outliers", "noise_scale"),
    "isolated": ("n", "d", "magnitude", "noise_scale"),
    "biased_hypercube": ("d", "bias") + _REDUCTION_FIELDS,
    "two_coin": ("d", "bias", "which") + _REDUCTION_FIELDS,
    "hidden_coordinate": ("d", "hidden_index") + _REDUCTION_FIELDS,
}


def _refuse_unread(desc: dict, fields, what: str) -> None:
    """DataError naming every descriptor key outside fields, so a misspelt
    optional field is refused instead of silently taking its default."""
    extra = set(desc) - set(fields)
    if extra:
        raise DataError(f"unknown instance fields for {what}: "
                        f"{sorted(map(str, extra))}; it reads {sorted(fields)}")


def _is_file_instance(desc: dict) -> bool:
    return "x_file" in desc or "y_file" in desc


def materialize_instance(desc: dict, seed: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Build (X, y) from an instance descriptor, plus provenance metadata.

    Descriptors: {"x_file":..., "y_file":...} loads files; {"family": ...}
    generates, with the instance drawn from a dedicated substream of the seed.
    A key the descriptor's kind does not read is refused. Every call builds
    fresh, writable arrays.
    """
    meta: dict = {}
    if _is_file_instance(desc):
        _refuse_unread(desc, ("x_file", "y_file"), "file instances")
        if "x_file" not in desc or "y_file" not in desc:
            raise DataError("file instances need both x_file and y_file")
        X = read_matrix_csv(desc["x_file"])
        y = read_labels(desc["y_file"])
        if y.shape[0] != X.shape[0]:
            raise DataError("label count does not match row count")
        meta["source"] = {"x_file": desc["x_file"], "y_file": desc["y_file"]}
        return X, y, meta

    family = desc.get("family")
    if not isinstance(family, str) or family not in _FAMILY_FIELDS:
        raise DataError(f"unrecognized instance descriptor: {desc!r}")
    _refuse_unread(desc, ("family",) + _FAMILY_FIELDS[family], f"family {family!r}")
    rng = RngStream(seed).derive("instance")
    if family == "outlier":
        inst = make_outlier_instance(
            _field(desc, "n", int), _field(desc, "d", int),
            _field(desc, "outlier_magnitude", float, 1e6), rng,
            n_outliers=_field(desc, "n_outliers", int, 1),
            noise_scale=_field(desc, "noise_scale", float, 1.0),
        )
        meta["opt"] = inst.opt
        return inst.X, inst.y, meta
    if family == "isolated":
        inst = make_isolated_instance(
            _field(desc, "n", int), _field(desc, "d", int), rng,
            magnitude=_field(desc, "magnitude", float, 10.0),
            noise_scale=_field(desc, "noise_scale", float, 0.05),
        )
        meta["opt"] = inst.opt
        return inst.X, inst.y, meta
    d = _field(desc, "d", int)
    if family == "biased_hypercube":
        dist = biased_hypercube_instance(d, _field(desc, "bias", float), rng=rng)
    elif family == "two_coin":
        which = _field(desc, "which", int, 0)
        if which not in (0, 1):
            raise DataError("which must be 0 or 1")
        dist = two_coin_instances(d, _field(desc, "bias", float))[which]
    else:
        dist = hidden_coordinate_instance(d, _field(desc, "hidden_index", int, 0))
    X, y = reduce_to_matrix(
        dist, _field(desc, "reduction_eps", float, 0.2),
        _field(desc, "reduction_delta", float, 0.1),
        rng.derive("reduction"),
        constants=desc.get("constants", "proof"),
    )
    meta["beta_star"] = [float(v) for v in dist.beta_star]
    return X, y, meta


# (key, X, y, meta) of the last generated instance run_experiment prepared.
# Module state, not an argument: callers run one spec per method through the
# unchanged run_experiment(spec). One entry bounds the memory to one instance.
_last_instance = None


def _prepare_instance(desc: dict, seed: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """materialize_instance(desc, seed), reusing the last generated instance
    when desc and seed match it. Its X and y are shared read-only; meta is a
    fresh copy per call, since run_experiment writes into it. File instances
    are read afresh every time, and a call that raises caches nothing."""
    global _last_instance
    if _is_file_instance(desc):
        return materialize_instance(desc, seed)
    try:
        key = (json.dumps(desc, sort_keys=True, default=repr), seed)
    except TypeError:  # keys of mixed types do not sort; materialize refuses them
        return materialize_instance(desc, seed)
    entry = _last_instance  # one read, so another thread's entry never mixes in
    if entry is None or entry[0] != key:
        # built from desc itself, not the key, so numpy scalars keep working
        X, y, meta = materialize_instance(desc, seed)
        X.setflags(write=False)
        y.setflags(write=False)
        entry = _last_instance = (key, X, y, meta)
    _, X, y, meta = entry
    return X, y, copy.deepcopy(meta)


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054):
    """95 percent Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
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
        return active.lewis_weights(X)
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


def _run_trial(X, y, opt, method, weights, budget, eps, delta, trial, seed,
               solver_tol):
    rng = trial_stream(seed, trial, budget)
    record = _record(budget, trial, opt)
    try:
        if method == "lewis":
            res = active_solve(X, InMemoryLabelOracle(y), eps, delta, rng,
                               budget_override=budget, solver_tol=solver_tol,
                               weights=weights)
        elif method == "uniform":
            n = X.shape[0]
            p = WeightVector(np.full(n, budget / n), kind="sampling",
                             budget=float(budget))
            res = sample_and_solve(X, InMemoryLabelOracle(y), p, rng,
                                   solver_tol=solver_tol)
        elif method == "leverage_l2_baseline":
            res = sample_and_solve(X, InMemoryLabelOracle(y),
                                   sampling_values(weights, budget), rng,
                                   solver_tol=solver_tol)
        elif method == "known_y_augmented":
            res = sketch_and_solve_known_y(X, y, eps, delta, rng,
                                           budget_override=budget,
                                           enforce_guarantee=False,
                                           solver_tol=solver_tol,
                                           weights=weights)
        else:
            raise ValueError(f"unknown method {method!r}")
    except (RankDeficiencyError, ConvergenceError) as e:
        # e.g. a sketch that misses every row spanning some direction; the
        # trial failed to produce an estimate, which counts as a failure.
        # Any other error is a bug and propagates.
        record["error"] = _failure(e)
        return record

    obj = objective(LadProblem(X, y), res.beta_hat)
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


def _trial_task(args):
    return _run_trial(*args)


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
    X, y, meta = _prepare_instance(spec.instance, spec.seed)
    instance_seconds = time.perf_counter() - t0
    d = X.shape[1]
    if spec.budgets[0] < d:
        raise DataError(f"budget {spec.budgets[0]} below column count {d}; refused")
    if "opt" in meta:
        opt = float(meta["opt"])
    else:
        opt = solve_lad(LadProblem(X, y), tol=spec.solver_tol).objective
        meta["opt"] = opt

    cells = [(budget, trial) for budget in spec.budgets for trial in range(spec.trials)]
    try:
        weights = _sampling_weights(spec.method, X, y)
    except (RankDeficiencyError, ConvergenceError) as e:
        # every trial would have computed these same weights and failed alike
        results = [_record(budget, trial, opt, _failure(e)) for budget, trial in cells]
    else:
        tasks = [(X, y, opt, spec.method, weights, budget, spec.eps, spec.delta,
                  trial, spec.seed, spec.solver_tol) for budget, trial in cells]
        if spec.workers > 1:
            # imported here, not at the top: it adds 12-18 ms to every CLI start
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=spec.workers) as pool:
                results = list(pool.map(_trial_task, tasks, chunksize=1))
        else:
            results = [_run_trial(*t) for t in tasks]
    results.sort(key=lambda r: (r["budget"], r["trial"]))

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
            "instance_meta": meta,
        },
        trials=results,
        aggregates=aggregates,
        timing={"total_seconds": time.perf_counter() - t0,
                "instance_seconds": instance_seconds},
    )
    return report
