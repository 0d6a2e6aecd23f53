"""Monte Carlo experiment harness: budget sweeps over sampling methods.

Every trial owns an independent RngStream derived from the spec seed, the
trial index, and the budget, so any single trial can be replayed in
isolation and a re-run of the whole spec reproduces the report byte for byte
(timing aside). Solver failures inside a trial (for example a rank-deficient
sketched problem when uniform sampling misses the only row spanning a
direction) count as failed trials with an infinite ratio.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
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
        if self.method not in METHODS:
            raise DataError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.trials < 1:
            raise DataError("trials must be at least 1")
        if not self.budgets:
            raise DataError("need at least one budget")
        if list(self.budgets) != sorted(self.budgets):
            raise DataError("budgets must be sorted ascending")
        if not (0 < self.eps < 1) or not (0 < self.delta < 1):
            raise DataError("eps and delta must lie in (0, 1)")
        if self.workers < 1:
            raise DataError("workers must be at least 1")
        object.__setattr__(self, "budgets", [int(b) for b in self.budgets])

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


def materialize_instance(desc: dict, seed: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Build (X, y) from an instance descriptor, plus provenance metadata.

    Descriptors: {"x_file":..., "y_file":...} loads files; {"family": ...}
    generates, with the instance drawn from a dedicated substream of the seed.
    """
    meta: dict = {}
    if "x_file" in desc or "y_file" in desc:
        if "x_file" not in desc or "y_file" not in desc:
            raise DataError("file instances need both x_file and y_file")
        X = read_matrix_csv(desc["x_file"])
        y = read_labels(desc["y_file"])
        if y.shape[0] != X.shape[0]:
            raise DataError("label count does not match row count")
        meta["source"] = {"x_file": desc["x_file"], "y_file": desc["y_file"]}
        return X, y, meta

    rng = RngStream(seed).derive("instance")
    family = desc.get("family")
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
    if family in ("biased_hypercube", "two_coin", "hidden_coordinate"):
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
    raise DataError(f"unrecognized instance descriptor: {desc!r}")


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


def _run_trial(X, y, opt, method, budget, eps, delta, trial, seed, solver_tol):
    rng = trial_stream(seed, trial, budget)
    record = {
        "budget": budget,
        "trial": trial,
        "draws": budget,
        "distinct_labels": None,
        "objective": None,
        "opt": opt,
        "ratio": None,
        "success": False,
        "status": None,
        "error": None,
    }
    try:
        if method == "lewis":
            res = active_solve(X, InMemoryLabelOracle(y), eps, delta, rng,
                               budget_override=budget, solver_tol=solver_tol)
        elif method == "uniform":
            n = X.shape[0]
            p = WeightVector(np.full(n, budget / n), kind="sampling",
                             budget=float(budget))
            res = sample_and_solve(X, InMemoryLabelOracle(y), p, rng,
                                   solver_tol=solver_tol)
        elif method == "leverage_l2_baseline":
            p = sampling_values(leverage_scores(X), budget)
            res = sample_and_solve(X, InMemoryLabelOracle(y), p, rng,
                                   solver_tol=solver_tol)
        elif method == "known_y_augmented":
            res = sketch_and_solve_known_y(X, y, eps, delta, rng,
                                           budget_override=budget,
                                           enforce_guarantee=False,
                                           solver_tol=solver_tol)
        else:
            raise ValueError(f"unknown method {method!r}")
    except (RankDeficiencyError, ConvergenceError) as e:
        # e.g. a sketch that misses every row spanning some direction; the
        # trial failed to produce an estimate, which counts as a failure.
        # Any other error is a bug and propagates.
        record["error"] = f"{type(e).__name__}: {e}"
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
    X, y, meta = materialize_instance(spec.instance, spec.seed)
    if "opt" in meta:
        opt = float(meta["opt"])
    else:
        opt = solve_lad(LadProblem(X, y), tol=spec.solver_tol).objective
        meta["opt"] = opt

    tasks = [
        (X, y, opt, spec.method, budget, spec.eps, spec.delta, trial,
         spec.seed, spec.solver_tol)
        for budget in spec.budgets
        for trial in range(spec.trials)
    ]
    if spec.workers > 1:
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
        timing={"total_seconds": time.perf_counter() - t0},
    )
    return report
