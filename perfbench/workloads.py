"""The three benchmark workloads: how each makes its inputs from the seed,
runs one op through lewisreg, and checks the op's output.

Every check runs outside the timed region. The independent oracle is HiGHS
(scipy.optimize.linprog), solving the dual of the weighted LAD problem:

    max b.s  subject to  A^T s = 0,  -w <= s <= w,

whose optimum equals min_beta sum_i w_i |a_i.beta - b_i| by LP duality.
"""

import hashlib
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from lewisreg import active, experiment, sketch

SOLVER_TOL = 1e-8  # solve_lad's default tolerance, used by every op
HIGHS_TOL = 1e-7  # HiGHS's default primal and dual feasibility tolerances
CHILD_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent


class OracleError(RuntimeError):
    """HiGHS did not return an optimum, so an output could not be checked."""


def lp_optimum(A, b, w) -> float:
    res = linprog(-b, A_eq=A.T, b_eq=np.zeros(A.shape[1]),
                  bounds=np.column_stack([-w, w]), method="highs",
                  options={"primal_feasibility_tolerance": HIGHS_TOL,
                           "dual_feasibility_tolerance": HIGHS_TOL})
    if res.status != 0:
        raise OracleError(res.message)
    return -float(res.fun)


def within_promise(obj: float, opt: float) -> bool:
    """solve_lad promises (1 + tol) of optimal; HiGHS is exact to its own
    tolerance. An objective above both is a failed op."""
    return obj <= opt * (1.0 + SOLVER_TOL + HIGHS_TOL)


def below_optimum(obj: float, opt: float) -> bool:
    """No coefficient vector beats the optimum: an objective below it is a
    miscomputed output, not a good one."""
    return obj < opt * (1.0 - HIGHS_TOL)


def lad_objective(A, b, w, beta) -> float:
    return math.fsum(w * np.abs(A @ np.asarray(beta) - b))


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


@dataclass
class OpRecord:
    """What one op produced, as the benchmark saw it."""

    seconds: float = 0.0
    failed: bool = False  # raised, exited non-zero, or missed the oracle bound
    excess: float = 0.0  # largest (objective - optimum) / optimum the oracle saw
    truthful: bool = True  # every claim in the output held (see NOTES.md)
    checked: bool = True  # the oracle answered
    error: str | None = None
    statuses: list = field(default_factory=list)  # one per solve_lad result
    labels: list = field(default_factory=list)  # distinct labels per sketched solve
    success: dict = field(default_factory=dict)  # method -> [successes, trials]
    digests: list = field(default_factory=list)


@dataclass(frozen=True)
class Size:
    n: int
    d: int
    counted_ops: int  # ops whose counters and fingerprints are reported
    budgets: tuple = ()


def _rng(seed: int, tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, i])


class ActiveTall:
    """One active_solve on a fresh tall design with 3 planted label outliers.
    Even ops draw Gaussian rows, odd ops Student-t(1.5) rows."""

    name = "active-tall"
    sizes = {"full": Size(50_000, 20, 12, (800,)), "tiny": Size(3_000, 5, 2, (100,))}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.size = seed, self.sizes[size]

    def prepare(self):
        pass

    def make_input(self, i):
        g = _rng(self.seed, 1, i)
        n, d = self.size.n, self.size.d
        X = g.standard_normal((n, d)) if i % 2 == 0 else g.standard_t(1.5, (n, d))
        y = X @ g.standard_normal(d) + g.standard_normal(n)
        rows = g.choice(n, size=3, replace=False)
        y[rows] += 1e6 * np.where(g.random(3) < 0.5, -1.0, 1.0)
        return X, y, int(g.integers(2**62))

    def run(self, inp, tracer=None):
        X, y, stream_seed = inp
        return active.active_solve(X, active.InMemoryLabelOracle(y), eps=0.25, delta=0.1,
                                   rng=sketch.RngStream(stream_seed),
                                   budget_override=self.size.budgets[0])

    def check(self, inp, res) -> OpRecord:
        X, y, _ = inp
        S = res.sketch
        A, b, w = X[S.indices], y[S.indices], S.scales
        opt = lp_optimum(A, b, w)
        obj = res.sketched_objective
        met = within_promise(obj, opt)
        truthful = (
            math.isclose(lad_objective(A, b, w, res.beta_hat), obj, rel_tol=1e-9)
            and res.labels_queried == np.unique(S.indices).size
            and res.n_draws == self.size.budgets[0]
            and not below_optimum(obj, opt)
            and (met or res.solver_status != "optimal")
        )
        digest = sha256(S.indices.astype("<i8").tobytes(), S.scales.astype("<f8").tobytes())
        return OpRecord(failed=not met, excess=(obj - opt) / opt, truthful=truthful,
                        statuses=[res.solver_status], labels=[res.labels_queried],
                        digests=[digest])


class SweepIsolated:
    """One trial of run_experiment, for each of three methods, on a fresh
    isolated-direction instance."""

    name = "sweep-isolated"
    methods = ("lewis", "known_y_augmented", "uniform")
    sizes = {"full": Size(2_000, 10, 20, (30, 60, 120, 240)),
             "tiny": Size(200, 4, 2, (10, 20))}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.size = seed, self.sizes[size]

    def prepare(self):
        pass

    def make_input(self, i):
        spec_seed = int(_rng(self.seed, 2, i).integers(2**62))
        instance = {"family": "isolated", "n": self.size.n, "d": self.size.d}
        return [experiment.ExperimentSpec(instance=instance, method=method,
                                          budgets=list(self.size.budgets), eps=0.1,
                                          delta=0.1, trials=1, seed=spec_seed, workers=1)
                for method in self.methods]

    def run(self, specs, tracer=None):
        return [experiment.run_experiment(spec) for spec in specs]

    def check(self, specs, reports) -> OpRecord:
        X, y, _ = experiment.materialize_instance(specs[0].instance, specs[0].seed)
        opt = lp_optimum(X, y, np.ones(X.shape[0]))
        rec = OpRecord()
        for spec, rep in zip(specs, reports):
            ref = rep.environment["opt"]  # the generator's reference full solve
            rec.failed |= not within_promise(ref, opt)
            rec.excess = max(rec.excess, (ref - opt) / opt)
            rec.truthful &= not below_optimum(ref, opt)
            trials = rep.trials
            rec.truthful &= all(not below_optimum(t["objective"], opt)
                                for t in trials if t["objective"] is not None)
            rec.statuses += [t["status"] for t in trials if t["status"] is not None]
            rec.labels += [t["distinct_labels"] for t in trials if t["distinct_labels"]]
            rec.success[spec.method] = [sum(bool(t["success"]) for t in trials), len(trials)]
            body = {k: v for k, v in rep.to_json_dict().items() if k != "timing"}
            rec.digests.append(sha256(json.dumps(body, sort_keys=True).encode()))
        return rec


def cli_full_input(seed: int, size: str):
    """The cli-full design and labels: Gaussian rows, 3 label outliers."""
    s = CliFull.sizes[size]
    g = _rng(seed, 3, 0)
    X = g.standard_normal((s.n, s.d))
    y = X @ g.standard_normal(s.d) + g.standard_normal(s.n)
    rows = g.choice(s.n, size=3, replace=False)
    y[rows] += 1e6 * np.where(g.random(3) < 0.5, -1.0, 1.0)
    return X, y


class CliFull:
    """One `python -m lewisreg solve X.csv y.txt --mode full` in a fresh
    process, on input files written once during set-up."""

    name = "cli-full"
    sizes = {"full": Size(50_000, 10, 8), "tiny": Size(500, 4, 2)}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.size_name, self.size = seed, size, self.sizes[size]
        self.x_path, self.y_path = workdir / "X.csv", workdir / "y.txt"
        self.out_path = workdir / "solution.json"
        self.spans_path = workdir / "spans.json"

    def prepare(self):
        """Regenerate the inputs the set-up wrote, and their optimum."""
        self.X, self.y = cli_full_input(self.seed, self.size_name)
        self.opt = lp_optimum(self.X, self.y, np.ones(self.size.n))

    def make_input(self, i):
        return ["solve", str(self.x_path), str(self.y_path), "--mode", "full",
                "--out", str(self.out_path)]

    def run(self, argv, tracer=None):
        self.out_path.unlink(missing_ok=True)
        self.spans_path.unlink(missing_ok=True)
        if tracer is None:
            cmd = [sys.executable, "-m", "lewisreg", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(self.spans_path),
                   repr(time.monotonic()), *argv]
        spawned = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if tracer is not None:
            child = json.loads(self.spans_path.read_text())
            tracer.add("cli.startup", "child", spawned, spawned + child["startup_s"], tracer.op)
            tracer.adopt(child, tracer.op)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return json.loads(self.out_path.read_text())

    def check(self, argv, out) -> OpRecord:
        obj = out["objective"]
        met = within_promise(obj, self.opt)
        truthful = (
            math.isclose(lad_objective(self.X, self.y, 1.0, out["beta"]), obj, rel_tol=1e-9)
            and out["labels_queried"] == self.size.n
            and not below_optimum(obj, self.opt)
            and (met or out["status"] != "optimal")
        )
        body = {k: v for k, v in out.items() if k != "timing_seconds"}
        return OpRecord(failed=not met, excess=(obj - self.opt) / self.opt,
                        truthful=truthful, statuses=[out["status"]],
                        labels=[out["labels_queried"]],
                        digests=[sha256(json.dumps(body, sort_keys=True).encode())])


WORKLOADS = {w.name: w for w in (ActiveTall, SweepIsolated, CliFull)}
