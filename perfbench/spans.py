"""Spans recorded around calls into lewisreg's modules, from outside src/.

Each lewisreg module imports the functions it uses by name, so a wrapper is
installed where the calling module looks the name up: lewisreg.lad.weighted_gram
as well as lewisreg.linalg.weighted_gram, for instance. A span records its
name, the module the call was looked up in (its site), start, end, parent span
and op id. Spans are kept in memory; per-layer metrics are computed from them
when the run ends.

Times come from time.perf_counter. Work counters ("computed") come from array
shapes and returned objects, never from timing, so they repeat exactly.
"""

import hashlib
import inspect
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    site: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder. Wrappers record only while `op` is set, so the
    benchmark's own checks between ops leave no spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr, name, site, note=None):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if self.op is None:
                return orig(*args, **kwargs)
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, site, 0.0, 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                note(span.attrs, args, kwargs, out)
            return out

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def count(self, owner, attr, key):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[(self.op, key)] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def add(self, name, site, start, end, op):
        self.spans.append(Span(len(self.spans), name, site, start, end, None, op))

    def export(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counts": [[op, key, n] for (op, key), n in sorted(self.counts.items())],
        }

    def adopt(self, exported: dict, op: int):
        """Take in the spans a child process recorded, under op id `op`."""
        base = len(self.spans)
        for s in exported["spans"]:
            parent = None if s["parent"] is None else base + s["parent"]
            self.spans.append(Span(base + s["id"], s["name"], s["site"], s["start"],
                                   s["end"], parent, op, s["attrs"]))
        for _, key, n in exported["counts"]:
            self.counts[(op, key)] += n


def _gram(attrs, args, kwargs, out):
    attrs["rows"], attrs["d"] = (int(v) for v in args[0].shape)


def _design(attrs, args, kwargs, out):
    # a strided sample of rows identifies a design cheaply; the benchmark's
    # designs differ in every row
    X = args[0]
    sample = X[:: max(1, X.shape[0] // 256)]
    attrs["design"] = hashlib.sha256(repr(X.shape).encode() + sample.tobytes()).hexdigest()[:16]


def _draws(attrs, args, kwargs, out):
    attrs["draws"] = int(out.n_draws)
    attrs["distinct"] = int(len(set(out.indices.tolist())))


def _labels(attrs, args, kwargs, out):
    attrs["labels"] = int(out.labels_queried)


def _failed_trials(attrs, args, kwargs, out):
    attrs["failed_trials"] = sum(1 for r in out.trials if r["error"] is not None)


def _file_bytes(attrs, args, kwargs, out):
    attrs["bytes"] = os.path.getsize(args[0])


def install(tracer: Tracer):
    """Wrap every public lewisreg function the workloads reach, at each
    module that looks it up."""
    from lewisreg import active, cli, experiment, instances, lad, lewis, linalg, sketch

    lad_signature = inspect.signature(lad.solve_lad)

    def _lad(attrs, args, kwargs, out):
        bound = lad_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        attrs["max_iters"] = int(bound.arguments["max_iters"])
        attrs["iterations"] = int(out.iterations)
        attrs["status"] = out.status

    w = tracer.wrap
    w(linalg, "weighted_gram", "linalg.gram", "linalg", _gram)
    w(lad, "weighted_gram", "linalg.gram", "lad", _gram)
    for mod in (linalg, lewis, lad):
        w(mod, "spd_factorize", "linalg.factorize", mod.__name__)
    for mod in (linalg, lewis):
        w(mod, "row_quadratic_forms", "linalg.rowquad", mod.__name__)
    w(active, "orthonormal_column_basis", "linalg.basis", "active")
    w(active, "lewis_weights", "lewis.weights", "active", _design)
    w(sketch, "build_alias_table", "sketch.alias", "sketch")
    w(active, "draw_sketch", "sketch.draw", "active", _draws)
    w(active, "solve_lad", "lad.solve", "sketched", _lad)
    for mod in (cli, experiment, instances):
        w(mod, "solve_lad", "lad.solve", "full", _lad)
    w(active, "active_solve", "active.solve", "bench", _labels)
    w(experiment, "active_solve", "active.solve", "experiment", _labels)
    w(experiment, "sample_and_solve", "active.sample", "experiment", _labels)
    w(experiment, "sketch_and_solve_known_y", "active.known_y", "experiment", _labels)
    tracer.count(active.LabelOracle, "query", "active.queries")
    w(experiment, "run_experiment", "experiment.run", "bench", _failed_trials)
    w(experiment, "materialize_instance", "experiment.materialize", "experiment")
    for attr in ("make_isolated_instance", "make_outlier_instance"):
        w(experiment, attr, "instances.generate", "experiment")
    w(cli, "read_matrix_csv", "dataio.read_matrix", "cli", _file_bytes)
    w(cli, "read_labels", "dataio.read_labels", "cli", _file_bytes)
    w(cli, "write_json", "dataio.write_json", "cli")
    w(cli, "main", "cli.main", "bench")


def self_seconds(tracer: Tracer) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children.
    Spans of one thread nest, so the children never overlap."""
    covered = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return {s.id: s.seconds - covered[s.id] for s in tracer.spans}


def layer_metrics(tracer: Tracer, ops: list[int], counted: list[int],
                  setup: list[dict]) -> dict[str, float]:
    """Per-layer metrics. Times are seconds per op over every traced op;
    counters are per op (or per call) over the `counted` ops, a fixed prefix
    of the run, so that they repeat exactly for a seed."""
    n_ops, n_counted = max(len(ops), 1), max(len(counted), 1)
    in_counted = set(counted)
    self_s = self_seconds(tracer)
    children = defaultdict(list)
    for s in tracer.spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def spans(name, site=None, counted_only=False):
        return [s for s in tracer.spans if s.name == name
                and (site is None or s.site == site)
                and (not counted_only or s.op in in_counted)]

    def time_per_op(name, site=None):
        return sum(s.seconds for s in spans(name, site)) / n_ops

    def self_per_op(name, site=None):
        return sum(self_s[s.id] for s in spans(name, site)) / n_ops

    def calls_per_op(name, site=None):
        return len(spans(name, site, counted_only=True)) / n_counted

    def attr_per_op(name, attr, site=None):
        return sum(s.attrs.get(attr, 0) for s in spans(name, site, counted_only=True)) / n_counted

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    grams = spans("linalg.gram", counted_only=True)
    rows = sum(s.attrs["rows"] for s in grams)
    m["linalg.gram.calls"] = len(grams) / n_counted
    m["linalg.gram.s"] = time_per_op("linalg.gram")
    m["linalg.gram.rows"] = rows / n_counted
    m["linalg.gram.flops_computed"] = sum(2 * s.attrs["rows"] * s.attrs["d"] ** 2 for s in grams) / n_counted
    m["linalg.gram.bytes_computed"] = sum(8 * s.attrs["rows"] * s.attrs["d"] for s in grams) / n_counted
    m["linalg.factorize.calls"] = calls_per_op("linalg.factorize")
    m["linalg.factorize.s"] = time_per_op("linalg.factorize")
    m["linalg.rowquad.s"] = time_per_op("linalg.rowquad")
    m["linalg.basis.s"] = time_per_op("linalg.basis")

    lewis_calls = spans("lewis.weights", counted_only=True)
    sweeps = sum(1 for s in lewis_calls for c in children[s.id] if c.name == "linalg.gram")
    designs = {(s.op, s.attrs.get("design")) for s in lewis_calls}
    m["lewis.calls"] = len(lewis_calls) / n_counted
    m["lewis.s"] = time_per_op("lewis.weights")
    m["lewis.self_s"] = self_per_op("lewis.weights")
    m["lewis.sweeps_per_call"] = ratio(sweeps, len(lewis_calls))
    m["lewis.calls_per_design"] = ratio(len(lewis_calls), len(designs))

    draws = spans("sketch.draw", counted_only=True)
    n_draws = sum(s.attrs.get("draws", 0) for s in draws)
    m["sketch.alias.s"] = time_per_op("sketch.alias")
    m["sketch.draw.s"] = time_per_op("sketch.draw")
    m["sketch.draws"] = n_draws / n_counted
    m["sketch.distinct_ratio"] = ratio(sum(s.attrs.get("distinct", 0) for s in draws), n_draws)

    solves = [s for s in spans("lad.solve", counted_only=True) if "status" in s.attrs]
    irls = [sum(1 for c in children[s.id] if c.name == "linalg.gram") - 1 for s in solves]
    m["lad.sketched.calls"] = calls_per_op("lad.solve", "sketched")
    m["lad.sketched.s"] = time_per_op("lad.solve", "sketched")
    m["lad.full.calls"] = calls_per_op("lad.solve", "full")
    m["lad.full.s"] = time_per_op("lad.solve", "full")
    m["lad.irls_iters_per_solve"] = ratio(sum(irls), len(solves))
    m["lad.irls_capped_share"] = ratio(
        sum(1 for s, it in zip(solves, irls) if it >= s.attrs["max_iters"]), len(solves))
    m["lad.pivots_per_solve"] = ratio(
        sum(s.attrs["iterations"] - it for s, it in zip(solves, irls)), len(solves))
    for status in ("optimal", "degenerate", "max_iter"):
        m[f"lad.status.{status}"] = sum(1 for s in solves if s.attrs["status"] == status) / n_counted

    m["active.solve.self_s"] = self_per_op("active.solve")
    m["active.known_y.self_s"] = self_per_op("active.known_y")
    m["active.queries"] = sum(n for (op, key), n in tracer.counts.items()
                              if key == "active.queries" and op in in_counted) / n_counted
    m["active.labels"] = sum(attr_per_op(name, "labels")
                             for name in ("active.solve", "active.sample", "active.known_y"))

    trials = [s.seconds for s in tracer.spans if s.site == "experiment" and s.name.startswith("active.")]
    m["experiment.run.s"] = time_per_op("experiment.run")
    m["experiment.materialize.s"] = time_per_op("experiment.materialize")
    m["experiment.trial.s.p50"] = statistics.median(trials) if trials else 0.0
    m["experiment.self_s"] = self_per_op("experiment.run")
    m["experiment.failed_trials"] = attr_per_op("experiment.run", "failed_trials")

    m["instances.generate.s"] = time_per_op("instances.generate")

    m["dataio.read_matrix.s"] = time_per_op("dataio.read_matrix")
    m["dataio.read_matrix.bytes"] = attr_per_op("dataio.read_matrix", "bytes")
    m["dataio.read_labels.s"] = time_per_op("dataio.read_labels")
    m["dataio.write_matrix.s"] = statistics.median(r["write_matrix_s"] for r in setup)
    m["dataio.write_matrix.bytes"] = float(setup[0]["write_matrix_bytes"])
    m["dataio.write_json.s"] = time_per_op("dataio.write_json")

    m["cli.startup_s"] = time_per_op("cli.startup")
    m["cli.main.self_s"] = self_per_op("cli.main")
    return m
