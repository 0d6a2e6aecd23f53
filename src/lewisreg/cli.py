"""Command-line front end.

Subcommands: weights (importance scores of a design matrix), solve (full,
known-label sketch, or active label-querying modes), experiment (Monte Carlo
budget sweeps from a JSON spec), gen (instance generation).

Exit codes: 0 ok, 1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import sys
import time

from .active import FileBackedLabelOracle, active_solve, sketch_and_solve_known_y
from .dataio import (
    DataError,
    json_bytes,
    read_json,
    read_labels,
    read_matrix_csv,
    write_json,
    write_labels,
    write_matrix_csv,
)
from .experiment import (
    INSTANCE_FIELDS,
    ExperimentSpec,
    generate_instance,
    run_experiment,
    trial_stream,
)
from .instances import FAMILIES
from .lad import LadProblem, objective, solve_lad
from .lewis import ConvergenceError, lewis_weights, verify_fixed_point
from .linalg import RankDeficiencyError, leverage_scores
from .sketch import RngStream

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lewisreg",
                     description="Label-efficient LAD regression by Lewis-weight sampling")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    w = sub.add_parser("weights", help="row importance scores of a CSV matrix")
    w.add_argument("x_file")
    w.add_argument("--kind", choices=["lewis", "leverage"], default="lewis")
    w.add_argument("--tol", type=float, default=1e-10)
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_weights)

    s = sub.add_parser("solve", help="LAD regression, full or sketched")
    s.add_argument("x_file")
    s.add_argument("y_file")
    s.add_argument("--mode", choices=["full", "sketch_known_y", "active"],
                   default="full")
    s.add_argument("--eps", type=float, default=0.25)
    s.add_argument("--delta", type=float, default=0.1)
    s.add_argument("--budget", type=int, default=None,
                   help="sketch row count; default recommended_budget, oversampled "
                        "for sampling-grade Lewis weights")
    s.add_argument("--regime", choices=["high_prob", "constant_prob"],
                   default="high_prob")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("experiment", help="Monte Carlo budget sweep from a JSON spec")
    e.add_argument("spec_file")
    e.add_argument("--out-prefix", default=None,
                   help="override the spec's output path prefix")
    e.set_defaults(func=cmd_experiment)

    g = sub.add_parser("gen", help="generate instance files")
    gsub = g.add_subparsers(dest="family", required=True, parser_class=_Parser)

    go, gi, gr = (gsub.add_parser(name) for name in ("outlier", "isolated", "reduced"))
    for sp in (go, gi):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--noise-scale", type=float)
    go.add_argument("--magnitude", dest="outlier_magnitude", type=float)
    go.add_argument("--outliers", dest="n_outliers", type=int)
    gi.add_argument("--magnitude", type=float)
    gr.add_argument("--family", dest="dist_family", required=True, choices=FAMILIES)
    gr.add_argument("--bias", type=float)
    gr.add_argument("--which", type=int, choices=[0, 1], help="two_coin: which of the pair")
    gr.add_argument("--hidden-index", type=int)
    gr.add_argument("--eps", dest="reduction_eps", type=float)
    gr.add_argument("--delta", dest="reduction_delta", type=float)
    gr.add_argument("--constants", choices=["proof", "statement"])
    # each flag's dest is its descriptor field, and its default the field's
    for family, table in INSTANCE_FIELDS.items():
        {"outlier": go, "isolated": gi}.get(family, gr).set_defaults(
            **{key: default for key, (_, default) in table.items() if default is not None})
    for sp in (go, gi, gr):
        sp.add_argument("--d", type=int, required=True)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out-x", required=True)
        sp.add_argument("--out-y", required=True)
        sp.add_argument("--meta", default=None)
        sp.set_defaults(func=cmd_gen)

    return parser


def cmd_weights(args) -> int:
    X = read_matrix_csv(args.x_file)
    if args.kind == "lewis":
        w = lewis_weights(X, args.tol)
        check = {"fixed_point_residual": verify_fixed_point(X, w)}
    else:
        w = leverage_scores(X)
        check = {"trace_gap": abs(w.total - X.shape[1])}
    write_json(args.out, {
        "kind": args.kind,
        "n": int(X.shape[0]),
        "d": int(X.shape[1]),
        "weight_sum": w.total,
        "check": check,
        "weights": [float(v) for v in w.values],
    })
    return 0


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    X = read_matrix_csv(args.x_file)
    n, d = X.shape
    out: dict = {"mode": args.mode, "n": n, "d": d, "seed": args.seed}
    if args.mode == "active":  # only queried label lines are ever read
        oracle = FileBackedLabelOracle(args.y_file)
        count = oracle.n
    else:
        y = read_labels(args.y_file)
        count = y.shape[0]
    if count != n:
        raise DataError(f"{args.y_file}: {count} labels for {n} rows")
    if args.mode == "full":
        sol = solve_lad(LadProblem(X, y))
        out.update(beta=[float(v) for v in sol.beta], objective=sol.objective,
                   status=sol.status, labels_queried=n, n_draws=None)
    else:
        rng = trial_stream(args.seed, 0, args.budget if args.budget is not None else -1)
        options = {"regime": args.regime, "budget_override": args.budget}
        if args.mode == "sketch_known_y":
            res = sketch_and_solve_known_y(X, y, args.eps, args.delta, rng, **options)
            out.update(objective=objective(LadProblem(X, y), res.beta_hat),
                       sketched_objective=res.sketched_objective)
        else:
            res = active_solve(X, oracle, args.eps, args.delta, rng, **options)
            out.update(objective=res.sketched_objective, label_lines_read=oracle.lines_read,
                       query_log=[int(i) for i in oracle.query_log])
        out.update(beta=[float(v) for v in res.beta_hat], status=res.solver_status,
                   labels_queried=res.labels_queried, n_draws=res.n_draws)

    out["timing_seconds"] = time.perf_counter() - t0
    if args.out:
        write_json(args.out, out)
    else:
        sys.stdout.write(json_bytes(out).decode("utf-8") + "\n")
    return 0


def cmd_experiment(args) -> int:
    spec_obj = read_json(args.spec_file)
    spec = ExperimentSpec.from_json_dict(spec_obj)
    report = run_experiment(spec)
    prefix = args.out_prefix or spec.output
    report.write(prefix if prefix is not None else args.spec_file.rsplit(".json", 1)[0])
    for agg in report.aggregates:
        print(f"budget {agg['budget']}: success {agg['successes']}/{agg['trials']}"
              f" ({agg['success_rate']:.2f})")
    return 0


def cmd_gen(args) -> int:
    family = args.dist_family if args.family == "reduced" else args.family
    fields = {key: getattr(args, key) for key in INSTANCE_FIELDS[family]}
    X, y, beta_star, opt = generate_instance(
        family, fields, RngStream(args.seed).derive("gen", args.family))
    meta = {"family": args.family, "seed": args.seed,
            "beta_star": [float(v) for v in beta_star]}
    if opt is None:
        meta.update(distribution=family, d=args.d, n=int(X.shape[0]),
                    eps=args.reduction_eps, delta=args.reduction_delta,
                    constants=args.constants)
    else:
        names = {"outlier_magnitude": "magnitude", "n_outliers": "outliers"}  # meta keys
        meta.update({names.get(k, k): v for k, v in fields.items()}, opt=opt)
    write_matrix_csv(args.out_x, X)
    write_labels(args.out_y, y)
    if args.meta:
        write_json(args.meta, meta)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # refusals of input are DataError, and a path that cannot be opened is an
    # OSError; any other ValueError is a bug and propagates
    try:
        return args.func(args)
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (RankDeficiencyError, ConvergenceError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
