#!/usr/bin/env python3
"""Success-rate curves of several sampling methods on one instance.

Runs one lewisreg experiment spec per method, all on the same instance and
seed, with delta 0.1 (the budgets are explicit, so delta only has to lie in
(0, 1)). Writes <out>/<method>.report.json and <out>/<method>.curve.csv for
each method (ExperimentReport.write) and prints one table, a row per budget
and a column per method. Each cell holds the success rate, its 95% Wilson
interval and the number of failed (rank-deficient) trials; the failure rate
is 1 - success rate.
"""

import argparse
import json
import os

from lewisreg.experiment import METHODS, ExperimentSpec, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instance", type=json.loads, required=True,
                    help="the instance object of a lewisreg experiment spec, as JSON")
    ap.add_argument("--methods", nargs="+", choices=METHODS, default=list(METHODS))
    ap.add_argument("--budgets", type=int, nargs="+", required=True)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--eps", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="compare_methods")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    curves = {}
    for method in args.methods:
        spec = ExperimentSpec(instance=args.instance, method=method,
                              budgets=args.budgets, eps=args.eps, delta=0.1,
                              trials=args.trials, seed=args.seed, workers=args.workers)
        report = run_experiment(spec)
        report.write(os.path.join(args.out, method))
        curves[method] = report.aggregates

    print("budget".ljust(8) + "".join(m.ljust(26) for m in args.methods))
    for i, budget in enumerate(args.budgets):
        cells = (f"{a['success_rate']:.2f} [{a['ci_low']:.2f},{a['ci_high']:.2f}] "
                 f"{a['failed_trials']}" for a in (curves[m][i] for m in args.methods))
        print(str(budget).ljust(8) + "".join(c.ljust(26) for c in cells))


if __name__ == "__main__":
    main()
