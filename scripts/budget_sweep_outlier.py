#!/usr/bin/env python3
"""Budget sweep on the planted-outlier instance, one curve per sampling method.

Writes <out>/<method>.report.json and <out>/<method>.curve.csv for each method
(ExperimentReport.write) and prints a success-rate table. Methods share the
instance and the seed, so curves are directly comparable.
"""

import argparse
import os

from lewisreg.experiment import ExperimentSpec, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--d", type=int, default=10)
    ap.add_argument("--magnitude", type=float, default=1e6)
    ap.add_argument("--eps", type=float, default=0.25)
    ap.add_argument("--budgets", type=int, nargs="+",
                    default=[50, 100, 200, 400, 800, 1500])
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--methods", nargs="+",
                    default=["lewis", "uniform", "leverage_l2_baseline",
                             "known_y_augmented"])
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="sweep_outlier")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    instance = {"family": "outlier", "n": args.n, "d": args.d,
                "outlier_magnitude": args.magnitude, "noise_scale": 1.0}
    curves = {}
    for method in args.methods:
        spec = ExperimentSpec(instance=instance, method=method,
                              budgets=args.budgets, eps=args.eps, delta=0.1,
                              trials=args.trials, seed=args.seed,
                              workers=args.workers)
        report = run_experiment(spec)
        report.write(os.path.join(args.out, method))
        curves[method] = report.aggregates

    header = "budget".ljust(8) + "".join(m.ljust(24) for m in args.methods)
    print(header)
    for i, budget in enumerate(args.budgets):
        cells = []
        for m in args.methods:
            a = curves[m][i]
            cells.append(f"{a['success_rate']:.2f} [{a['ci_low']:.2f},{a['ci_high']:.2f}]"
                         .ljust(24))
        print(str(budget).ljust(8) + "".join(cells))


if __name__ == "__main__":
    main()
