#!/usr/bin/env python3
"""Lewis vs uniform sampling on the isolated-direction instance.

One row carries the whole last coordinate. Its Lewis weight is 1, so Lewis
sampling queries it essentially always, while uniform sampling misses it with
probability about (1 - 1/n)^N and then cannot recover the last coefficient at
all. The gap in the success curves is the point of the exercise.

Writes <out>/<method>.report.json and <out>/<method>.curve.csv for lewis and
uniform (ExperimentReport.write) and prints, per budget, both success rates and
the number of uniform trials that failed on a rank-deficient sketch.
"""

import argparse
import os

from lewisreg.experiment import ExperimentSpec, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--d", type=int, default=5)
    ap.add_argument("--magnitude", type=float, default=50.0)
    ap.add_argument("--eps", type=float, default=0.25)
    ap.add_argument("--budgets", type=int, nargs="+",
                    default=[25, 50, 100, 200, 400])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="isolated_comparison")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    instance = {"family": "isolated", "n": args.n, "d": args.d,
                "magnitude": args.magnitude, "noise_scale": 0.05}
    rows = {}
    for method in ("lewis", "uniform"):
        spec = ExperimentSpec(instance=instance, method=method,
                              budgets=args.budgets, eps=args.eps, delta=0.1,
                              trials=args.trials, seed=args.seed,
                              workers=args.workers)
        report = run_experiment(spec)
        report.write(os.path.join(args.out, method))
        rows[method] = report.aggregates

    for l, u in zip(rows["lewis"], rows["uniform"]):
        print(f"budget {l['budget']:5d}: lewis {l['success_rate']:.2f}  "
              f"uniform {u['success_rate']:.2f}  "
              f"(uniform rank failures: {u['failed_trials']})")


if __name__ == "__main__":
    main()
