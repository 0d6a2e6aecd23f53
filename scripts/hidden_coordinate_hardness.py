#!/usr/bin/env python3
"""Failure-rate curve on the hidden-coordinate family.

The instance hides all signal on one coordinate: queries elsewhere return 0,
and the hidden coordinate answers 1 only three quarters of the time. Until
the budget is large enough to probe every coordinate a few times, some runs
never see a nonzero label and cannot do better than guessing, so the failure
rate sits on a floor that no solver can remove. This script traces that floor
across budgets; compare the knee against a d log(1/delta) scale.

Writes <out>/lewis.report.json and <out>/lewis.curve.csv (ExperimentReport.write;
the failure rate is 1 - success_rate) and prints the failure rate per budget.
"""

import argparse
import os

from lewisreg.experiment import ExperimentSpec, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=6)
    ap.add_argument("--hidden-index", type=int, default=2)
    ap.add_argument("--budgets", type=int, nargs="+",
                    default=[6, 12, 25, 50, 100, 200, 400])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--eps", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="hidden_coordinate_hardness")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    spec = ExperimentSpec(
        instance={"family": "hidden_coordinate", "d": args.d,
                  "hidden_index": args.hidden_index,
                  "reduction_eps": 0.3, "reduction_delta": 0.1},
        method="lewis", budgets=args.budgets, eps=args.eps, delta=0.1,
        trials=args.trials, seed=args.seed, workers=args.workers)
    report = run_experiment(spec)
    report.write(os.path.join(args.out, spec.method))
    for a in report.aggregates:
        print(f"budget {a['budget']:5d}: failure rate {1.0 - a['success_rate']:.3f}")


if __name__ == "__main__":
    main()
