"""Smoke runs of the README's experiment-script runs at toy sizes."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CURVE_HEADER = "budget,success_rate,ci_low,ci_high,mean_ratio"
COMMAND = "python scripts/compare_methods.py"


def readme_runs():
    """The argument lists of the README's compare_methods.py runs."""
    text = (ROOT / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
    section = text.split("\n## Experiment scripts\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[2:] for line in section.splitlines()
            if line.strip().startswith(COMMAND)]


def _values(args, flag):
    """The tokens after flag, up to the next flag."""
    rest = args[args.index(flag) + 1:]
    return rest[:next((i for i, a in enumerate(rest) if a.startswith("--")), len(rest))]


RUNS = readme_runs()


def test_readme_has_three_runs():
    assert len(RUNS) == 3


@pytest.mark.parametrize("args", RUNS, ids=[_values(a, "--out")[0] for a in RUNS])
def test_readme_run_writes_report_curve_and_table(tmp_path, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    toy = ["--budgets", "10", "20", "--trials", "2", "--out", str(tmp_path)]
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_methods.py"),
                          *args, *toy],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    methods = _values(args, "--methods")
    for method in methods:
        assert (tmp_path / f"{method}.report.json").is_file()
        curve = (tmp_path / f"{method}.curve.csv").read_text().splitlines()
        assert curve[0] == CURVE_HEADER
        assert [row.split(",")[0] for row in curve[1:]] == ["10", "20"]
    header, *rows = res.stdout.splitlines()
    assert header.split() == ["budget", *methods]
    assert [row.split()[0] for row in rows] == ["10", "20"]
    # each cell: success rate, [ci_low,ci_high], failed trials
    assert all(len(row.split()) == 1 + 3 * len(methods) for row in rows)
