"""Smoke runs of the experiment scripts at toy sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CURVE_HEADER = "budget,success_rate,ci_low,ci_high,mean_ratio"
TOY = ["--budgets", "10", "20", "--trials", "2"]


@pytest.mark.parametrize("script, args, methods", [
    ("budget_sweep_outlier.py", ["--n", "60", "--d", "3"],
     ["lewis", "uniform", "leverage_l2_baseline", "known_y_augmented"]),
    ("method_comparison_isolated.py", ["--n", "60", "--d", "3"], ["lewis", "uniform"]),
    ("hidden_coordinate_hardness.py", ["--d", "4"], ["lewis"]),
])
def test_script_writes_report_and_curve_per_method(tmp_path, script, args, methods):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args, *TOY,
                          "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout
    for method in methods:
        assert (tmp_path / f"{method}.report.json").is_file()
        curve = (tmp_path / f"{method}.curve.csv").read_text().splitlines()
        assert curve[0] == CURVE_HEADER
        assert [row.split(",")[0] for row in curve[1:]] == ["10", "20"]
