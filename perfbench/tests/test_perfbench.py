"""Self-test of the benchmark at toy sizes.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import spans  # noqa: E402
import workloads  # noqa: E402
from lewisreg import active, dataio, experiment, lad  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# figures printed beside the gated end-to-end metrics, by workload
PRINTED = {
    "active-tall": {"op_s.p90", "uncertified_share", "failed_share"},
    "sweep-isolated": {"op_s.p90", "uncertified_share", "failed_share",
                       "success_rate.lewis", "success_rate.known_y"},
    "cli-full": {"op_s.p90", "uncertified_share", "failed_share"},
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # attempted and failed cover the counted ops, so they repeat for a seed
    assert result["attempted"] == workloads.WORKLOADS[workload].sizes["tiny"].counted_ops
    assert 0 <= result["failed"] <= result["attempted"]
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ({name: v["unit"] for name, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in section})
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    assert PRINTED[workload] <= printed


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "active-tall", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_spans_nest_and_self_times_are_nonnegative(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    cli_wl = workloads.CliFull(5, "tiny", tmp_path)
    X, y = workloads.cli_full_input(5, "tiny")
    dataio.write_matrix_csv(cli_wl.x_path, X)
    dataio.write_labels(cli_wl.y_path, y)
    cli_wl.prepare()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        for op, wl in enumerate([workloads.ActiveTall(5, "tiny", tmp_path),
                                 workloads.SweepIsolated(5, "tiny", tmp_path), cli_wl]):
            tracer.op = op
            wl.run(wl.make_input(0), tracer)
            tracer.op = None
    finally:
        tracer.uninstall()
    assert not hasattr(active.solve_lad, "__wrapped__")
    assert not hasattr(lad.weighted_gram, "__wrapped__")
    assert not hasattr(experiment.run_experiment, "__wrapped__")

    names = {s.name for s in tracer.spans}
    assert {"linalg.gram", "lewis.weights", "sketch.draw", "lad.solve", "active.solve",
            "active.known_y", "experiment.run", "instances.generate", "cli.main",
            "cli.startup", "dataio.read_matrix"} <= names
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent is not None:
            p = tracer.spans[s.parent]
            assert p.op == s.op
            assert p.start <= s.start and s.end <= p.end, (p, s)
    assert min(spans.self_seconds(tracer).values()) >= 0.0


def _input_bytes(wl) -> bytes:
    def flat(x):
        if hasattr(x, "tobytes"):
            return x.tobytes()
        if isinstance(x, experiment.ExperimentSpec):
            return json.dumps(x.to_json_dict(), sort_keys=True).encode()
        if isinstance(x, (list, tuple)):
            return b"".join(flat(v) for v in x)
        return repr(x).encode()

    if isinstance(wl, workloads.CliFull):
        return flat(workloads.cli_full_input(wl.seed, "tiny"))
    return flat([wl.make_input(0), wl.make_input(1)])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    cls = workloads.WORKLOADS[workload]
    first = _input_bytes(cls(7, "tiny", tmp_path))
    assert first == _input_bytes(cls(7, "tiny", tmp_path))
    assert first != _input_bytes(cls(8, "tiny", tmp_path))


def test_cli_input_files_are_byte_identical_for_a_seed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    written = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        subprocess.run([sys.executable, str(BENCH_DIR / "setup_child.py"), "cli-full",
                        "7", "tiny", str(d)], env=env, check=True, capture_output=True,
                       timeout=170)
        written.append((d / "X.csv").read_bytes() + (d / "y.txt").read_bytes())
    assert written[0] == written[1]
