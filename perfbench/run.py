"""Run one lewisreg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload active-tall --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository: it imports
lewisreg from src/ and takes metric names and units from BENCHMARK.json.

Each run does set-up several times in fresh processes (import lewisreg, plus
the CSV writes on cli-full), then a closed loop, one client, of ops for
--seconds, checking every op against HiGHS outside the timed region.
--trace 0 reports the end-to-end metrics. --trace 1 runs the loop untraced
for half the time, then traced for the other half, and reports the per-layer
metrics plus the tracing overhead. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it list every figure with its unit and a `detail` line with the
environment, fingerprints and counters. The detail (and, traced, the spans)
are also written under .perfbench/ at the root of the checkout.

perfbench/NOTES.md gives the reasons for the workloads and what each metric
should move.
"""

import os
import sys

# One client with one BLAS thread, never above nproc (2 on the reference
# machine). Set before numpy loads; every child process inherits it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = {"full": 3, "tiny": 2}
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it
PRINTED_ONLY = {  # printed beside the end-to-end metrics, not gated (see NOTES.md)
    "op_s.p90": "s",
    "success_rate.lewis": "share",
    "success_rate.known_y": "share",
    "uncertified_share": "share",
    "failed_share": "share",
}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import lewisreg
    from lewisreg import sketch

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "lewisreg_version": lewisreg.__version__,
        "rng_algorithm": sketch.RNG_ALGORITHM,
    }


def set_up(args, workdir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), args.workload, str(args.seed),
         args.size, str(workdir)],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def loop(wl, seconds: float, min_ops: int, tracer=None) -> list:
    """Closed loop: op i+1 starts after op i and its check are done. Runs for
    `seconds` and at least `min_ops` ops; only the op itself is timed."""
    import workloads

    records = []
    deadline = time.perf_counter() + seconds
    while len(records) < min_ops or time.perf_counter() < deadline:
        i = len(records)
        inp = wl.make_input(i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out, error = wl.run(inp, tracer), None
        except Exception as e:  # an op that raises is a failed op; the loop goes on
            out, error = None, f"{type(e).__name__}: {e}"
        seconds_op = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        if error is not None:
            rec = workloads.OpRecord(failed=True, error=error)
        else:
            try:
                rec = wl.check(inp, out)
            except workloads.OracleError as e:
                rec = workloads.OpRecord(checked=False, error=f"oracle: {e}")
            except Exception as e:  # malformed output
                rec = workloads.OpRecord(failed=True, truthful=False,
                                         error=f"{type(e).__name__}: {e}")
        rec.seconds = seconds_op
        records.append(rec)
    return records


def op_figures(records) -> dict:
    times = [r.seconds for r in records]
    return {"op_s.p50": statistics.median(times), "ops_per_s": len(times) / sum(times)}


def outcome_figures(counted, setups) -> dict:
    """End-to-end figures of the counted ops, which repeat exactly for a seed."""
    labels = [n for r in counted for n in r.labels]
    statuses = [s for r in counted for s in r.statuses]
    figs = {
        "setup_s": statistics.median(
            s["import_s"] + s["write_matrix_s"] + s["write_labels_s"] for s in setups),
        "labels_per_solve": statistics.fmean(labels) if labels else 0.0,
        "uncertified_share": (sum(s != "optimal" for s in statuses) / len(statuses)
                              if statuses else 0.0),
        "failed_share": sum(r.failed for r in counted) / len(counted),
    }
    for method, key in (("lewis", "success_rate.lewis"),
                        ("known_y_augmented", "success_rate.known_y")):
        tallies = [r.success[method] for r in counted if method in r.success]
        if tallies:
            figs[key] = sum(t[0] for t in tallies) / sum(t[1] for t in tallies)
    return figs


def fingerprint(counted) -> dict:
    import workloads

    digests = [d for r in counted for d in r.digests]
    return {"ops": len(counted), "digest": workloads.sha256("".join(digests).encode()),
            "digests": digests}


def main(argv=None) -> int:
    src, bench_file = ROOT / "src", ROOT / "BENCHMARK.json"
    if not (src / "lewisreg" / "__init__.py").is_file() or not bench_file.is_file():
        print("perfbench: needs src/lewisreg and BENCHMARK.json; run it inside a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    import spans
    import workloads

    parser = argparse.ArgumentParser(description="Run one lewisreg benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the workloads at toy sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench = json.loads(bench_file.read_text())
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(PRINTED_ONLY)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    tracer, plain = None, []
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        setups = [set_up(args, workdir) for _ in range(SETUP_REPS[args.size])]
        wl.prepare()
        k = wl.size.counted_ops
        if args.trace:
            plain = loop(wl, args.seconds / 2, 1)
            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                records = loop(wl, args.seconds / 2, k, tracer)
            finally:
                tracer.uninstall()
        else:
            records = loop(wl, args.seconds, k)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counted = records[:k]
    figures = {**op_figures(records), **outcome_figures(counted, setups)}
    times = sorted(r.seconds for r in records)
    if len(times) >= P90_MIN_OPS:
        figures["op_s.p90"] = statistics.quantiles(times, n=10)[-1]
    if args.trace:
        untraced = op_figures(plain)
        figures.update(spans.layer_metrics(tracer, list(range(len(records))),
                                           list(range(len(counted))), setups))
        figures["trace.overhead.op_s.p50"] = figures["op_s.p50"] - untraced["op_s.p50"]
        figures["trace.overhead.ops_per_s"] = figures["ops_per_s"] - untraced["ops_per_s"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}: "
          f"{len(records)} ops timed, counters over the first {len(counted)}")
    if len(times) < P90_MIN_OPS:
        print(f"  op_s.p90 not reported: {len(times)} ops < {P90_MIN_OPS}")
    for name, value in figures.items():
        print(f"  {name:<32} {value:<14.6g} {units.get(name, '')}")
    detail = {
        "environment": environment(args.seed),
        "figures": figures,
        "fingerprint": fingerprint(counted),
        "op_seconds": [r.seconds for r in records],
        "errors": [[i, r.error] for i, r in enumerate(records) if r.error],
        "failed_ops": [[i, r.excess] for i, r in enumerate(records) if r.failed],
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if tracer is not None:
        (out_dir / f"{tag}.spans.json").write_text(json.dumps(tracer.export()))
    short = {**detail, "fingerprint": {**detail["fingerprint"], "digests": "..."},
             "op_seconds": "..."}
    print("detail " + json.dumps(short, sort_keys=True))

    missing = [m["name"] for m in section if m["name"] not in figures]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    # attempted and failed count the counted ops, which every run completes,
    # so they repeat exactly for a seed. Later ops are timed and checked too:
    # their oracle misses are listed in the detail, and an untruthful or
    # unchecked output among them still makes correct false.
    result = {
        "correct": all(r.checked and r.truthful for r in plain + records),
        "attempted": len(counted),
        "failed": sum(r.failed for r in counted),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
