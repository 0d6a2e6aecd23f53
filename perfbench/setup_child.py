"""One set-up of a benchmark run, in a fresh process.

    python3 perfbench/setup_child.py WORKLOAD SEED SIZE WORKDIR

Times `import lewisreg` and, for cli-full, the writes of the input files
through lewisreg.dataio. Prints the timings as one JSON line.
"""

import json
import sys
import time


def main() -> int:
    workload, seed, size, workdir = sys.argv[1:5]
    t0 = time.perf_counter()
    import lewisreg  # noqa: F401  (the import is what is timed)

    out = {"import_s": time.perf_counter() - t0, "write_matrix_s": 0.0,
           "write_labels_s": 0.0, "write_matrix_bytes": 0}
    if workload == "cli-full":
        from pathlib import Path

        from lewisreg import dataio

        import workloads

        X, y = workloads.cli_full_input(int(seed), size)
        x_path, y_path = Path(workdir) / "X.csv", Path(workdir) / "y.txt"
        t0 = time.perf_counter()
        dataio.write_matrix_csv(x_path, X)
        t1 = time.perf_counter()
        dataio.write_labels(y_path, y)
        t2 = time.perf_counter()
        out.update(write_matrix_s=t1 - t0, write_labels_s=t2 - t1,
                   write_matrix_bytes=x_path.stat().st_size)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
