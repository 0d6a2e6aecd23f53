"""Run one lewisreg CLI command with the benchmark's spans installed.

    python3 perfbench/cli_child.py SPANS_OUT SPAWN_STAMP solve X.csv y.txt ...

SPAWN_STAMP is the parent's time.monotonic() just before it started this
process, so start-up (interpreter, imports, wrappers) is measured up to the
call of lewisreg.cli.main. The spans are written to SPANS_OUT as JSON.
"""

import json
import sys
import time


def main() -> int:
    spans_out, stamp, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    from lewisreg import cli

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.op = 0
    startup_s = time.monotonic() - stamp
    try:
        return cli.main(argv)
    finally:
        tracer.op = None
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"startup_s": startup_s, **tracer.export()}, fh)


if __name__ == "__main__":
    sys.exit(main())
