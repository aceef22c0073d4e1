"""Traced stand-in for ``python -m qpe.cli`` used by the traced cli_cold run.

Times ``import qpe.cli`` before the tracer or anything else is imported,
so the figure is the CLI's own cold import. Then installs the tracer and
runs ``qpe.cli.run`` on the given arguments with one op open around it. Standard output stays the
CLI's own; the timings and the trace summary go to standard error as one
line prefixed with TRACE_TAG. Exits with the CLI's exit code.

Usage: python3 bench/cli_launch.py <qpe cli arguments...>
(with the checkout's ``src`` on PYTHONPATH)
"""
from __future__ import annotations

import sys
from time import perf_counter_ns

TRACE_TAG = "BENCH-TRACE "


def main(argv: list[str]) -> int:
    t0 = perf_counter_ns()
    import qpe.cli
    t1 = perf_counter_ns()
    import json

    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    t2 = perf_counter_ns()
    try:
        code = qpe.cli.run(argv)
    finally:
        t3 = perf_counter_ns()
        tracer.end_op()
        tracer.uninstall()
    sys.stdout.flush()
    record = {"import_ns": t1 - t0, "run_ns": t3 - t2,
              "summary": tracer.summary(), "spans": tracer.span_table()}
    sys.stderr.write(TRACE_TAG + json.dumps(record, separators=(",", ":")) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
