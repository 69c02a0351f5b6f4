"""Run one tubegap CLI command in a fresh process and report what it cost.

    python3 benchmarks/cli_child.py <trace 0|1> <tubegap CLI arguments...>

The CLI workloads start one of these per command, as a user starts one
``tubegap`` process per command, so nothing the program keeps in memory
carries over from one command or round to the next.  The last line of
output is one JSON object: the command's exit code and console output,
the seconds ``tubegap.cli.main`` took (interpreter start and imports
excluded; ``setup_s`` measures those), the process's peak resident
memory, and with trace 1 the spans and counters recorded around it.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from tracing import Tracer, Wrappers  # noqa: E402
from workloads import process_peak_rss_mb, run_cli  # noqa: E402


def main() -> int:
    trace, argv = sys.argv[1] == "1", sys.argv[2:]
    tracer = Tracer()
    with Wrappers(tracer) if trace else contextlib.nullcontext():
        t0 = time.perf_counter()
        code, output = run_cli(argv)
        seconds = time.perf_counter() - t0
    print(json.dumps({
        "code": code, "output": output, "seconds": seconds,
        "peak_rss_mb": process_peak_rss_mb(),
        "spans": tracer.spans, "counts": tracer.counts,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
