"""Run `cgcuts presolve` in this process with a span around every stage.

Usage: python3 traced_run.py <spans.json> presolve model.mps [cli args...]

Spans stay in memory and are written to <spans.json> once, after the CLI
returns, with the process's peak RSS and that of its live pool workers.
With `--threads` above 1 each `map_blocks` call also records the pickled
size of its block arguments, in a span of its own (layer `trace`).
"""
import json
import sys
import time

from rss import children_peak_mb, own_peak_mb
from spans import Tracer, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
    tracer = Tracer()
    with tracer.span("import", "interpreter"):
        from cgcuts import cli
        missing = install(tracer, size_dispatch=threads > 1)
    code = 1
    try:
        with tracer.span("cli.main", "cli"):
            code = cli.main(argv)
    finally:
        result = {
            "exit_code": code,
            "spans": tracer.spans,
            "attrs": tracer.attrs,
            "unwrapped": missing,
            "clock_end": time.perf_counter(),
            "peak_rss_mb": own_peak_mb(),
            "worker_peak_rss_mb": children_peak_mb(),
        }
        with open(out_path, "w") as fh:
            json.dump(result, fh, default=int)  # NumPy integer counts
    return code


if __name__ == "__main__":
    sys.exit(main())
