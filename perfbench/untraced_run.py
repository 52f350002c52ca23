"""Run `python -m cgcuts.cli` unchanged, then record peak memory.

Usage: python3 untraced_run.py <result.json> presolve model.mps [cli args...]

The CLI module runs as `__main__` exactly as with `-m`. When it ends, and
before the interpreter shuts down any pool, this writes the process's own
ru_maxrss and the VmHWM of its live pool workers to <result.json>; the
CLI's exit status is kept.
"""
import json
import runpy
import sys

from rss import children_peak_mb, own_peak_mb

if __name__ == "__main__":
    out_path = sys.argv[1]
    sys.argv = ["cgcuts"] + sys.argv[2:]
    try:
        runpy.run_module("cgcuts.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"peak_rss_mb": own_peak_mb(),
                       "worker_peak_rss_mb": children_peak_mb()}, fh)
