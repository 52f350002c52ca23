"""Peak resident memory of this process and of its live child processes."""
from __future__ import annotations

import glob
import resource


def own_peak_mb() -> float:
    """This process's maximum RSS from its own rusage (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _vm_hwm_mb(pid: int) -> float | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:  # the child exited between listing and reading
        return None
    return None


def children_peak_mb() -> list[float]:
    """VmHWM of every live direct child of this process, such as the
    workers of a process pool that is still open."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as fh:
                pids.update(int(p) for p in fh.read().split())
        except OSError:
            continue
    peaks = (_vm_hwm_mb(pid) for pid in sorted(pids))
    return [p for p in peaks if p is not None]
