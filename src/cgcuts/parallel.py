"""Shared fork-join substrate: seeded order, block split and block map.

Every seeded order is a keyed hash, `_mix`, of the items' indices, so a
given (count, seed) always yields the same permutation, whatever k, and no
generator stream is kept. Every parallel stage maps the non-empty
contiguous blocks that `split` cuts its items into by their work.
Workers receive immutable inputs and hand back single-owner partial
results; each stage combines them in the calling process. The calling
process is one of the workers: it runs a map's first block itself while
forked worker processes run the others (work-first), so k blocks need only
k - 1 workers, and they are capped at the cores but one.
"""
from __future__ import annotations

import atexit
import contextlib
import os
import pickle

import numpy as np


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(x, seed) -> np.ndarray:
    """Value x of the SplitMix64 stream seeded with `seed`, for each x of
    the non-negative integer array `x`, as a uint64 array: a counter-based
    hash (Steele, Lea and Flood, 2014), one-to-one in x for a given seed.
    `seed` is one integer, or a uint64 array of x's shape that gives each
    x its own seed. Every operand is a uint64, so NumPy 1.x and 2.x wrap
    alike."""
    z = np.array(x, dtype=np.uint64, ndmin=1)
    z += np.uint64(1)
    z *= _GAMMA
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def shuffle_order(count: int, seed: int) -> np.ndarray:
    """Seeded permutation of range(count): the order of `_mix` over it."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.argsort(_mix(np.arange(count), seed), kind="stable")


def split(work, k: int) -> list[tuple[int, int]]:
    """The non-empty contiguous blocks, at most k, of the items of
    non-negative integer `work`, as (lo, hi) item ranges in item order, or
    [(0, 0)] when there are no items: the b-th k-th of the total holds each
    item whose work's middle falls in it."""
    if k < 1:
        raise ValueError("k must be >= 1")
    work = np.asarray(work, dtype=np.int64)
    cum = np.cumsum(work)
    block = np.minimum((2 * cum - work) * k // max(2 * int(work.sum()), 1), k - 1)
    lo = np.flatnonzero(np.diff(block, prepend=-1)).tolist()
    return list(zip(lo, lo[1:] + [len(block)])) or [(0, 0)]


class _Worker:
    """A forked process that applies a function to shares of blocks: it
    reads `(fn, args)` from one pipe and writes `(True, results)` or
    `(False, (exception, traceback))` to the other, until the first closes."""

    def __init__(self):
        (down_r, down_w), (up_r, up_w) = os.pipe(), os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:  # hold no parent end, or a worker would miss its EOF
                for fd in [down_w, up_r] + [f.fileno() for w in _WORKERS for f in (w.down, w.up)]:
                    os.close(fd)
                _serve(open(down_r, "rb"), open(up_w, "wb"))
            finally:
                os._exit(0)  # at EOF, and never through the parent's atexit
        os.close(down_r)
        os.close(up_w)
        self.down, self.up = open(down_w, "wb"), open(up_r, "rb")

    def submit(self, fn, args: list):
        with contextlib.suppress(BrokenPipeError):  # it died; `result` reports it
            pickle.dump((fn, args), self.down, pickle.HIGHEST_PROTOCOL)
            self.down.flush()

    def result(self) -> list:
        try:
            ok, value = pickle.load(self.up)
        except Exception as exc:  # the rest of the reply is out of step
            _drop(self)
            raise RuntimeError(f"worker process {self.pid} died or sent an unreadable reply") from exc
        if ok:
            return value
        exc, tb = value
        exc.__cause__ = RuntimeError(f"in worker process {self.pid}:\n{tb}")
        raise exc


def _serve(down, up):
    while True:
        fn, args = pickle.load(down)  # raises EOFError once the parent closes
        try:
            reply = True, [fn(a) for a in args]
        except Exception as exc:  # an interrupt ends the worker instead
            import traceback

            tb = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(repr(exc))
            reply = False, (exc, tb)
        pickle.dump(reply, up, pickle.HIGHEST_PROTOCOL)
        up.flush()


# The live workers. They outlive a map, so the next map reuses them and
# callers can still inspect them (e.g. their peak RSS) after a run.
_WORKERS: list[_Worker] = []


def _drop(w: _Worker):
    _WORKERS.remove(w)
    for f in (w.down, w.up):
        with contextlib.suppress(BrokenPipeError):  # data left for a dead worker
            f.close()  # the worker reads EOF and exits
    os.waitpid(w.pid, 0)


def _shutdown_pools():
    while _WORKERS:
        _drop(_WORKERS[-1])


atexit.register(_shutdown_pools)


def map_blocks(fn, block_args, k: int) -> list:
    """Apply `fn` to each block argument, on up to k processes; the results
    come back in block order.

    Runs in this process when k = 1 or there is at most one block.
    Otherwise this process runs block 0 while min(`clamp_threads(k)`,
    blocks) - 1 forked workers, forking more if fewer are alive, run one
    consecutive share each of the others, so `fn` must be a picklable
    top-level function. The blocks are the caller's split, so the output
    does not depend on the number of workers. Every reply is read before
    the first error in block order is raised, so the workers are idle for
    the next call; an interrupt while shares are out ends every worker.
    """
    block_args = list(block_args)
    if k <= 1 or len(block_args) <= 1:
        return [fn(a) for a in block_args]
    n = min(clamp_threads(k), len(block_args)) - 1
    while len(_WORKERS) < n:
        _WORKERS.append(_Worker())
    workers, rest = _WORKERS[:n], block_args[1:]
    results, error = [], None
    try:
        for i, w in enumerate(workers):
            w.submit(fn, rest[len(rest) * i // n:len(rest) * (i + 1) // n])
        for part in [lambda: [fn(block_args[0])]] + [w.result for w in workers]:
            try:
                results += part()
            except Exception as exc:
                error = error or exc
    except BaseException:
        _shutdown_pools()
        raise
    if error is not None:
        raise error
    return results


def clamp_threads(k: int) -> int:
    """k, capped at the blocks that can run at once: the workers, the cores
    but one and one at the least, plus the calling process."""
    return min(k, max(available_cores() - 1, 1) + 1)


def available_cores() -> int:
    """The CPUs this process may run on (its affinity mask, where the
    platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
