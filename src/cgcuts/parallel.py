"""Shared fork-join substrate: seeded shuffle, even partitioning and the
block map.

All shuffles use NumPy's PCG64 generator so a given (count, k, seed) always
yields the same permutation. Workers receive immutable inputs and hand back
single-owner partial results; each stage combines them in the calling
process. The calling process is one of the workers: it runs a map's first
block itself while the pool runs the others (work-first), so k blocks need
only k - 1 pool workers, and the pool is capped at the cores but one.
"""
from __future__ import annotations

import atexit
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


@dataclass
class Partition:
    order: np.ndarray  # permutation of range(count)
    blocks: list[np.ndarray]  # k consecutive slices of `order`


def shuffle_partition(count: int, k: int, seed: int) -> Partition:
    """Uniform seeded permutation split into k blocks, sizes within 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(count)
    blocks = np.array_split(order, k)
    return Partition(order=order, blocks=blocks)


# The persistent pool, by its worker count. It outlives a run so that callers
# can still inspect the workers (e.g. their peak RSS) after it returns. A
# request for more workers shuts it down before a larger pool is forked, so
# at most one pool is alive; a request for fewer reuses it, because each
# block is one task and at most that many run at once.
_POOLS: dict[int, ProcessPoolExecutor] = {}


def _shutdown_pools(wait: bool = False):
    for pool in _POOLS.values():
        pool.shutdown(wait=wait, cancel_futures=True)
    _POOLS.clear()


atexit.register(_shutdown_pools)


def _get_pool(workers: int) -> ProcessPoolExecutor:
    for size, pool in _POOLS.items():
        if size >= workers:
            return pool
    # Imported here: a k = 1 run starts no pool and need not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _shutdown_pools(wait=True)
    ctx = multiprocessing.get_context("fork")
    pool = _POOLS[workers] = ProcessPoolExecutor(workers, mp_context=ctx)
    return pool


def map_blocks(fn, block_args, k: int) -> list:
    """Apply `fn` to each block argument, on up to k workers; the results
    come back in block order.

    Runs in this process when k = 1 or there is at most one block.
    Otherwise this process runs block 0 while the persistent `fork` pool,
    of at least min(`clamp_threads(k)`, blocks) - 1 workers, runs the
    others, so `fn` must be a picklable top-level function.
    The blocks are the caller's split, so the output does not depend on the
    pool's size. When a block raises, the other blocks are cancelled or
    awaited first, so the pool is idle for the next call.
    """
    block_args = list(block_args)
    if k <= 1 or len(block_args) <= 1:
        return [fn(a) for a in block_args]
    workers = min(clamp_threads(k), len(block_args)) - 1
    futures = [_get_pool(workers).submit(fn, a) for a in block_args[1:]]
    try:
        return [fn(block_args[0])] + [f.result() for f in futures]
    except BaseException:
        from concurrent.futures import wait

        for f in futures:
            f.cancel()
        wait(futures)
        raise


def clamp_threads(k: int) -> int:
    """k, capped at the blocks that can run at once: the pool's workers,
    the cores but one and one at the least, plus the calling process."""
    return min(k, max(available_cores() - 1, 1) + 1)


def available_cores() -> int:
    """The CPUs this process may run on (its affinity mask, where the
    platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
