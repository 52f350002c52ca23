"""Shared fork-join substrate: seeded shuffle, even partitioning and the
block map.

All shuffles use NumPy's PCG64 generator so a given (count, k, seed) always
yields the same permutation. Workers receive immutable inputs and hand back
single-owner partial results; each stage combines them in the calling
process.
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
    k: int
    seed: int


def shuffle_partition(count: int, k: int, seed: int) -> Partition:
    """Uniform seeded permutation split into k blocks, sizes within 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(count)
    blocks = np.array_split(order, k)
    return Partition(order=order, blocks=blocks, k=k, seed=seed)


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
    """Apply `fn` to each block argument, on up to k workers.

    Runs in this process when k = 1 or there is at most one block; otherwise
    on the persistent `fork` process pool, which has at least min(k, blocks)
    workers, so `fn` must be a picklable top-level function. Callers pass at
    most k blocks. Results come back in block order.
    """
    block_args = list(block_args)
    workers = min(k, len(block_args))
    if workers <= 1:
        return [fn(a) for a in block_args]
    return list(_get_pool(workers).map(fn, block_args))


def available_cores() -> int:
    return os.cpu_count() or 1
