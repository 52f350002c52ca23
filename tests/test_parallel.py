"""Shared fork-join substrate: shuffles, partitions and the block map."""
import multiprocessing

import numpy as np
import pytest

from cgcuts import parallel
from cgcuts.parallel import map_blocks, shuffle_partition


def test_partition_sizes_within_one():
    part = shuffle_partition(10, 3, seed=0)
    assert sorted(len(b) for b in part.blocks) == [3, 3, 4]


def test_partition_more_threads_than_items():
    part = shuffle_partition(5, 8, seed=0)
    assert sorted((len(b) for b in part.blocks), reverse=True) == [
        1, 1, 1, 1, 1, 0, 0, 0,
    ]


def test_partition_single_block_is_permutation():
    part = shuffle_partition(7, 1, seed=3)
    assert sorted(part.blocks[0].tolist()) == list(range(7))


def test_partition_is_deterministic_per_seed():
    a = shuffle_partition(50, 4, seed=9)
    b = shuffle_partition(50, 4, seed=9)
    c = shuffle_partition(50, 4, seed=10)
    assert np.array_equal(a.order, b.order)
    assert not np.array_equal(a.order, c.order)


def test_partition_covers_all_items_disjointly():
    part = shuffle_partition(23, 5, seed=1)
    seen = np.concatenate(part.blocks)
    assert sorted(seen.tolist()) == list(range(23))


def test_partition_rejects_bad_k():
    with pytest.raises(ValueError):
        shuffle_partition(3, 0, seed=0)


def _square_all(block):
    return [x * x for x in block]


def test_map_blocks_k1_equals_pool():
    blocks = [[1, 2], [3], [4, 5, 6], []]
    in_process = map_blocks(_square_all, blocks, k=1)
    assert in_process == [[1, 4], [9], [16, 25, 36], []]
    assert map_blocks(_square_all, blocks, k=2) == in_process
    assert map_blocks(_square_all, blocks, k=4) == in_process


@pytest.fixture
def no_pool():
    parallel._shutdown_pools(wait=True)
    yield
    parallel._shutdown_pools(wait=True)


def test_map_blocks_keeps_one_pool_alive(no_pool, monkeypatch):
    # The calling process runs block 0, so k blocks need k - 1 workers.
    monkeypatch.setattr(parallel, "available_cores", lambda: 8)
    blocks = [[1], [2], [3]]
    map_blocks(_square_all, blocks[:2], k=2)
    assert len(multiprocessing.active_children()) == 1
    assert map_blocks(_square_all, blocks, k=3) == [[1], [4], [9]]
    # the k = 2 worker is gone, the k = 3 workers stay for inspection
    assert len(multiprocessing.active_children()) == 2
    # a smaller count reuses the live pool
    assert map_blocks(_square_all, blocks[:2], k=2) == [[1], [4]]
    assert len(multiprocessing.active_children()) == 2


def test_map_blocks_caps_the_pool_at_the_cores(no_pool, monkeypatch):
    monkeypatch.setattr(parallel, "available_cores", lambda: 2)
    blocks = [[b] for b in range(8)]
    assert map_blocks(_square_all, blocks, k=8) == [[b * b] for b in range(8)]
    assert list(parallel._POOLS) == [1]
    assert len(multiprocessing.active_children()) == 1


def _square_or_raise(block):
    if block == ["boom"]:
        raise ValueError("boom")
    return _square_all(block)


@pytest.mark.parametrize("at", [0, 2])
def test_map_blocks_error_leaves_the_pool_usable(no_pool, at):
    blocks = [[1], [2], [3], [4]]
    bad = blocks[:at] + [["boom"]] + blocks[at + 1:]
    with pytest.raises(ValueError, match="boom"):
        map_blocks(_square_or_raise, bad, k=4)
    pools = dict(parallel._POOLS)
    assert map_blocks(_square_all, blocks, k=4) == [[1], [4], [9], [16]]
    assert parallel._POOLS == pools


def test_available_cores_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert parallel.available_cores() == 1
    monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 5)
    assert parallel.available_cores() == 5
