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


def test_map_blocks_keeps_one_pool_alive():
    parallel._shutdown_pools(wait=True)  # start without a pool
    blocks = [[1], [2], [3]]
    map_blocks(_square_all, blocks[:2], k=2)
    assert len(multiprocessing.active_children()) == 2
    assert map_blocks(_square_all, blocks, k=3) == [[1], [4], [9]]
    # the k = 2 workers are gone, the k = 3 workers stay for inspection
    assert len(multiprocessing.active_children()) == 3
    # a smaller count reuses the live pool
    assert map_blocks(_square_all, blocks[:2], k=2) == [[1], [4]]
    assert len(multiprocessing.active_children()) == 3
