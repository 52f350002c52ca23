"""Shared fork-join substrate: the seeded order, the block split and the block map."""
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

import graph_reference
from cgcuts import parallel
from cgcuts.model_io import MpsError
from cgcuts.parallel import map_blocks, shuffle_order, split
from cgcuts.presolve import InfeasibleError


def _blocks(bounds):
    return [list(range(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("work, k", [
    ([3, 1, 4, 1, 5, 9, 2, 6], 3), ([1] * 10, 3), ([0, 0, 5, 0, 0], 2),
    ([0] * 4, 3), ([2, 7], 5), ([], 4), ([1, 100, 1, 1], 3), ([5], 1),
])
def test_split_puts_each_item_in_one_block_in_order(work, k):
    bounds = split(work, k)
    assert len(bounds) == k + 1 and bounds[0] == 0 and bounds[-1] == len(work)
    assert np.all(np.diff(bounds) >= 0)  # contiguous blocks, in item order
    assert sum(_blocks(bounds), []) == list(range(len(work)))
    assert np.count_nonzero(np.diff(bounds)) <= k


def test_split_places_an_item_by_the_middle_of_its_work():
    # middles 1.5, 3.5 and 5 of 6 fall in the thirds [0, 2), [2, 4), [4, 6)
    assert _blocks(split([3, 1, 2], 3)) == [[0], [1], [2]]
    assert _blocks(split([1] * 10, 3)) == [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9]]


def test_split_zero_work_items_follow_their_neighbours():
    assert _blocks(split([0, 0, 5, 0, 0], 2)) == [[0, 1], [2, 3, 4]]
    assert _blocks(split([0, 0, 0], 3)) == [[0, 1, 2], [], []]


def test_split_more_blocks_than_items():
    assert _blocks(split([1, 1], 5)) == [[], [0], [], [1], []]
    assert _blocks(split([], 3)) == [[], [], []]


def test_split_one_item_holding_most_of_the_work():
    # the heavy item's block is the one its middle falls in: it holds that
    # item alone, or with the light items before it
    assert _blocks(split([1, 100, 1, 1], 3)) == [[0], [1], [2, 3]]
    assert _blocks(split([1, 100, 1, 1], 2)) == [[0, 1], [2, 3]]
    # its middle, 52 of 102, is in the second third: the third is empty
    assert _blocks(split([1, 1, 100], 3)) == [[0, 1], [2], []]


def test_split_rejects_bad_k():
    with pytest.raises(ValueError, match="k"):
        split([1, 2], 0)


def test_shuffle_order_is_a_permutation():
    assert sorted(shuffle_order(23, seed=1).tolist()) == list(range(23))
    assert len(shuffle_order(0, seed=1)) == 0


def test_shuffle_order_is_deterministic_per_seed():
    a = shuffle_order(50, seed=9)
    assert np.array_equal(a, shuffle_order(50, seed=9))
    assert not np.array_equal(a, shuffle_order(50, seed=10))


def test_shuffle_order_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        shuffle_order(3, seed=-1)


def test_shuffle_order_is_pinned():
    assert shuffle_order(10, seed=0).tolist() == [2, 4, 6, 8, 5, 1, 7, 0, 9, 3]


def test_mix_is_the_splitmix64_stream():
    # 6457827717110365317 is the first value of SplitMix64 seeded with
    # 1234567, the published test value of its reference code.
    assert parallel._mix(np.arange(1), 1234567).tolist() == [6457827717110365317]
    x = np.array([0, 1, 5, 2**32, 2**63 - 1, 2**64 - 2], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning: every operand wraps
        for seed in (0, 7, np.uint64(2**64 - 1)):
            assert parallel._mix(x, seed).tolist() == [
                graph_reference.splitmix64(v, int(seed)) for v in x.tolist()]


def test_mix_with_a_seed_array_is_the_scalar_calls():
    # One seed per element, as graph build hashes each sampled clique's
    # members under that clique's own key.
    x = np.array([0, 3, 3, 9, 2**40, 7], dtype=np.int64)
    seeds = np.array([0, 1, 2**64 - 1, 5, 5, 2**63], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = parallel._mix(x, seeds)
    assert got.dtype == np.uint64
    assert got.tolist() == [int(parallel._mix(v, s)[0]) for v, s in zip(x, seeds)]
    assert got.tolist() == [graph_reference.splitmix64(int(v), int(s))
                            for v, s in zip(x, seeds)]


def _square_all(block):
    return [x * x for x in block]


def test_map_blocks_k1_equals_pool():
    blocks = [[1, 2], [3], [4, 5, 6], []]
    in_process = map_blocks(_square_all, blocks, k=1)
    assert in_process == [[1, 4], [9], [16, 25, 36], []]
    assert map_blocks(_square_all, blocks, k=2) == in_process
    assert map_blocks(_square_all, blocks, k=4) == in_process


@pytest.fixture
def no_workers():
    parallel._shutdown_pools()
    yield
    parallel._shutdown_pools()


def _pids():
    return [w.pid for w in parallel._WORKERS]


def _alive(pid):
    return os.waitpid(pid, os.WNOHANG) == (0, 0)


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_map_blocks_keeps_one_set_of_workers(no_workers, monkeypatch):
    # The calling process runs block 0, so k blocks need k - 1 workers.
    monkeypatch.setattr(parallel, "available_cores", lambda: 8)
    blocks = [[1], [2], [3]]
    map_blocks(_square_all, blocks[:2], k=2)
    [first] = _pids()
    assert map_blocks(_square_all, blocks, k=3) == [[1], [4], [9]]
    # k = 3 forks one more worker beside the k = 2 one; both stay alive
    pids = _pids()
    assert len(pids) == 2 and pids[0] == first
    assert all(_alive(pid) for pid in pids)
    # a smaller count reuses the live workers
    assert map_blocks(_square_all, blocks[:2], k=2) == [[1], [4]]
    assert _pids() == pids


def test_map_blocks_caps_the_workers_at_the_cores(no_workers, monkeypatch):
    monkeypatch.setattr(parallel, "available_cores", lambda: 2)
    blocks = [[b] for b in range(8)]
    assert map_blocks(_square_all, blocks, k=8) == [[b * b] for b in range(8)]
    assert len(_pids()) == 1 and _alive(_pids()[0])


def _square_or_raise(block):
    if block == ["boom"]:
        raise ValueError("boom")
    return _square_all(block)


@pytest.mark.parametrize("at", [0, 2])
def test_map_blocks_error_leaves_the_workers_usable(no_workers, monkeypatch, at):
    # Four blocks on three workers: block 0 is the calling process's, and
    # block 2 is the second worker's share.
    monkeypatch.setattr(parallel, "available_cores", lambda: 4)
    blocks = [[1], [2], [3], [4]]
    bad = blocks[:at] + [["boom"]] + blocks[at + 1:]
    with pytest.raises(ValueError, match="boom") as info:
        map_blocks(_square_or_raise, bad, k=4)
    if at:  # the worker's traceback is chained as the cause
        assert "_square_or_raise" in str(info.value.__cause__)
    pids = _pids()
    assert len(pids) == 3
    assert map_blocks(_square_all, blocks, k=4) == [[1], [4], [9], [16]]
    assert _pids() == pids


def test_map_blocks_replaces_a_killed_worker(no_workers):
    blocks = [[1], [2]]
    map_blocks(_square_all, blocks, k=2)
    [pid] = _pids()
    os.kill(pid, signal.SIGKILL)
    with pytest.raises(RuntimeError, match=f"worker process {pid} died"):
        map_blocks(_square_all, blocks, k=2)
    assert _pids() == [] and _reaped(pid)
    assert map_blocks(_square_all, blocks, k=2) == [[1], [4]]
    assert _pids() != [pid]


class _TwoArgError(Exception):
    # pickles, but cannot be rebuilt from its args
    def __init__(self, a, b):
        super().__init__(a)


def _raise_two_arg(block):
    if block:
        raise _TwoArgError(block, 0)
    return block


def test_map_blocks_unpicklable_error_comes_back_as_its_repr(no_workers):
    with pytest.raises(RuntimeError, match=r"_TwoArgError\(\[2\]\)"):
        map_blocks(_raise_two_arg, [[], [2]], k=2)
    assert map_blocks(_square_all, [[1], [2]], k=2) == [[1], [4]]


def _raise_model_error(block):
    if block == "infeasible":
        raise InfeasibleError(3, "row 3 is infeasible")
    if block == "mps":
        exc = MpsError("bad bound", line=7)
        exc.path = "model.mps"
        raise exc
    return block


@pytest.mark.parametrize("kind, error, text, attrs", [
    ("infeasible", InfeasibleError, "row 3 is infeasible", {"row": 3}),
    ("mps", MpsError, "line 7: bad bound", {"line": 7, "path": "model.mps"}),
])
def test_map_blocks_error_keeps_its_text_and_attributes(no_workers, kind, error, text, attrs):
    # At k = 2 block 1 runs in the worker, so its error crosses a pipe.
    for k in (1, 2):
        with pytest.raises(error) as info:
            map_blocks(_raise_model_error, ["", kind], k=k)
        assert (type(info.value), str(info.value), vars(info.value)) == (error, text, attrs)


class _Abort(BaseException):
    pass


def _abort(block):
    raise _Abort


def test_map_blocks_interrupt_reaps_every_worker(no_workers):
    map_blocks(_square_all, [[1], [2]], k=2)
    pids = _pids()
    with pytest.raises(_Abort):
        map_blocks(_abort, [[1], [2]], k=2)
    assert _pids() == [] and all(_reaped(pid) for pid in pids)


def test_shutdown_reaps_every_worker(no_workers, monkeypatch):
    monkeypatch.setattr(parallel, "available_cores", lambda: 4)
    map_blocks(_square_all, [[1], [2], [3], [4]], k=4)
    pids = _pids()
    assert len(pids) == 3
    parallel._shutdown_pools()
    assert _pids() == [] and all(_reaped(pid) for pid in pids)


def test_no_worker_outlives_its_process():
    code = (
        "from cgcuts import parallel\n"
        "assert parallel.map_blocks(abs, [-1, -2], 2) == [1, 2]\n"
        "print(parallel._WORKERS[0].pid)\n"
    )
    root = os.path.dirname(os.path.dirname(parallel.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    with pytest.raises(ProcessLookupError):
        os.kill(int(out.stdout), 0)


def test_available_cores_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert parallel.available_cores() == 1
    monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 5)
    assert parallel.available_cores() == 5
