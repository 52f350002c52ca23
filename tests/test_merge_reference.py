"""The array-pass domination filter against the frozenset loop in
`merge_reference`: the same flags, `subset_work` and deadline stops, on
pools with duplicates, nested cliques and long posting lists."""
import tracemalloc

import numpy as np
import pytest

import merge_reference as ref
from cgcuts import merge, parallel
from cgcuts.model_io import code_type
from conftest import plain_table


@pytest.fixture
def small_chunks(monkeypatch):
    """`merge._CHUNK` = 5, also in the workers, which are forked
    again so that they see it."""
    monkeypatch.setattr(merge, "_CHUNK", 5)
    parallel._shutdown_pools()
    yield
    parallel._shutdown_pools()


class Clock:
    """A monotonic clock that advances by one at every reading."""

    def __init__(self):
        self.now = 0

    def monotonic(self):
        self.now += 1
        return self.now - 1


def assert_same_flags(pool, k, deadline=None):
    """`pool` is a list of sorted node tuples."""
    got_c, want_c = {}, {}
    got = merge.removal_flags(plain_table(pool), k, counters=got_c, deadline=deadline)
    want = ref.removal_flags(pool, k, counters=want_c, deadline=deadline)
    assert got.tolist() == want.tolist()
    assert got_c == want_c
    return got, got_c


def _random_pool(rng):
    """Cliques over few literals, with copies and sub-cliques of earlier
    ones, so that equal sets, nested sets and long posting lists occur."""
    literals = int(rng.integers(3, 25))
    pool = []
    for _ in range(int(rng.integers(0, 120))):
        r = rng.random()
        if pool and r < 0.2:
            pool.append(pool[int(rng.integers(len(pool)))])
        elif pool and r < 0.4:
            nodes = pool[int(rng.integers(len(pool)))]
            t = int(rng.integers(1, len(nodes) + 1))
            pool.append(tuple(sorted(rng.choice(nodes, size=t, replace=False).tolist())))
        else:
            t = int(rng.integers(1, min(literals, 7) + 1))
            pool.append(tuple(sorted(rng.choice(literals, size=t, replace=False).tolist())))
    return pool


def _fuzz(seed, trials):
    rng = np.random.default_rng(seed)
    removed = 0
    for trial in range(trials):
        pool = _random_pool(rng)
        flags, _ = assert_same_flags(pool, (1, 2, 4)[trial % 3])
        removed += int(flags.sum())
    return removed


def test_fuzz_matches_frozenset_loop():
    assert _fuzz(1401, 300) > 1000


def test_fuzz_matches_frozenset_loop_in_small_chunks(small_chunks):
    assert _fuzz(1402, 300) > 1000


def test_deadline_stops_at_the_same_clique(monkeypatch):
    # Chunks of 256, as the loop polls: deadline d stops both at the d-th
    # poll, which is clique 256 * d, and the flags and work before it agree.
    monkeypatch.setattr(merge, "_CHUNK", 256)
    rng = np.random.default_rng(1403)
    pool = [tuple(sorted(rng.choice(12, size=3, replace=False).tolist()))
            for _ in range(700)]
    for deadline in (0, 1, 2, 3):
        for mod in (merge, ref):
            monkeypatch.setattr(mod, "time", Clock())
        flags, counters = assert_same_flags(pool, 1, deadline)
        assert counters["deadline_hit"] == (deadline < 3)
        assert not flags[256 * deadline:].any()
        assert flags[:256 * deadline].any() == (deadline > 0)


def test_work_counts_candidates_up_to_the_first_dominator():
    # Node 1 is the pivot of {0, 1}: its candidates are {1, 4, 5}, which
    # fails, the later copy {0, 1}, which cannot dominate it, and then
    # {0, 1, 3}, which does: 3 candidates of 2 members. The copy is
    # dominated by the earlier {0, 1} at its first candidate: 2 more.
    pool = [(0, 1), (1, 4, 5), (0, 1), (0, 1, 3), (0, 8), (0, 9)]
    flags, counters = assert_same_flags(pool, 1)
    assert flags.tolist() == [True, False, True, False, False, False]
    assert counters["subset_work"] == 2 * 3 + 2


def test_merge_of_many_copies_stays_linear_in_time_and_memory():
    # 20,000 copies of one clique: every copy but the first is dominated by
    # the first at its first candidate, and the first is tested against all
    # of the others. A pass over every pair would hold 4e8 pairs.
    m, t = 20_000, 5
    pool = plain_table([tuple(range(t))] * m)
    counters = {}
    tracemalloc.start()
    try:
        flags = merge.removal_flags(pool, 1, counters=counters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flags.tolist() == [False] + [True] * (m - 1)
    assert counters["subset_work"] == t * (m - 1) * 2
    assert peak < 12 * (m * t * 8), peak


def test_code_width_switches_at_the_merge_boundary():
    # Membership codes clique * N + node lie below m * N.
    assert code_type(2**31 - 1) is np.int32
    assert code_type(2**31) is np.int64


@pytest.mark.parametrize("m, width", [(46_339, np.int32), (46_341, np.int64)])
def test_matches_frozenset_loop_on_both_sides_of_the_code_boundary(monkeypatch, m, width):
    # The literals of n_b = 23,171, the highest one in use, so N = 46,342
    # and m * N is 2,147,441,938 (int32 codes) or 2,147,534,622 (int64).
    # The last clique, whose codes are the highest, dominates the first.
    n = 2 * 23_171
    rng = np.random.default_rng(1404)
    pool = [(0, n - 1)]
    while len(pool) < m - 1:
        r = rng.random()
        if r < 0.3:  # a copy or a sub-clique of an earlier clique
            nodes = pool[int(rng.integers(len(pool)))]
            t = int(rng.integers(1, len(nodes) + 1))
            pool.append(tuple(sorted(rng.choice(nodes, size=t, replace=False).tolist())))
        else:
            t = int(rng.integers(1, 6))
            pool.append(tuple(sorted(rng.choice(n, size=t, replace=False).tolist())))
    pool.append((0, 1, n - 1))
    seen = set()
    within = merge._within

    def spy(codes, q):
        seen.update({codes.dtype.type, q.dtype.type})
        return within(codes, q)

    monkeypatch.setattr(merge, "_within", spy)
    flags, _ = assert_same_flags(pool, 1)
    assert seen == {width}
    assert flags[0] and flags.sum() > m // 5
