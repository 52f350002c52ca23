"""Domination filtering of clique pools."""
import itertools

import numpy as np

from cgcuts import merge
from conftest import plain_table


def cl(*nodes):
    return tuple(sorted(nodes))


def removal_flags(pool, k, **kw):
    """`merge.removal_flags` of a list of sorted node tuples."""
    return merge.removal_flags(plain_table(pool), k, **kw)


def kept(pool, k):
    return [q for q, dead in zip(pool, removal_flags(pool, k)) if not dead]


def test_dominates_superset():
    assert removal_flags([cl(0, 1, 2), cl(0, 1)], k=1).tolist() == [False, True]


def test_dominates_incomparable():
    assert not removal_flags([cl(0, 1), cl(0, 2)], k=1).any()
    assert removal_flags([cl(0, 1), cl(0, 1, 2)], k=1).tolist() == [True, False]


def test_dominates_equal_sets_both_ways():
    # either copy dominates the other; the lower index survives
    a, b = cl(0, 3), cl(0, 3)
    assert removal_flags([a, b], k=1).tolist() == [False, True]
    assert removal_flags([a, b], k=2).tolist() == [False, True]


def test_merge_removes_dominated_clique():
    pool = [cl(0, 1), cl(0, 1, 2)]
    assert kept(pool, 1) == [(0, 1, 2)]


def test_merge_equal_sets_keep_first():
    assert removal_flags([cl(0, 1), cl(0, 1)], k=1).tolist() == [False, True]


def test_merge_empty_pool():
    assert len(removal_flags([], k=4)) == 0


def naive_kept(cliques):
    sets = [frozenset(q) for q in cliques]
    kept = []
    for j, sj in enumerate(sets):
        dominated = any(
            sj <= si and (len(si) > len(sj) or i < j)
            for i, si in enumerate(sets)
            if i != j
        )
        if not dominated:
            kept.append(j)
    return kept


def random_pool(rng, literals=30, count=500):
    pool = []
    for _ in range(count):
        t = int(rng.integers(2, 7))
        nodes = rng.choice(literals, size=t, replace=False)
        pool.append(cl(*(int(v) for v in nodes)))
    return pool


def test_merge_matches_naive_oracle():
    rng = np.random.default_rng(13)
    pool = random_pool(rng)
    expect = naive_kept(pool)
    assert kept(pool, 1) == [pool[j] for j in expect]


def test_merge_result_is_an_antichain_with_coverage():
    rng = np.random.default_rng(19)
    for _ in range(20):
        pool = random_pool(rng, literals=14, count=80)
        kept_sets = [frozenset(q) for q in kept(pool, 2)]
        for i, a in enumerate(kept_sets):
            for j, b in enumerate(kept_sets):
                if i != j:
                    assert not a < b
        for q in pool:
            s = frozenset(q)
            assert any(s <= k for k in kept_sets)


def test_merge_is_thread_invariant():
    rng = np.random.default_rng(29)
    pool = random_pool(rng, literals=20, count=300)
    baseline = removal_flags(pool, k=1)
    for k in (2, 4, 8):
        assert np.array_equal(removal_flags(pool, k=k), baseline)


def test_merge_work_is_thread_invariant_under_ties():
    # every literal lies in the same number of cliques, so each clique's
    # rarest member is a tie among all its members; the node values all
    # collide in a small hash table, so frozenset order depends on how a
    # set was built and is not a valid tie-break
    lits = [8 * v for v in range(8)]
    pool = [cl(*c) for t in (2, 3, 4) for c in itertools.combinations(lits, t)]
    pool = [pool[i] for i in np.random.default_rng(61).permutation(len(pool))]
    pool = pool + pool[::-1]
    baseline = None
    for k in (1, 2, 4):
        counters = {}
        flags = removal_flags(pool, k, counters=counters)
        if baseline is None:
            baseline = (flags, counters["subset_work"])
        assert np.array_equal(flags, baseline[0])
        assert counters["subset_work"] == baseline[1]
    expect = naive_kept(pool)
    assert kept(pool, 1) == [pool[j] for j in expect]


def test_merge_work_is_sub_quadratic():
    # 2,000 cliques with one shared min and max and equal lengths, none
    # contained in another
    m = 2000
    pool = [cl(0, i, m + 1) for i in range(1, m + 1)]
    counters = {}
    flags = removal_flags(pool, k=1, counters=counters)
    assert not flags.any()
    assert counters["subset_work"] < 10 * sum(len(q) for q in pool)


def test_removal_flags_report_work():
    rng = np.random.default_rng(37)
    pool = random_pool(rng, literals=15, count=50)
    counters = {}
    flags = removal_flags(pool, k=2, counters=counters)
    assert len(flags) == len(pool)
    assert counters["subset_work"] > 0
    assert not counters["deadline_hit"]


def test_removal_flags_respect_deadline():
    rng = np.random.default_rng(43)
    pool = random_pool(rng, literals=20, count=400)
    counters = {}
    flags = removal_flags(pool, k=1, counters=counters,
                          deadline=0.0)
    assert counters["deadline_hit"]
    assert not flags.any()  # nothing marked once the scan was abandoned
