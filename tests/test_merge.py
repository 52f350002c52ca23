"""Domination filtering of clique pools."""
import numpy as np

from cgcuts.cliques import Clique
from cgcuts.merge import dominates, merge_parallel, removal_flags


def cl(*nodes):
    return Clique(tuple(sorted(nodes)))


def test_dominates_superset():
    assert dominates(cl(0, 1, 2), cl(0, 1))


def test_dominates_incomparable():
    assert not dominates(cl(0, 1), cl(0, 2))
    assert not dominates(cl(0, 1), cl(0, 1, 2))


def test_dominates_equal_sets_both_ways():
    a, b = cl(0, 3), cl(0, 3)
    assert dominates(a, b) and dominates(b, a)


def test_merge_removes_dominated_clique():
    out = merge_parallel([cl(0, 1), cl(0, 1, 2)], k=1)
    assert [q.nodes for q in out.kept] == [(0, 1, 2)]
    assert out.removed_count == 1


def test_merge_equal_sets_keep_first():
    out = merge_parallel([cl(0, 1), cl(0, 1)], k=1)
    assert len(out.kept) == 1
    assert out.removed_count == 1


def test_merge_empty_pool():
    out = merge_parallel([], k=4)
    assert out.kept == [] and out.removed_count == 0


def naive_kept(cliques):
    sets = [frozenset(q.nodes) for q in cliques]
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
    out = merge_parallel(pool, k=1)
    assert [q.nodes for q in out.kept] == [pool[j].nodes for j in expect]
    assert out.removed_count == len(pool) - len(expect)


def test_merge_result_is_an_antichain_with_coverage():
    rng = np.random.default_rng(19)
    for _ in range(20):
        pool = random_pool(rng, literals=14, count=80)
        out = merge_parallel(pool, k=2)
        kept_sets = [frozenset(q.nodes) for q in out.kept]
        for i, a in enumerate(kept_sets):
            for j, b in enumerate(kept_sets):
                if i != j:
                    assert not a < b
        for q in pool:
            s = frozenset(q.nodes)
            assert any(s <= k for k in kept_sets)


def test_merge_is_thread_invariant():
    rng = np.random.default_rng(29)
    pool = random_pool(rng, literals=20, count=300)
    baseline = merge_parallel(pool, k=1)
    for k in (2, 4, 8):
        out = merge_parallel(pool, k=k)
        assert [q.nodes for q in out.kept] == [q.nodes for q in baseline.kept]
        assert out.removed_count == baseline.removed_count


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
