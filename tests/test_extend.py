"""Greedy clique extension against the conflict graph."""
import itertools

import numpy as np

from cgcuts.cliques import ISP, ORG, OSP
from cgcuts.extend import extend_parallel
from cgcuts.graph import build_graph_parallel
from conftest import cliques_of, graph_from_edges, has_edge, plain_table


def is_clique(nodes, g):
    return all(has_edge(g, u, v) for u, v in itertools.combinations(nodes, 2))


def extend_all(bases, g, k, seed, **kw):
    """(longs, others) of the (sorted nodes, tag) `bases`, each a list of
    (sorted nodes, tag) in table order."""
    table = plain_table([q for q, _ in bases], [t for _, t in bases])
    longs, others = extend_parallel(table, g, k, seed, **kw)
    return cliques_of(longs), cliques_of(others)


def extend_one(base, g):
    """(longest extension, other extensions) of one base clique, as node
    tuples."""
    longs, others = extend_all([(base, OSP)], g, 1, seed=0)
    return longs[0][0], [q for q, _ in others]


def added_nodes(base, g):
    """Nodes the extensions of `base` add to it: its common neighbours."""
    longest, others = extend_one(base, g)
    return sorted(set().union(*[longest] + others) - set(base))


TRIANGLE = graph_from_edges([(0, 1), (0, 2), (1, 2)], 3)
PATH = graph_from_edges([(0, 1), (0, 2)], 3)  # 1 - 0 - 2, no 1-2 edge


def test_common_neighbors_on_pure_triangle():
    assert added_nodes((0,), TRIANGLE) == [1, 2]


def test_common_neighbors_of_maximal_clique_is_empty():
    assert added_nodes((0, 1, 2), TRIANGLE) == []


def test_common_neighbors_is_list_intersection():
    # only 2 is adjacent to both members of {0, 1}
    g = graph_from_edges([(0, 1), (0, 2), (1, 2), (0, 3)], 4)
    assert added_nodes((0, 1), g) == [2]


def test_extend_triangle_base_singleton():
    longest, others = extend_one((0,), TRIANGLE)
    assert longest == (0, 1, 2)
    assert others == []


def test_extend_path_tie_breaks_to_first_bucket():
    longest, others = extend_one((0,), PATH)
    assert longest == (0, 1)
    assert others == [(0, 2)]


def test_extend_with_no_candidates_returns_base():
    longest, others = extend_one((0, 1, 2), TRIANGLE)
    assert longest == (0, 1, 2)
    assert others == []


def test_non_clique_base_passes_through_unchanged():
    # a capped or down-sampled graph can miss an edge of a base: {1, 2} is
    # not a clique of PATH, so it is kept as it is and not extended
    bases = [((1, 2), OSP), ((1, 2), ISP)]
    for k in (1, 2):
        stats = {}
        longs, others = extend_all(bases, PATH, k, seed=0, stats=stats)
        assert sorted(longs) == sorted(bases)
        assert others == []
        assert stats["ext_touches"] == 2 + 2  # len(nodes) per base
    longs, others = extend_all(bases + [((0,), ORG)], PATH, 2, seed=0)
    assert sorted(longs) == [((0, 1), ORG), ((1, 2), OSP), ((1, 2), ISP)]
    assert others == [((0, 2), ORG + 1)]


def test_candidate_can_join_several_buckets():
    # 0 is adjacent to 1, 2, 3; 3 is adjacent to both 1 and 2, but 1-2 is
    # not an edge, so 3 lands in both buckets.
    g = graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)], 4)
    longest, others = extend_one((0,), g)
    assert longest == (0, 1, 3)
    assert others == [(0, 2, 3)]


def test_trivial_edges_support_complement_extension():
    g = build_graph_parallel(plain_table([(0, 1)]), 2, 1, seed=0)
    longest, others = extend_one((0,), g)
    # candidates 1 and 2 (= complement of 0) are not adjacent to each other
    assert longest == (0, 1)
    assert others == [(0, 2)]


def random_graph_and_clique(rng, n_b):
    dim = 2 * n_b
    edges = set()
    for _ in range(int(rng.integers(dim, 3 * dim))):
        u, v = rng.choice(dim, size=2, replace=False)
        edges.add((min(u, v), max(u, v)))
    g = build_graph_parallel(plain_table(sorted(edges)), n_b, 1, seed=0)
    return g, random_clique_of(rng, g)


def random_clique_of(rng, g, max_len=3):
    """Grow a random clique of `g` with at most `max_len` members."""
    dim = g.num_nodes
    base = [int(rng.integers(0, dim))]
    for v in rng.permutation(dim):
        v = int(v)
        if v not in base and all(has_edge(g, v, u) for u in base):
            base.append(v)
            if len(base) >= max_len:
                break
    return tuple(sorted(base))


def test_extension_outputs_are_valid_cliques():
    rng = np.random.default_rng(31)
    for _ in range(150):
        n_b = int(rng.integers(2, 10))
        g, base = random_graph_and_clique(rng, n_b)
        longest, others = extend_one(base, g)
        for q in [longest] + others:
            assert set(base) <= set(q)
            assert is_clique(q, g)
            assert len(longest) >= len(q)
        if any(is_clique(base + (v,), g)
               for v in range(g.num_nodes) if v not in base):
            assert len(longest) > len(base)


def test_parallel_equals_sequential_mapping():
    rng = np.random.default_rng(41)
    n_b = 12
    g, _ = random_graph_and_clique(rng, n_b)
    bases = []
    while len(bases) < 60:
        _, base = random_graph_and_clique(rng, n_b)
        try:
            bases.append(base)
        except ValueError:
            continue
    bases = [b for b in bases if is_clique(b, g)]
    assert bases
    expect_longs, expect_others = [], []
    for b in bases:
        longest, others = extend_one(b, g)
        expect_longs.append(longest)
        expect_others.extend(others)
    for k in (1, 4, 8):
        longs, others = extend_all([(b, OSP) for b in bases], g, k, seed=3)
        assert sorted(q for q, _ in longs) == sorted(expect_longs)
        assert sorted(q for q, _ in others) == sorted(expect_others)


def test_parallel_empty_input():
    g = build_graph_parallel(plain_table([]), 2, 1, seed=0)
    assert extend_all([], g, 4, seed=0) == ([], [])


def test_worker_budget_stops_early_and_flags():
    g = TRIANGLE
    bases = [((0,), ORG)] * 50
    stats = {}
    longs, others = extend_all(bases, g, 1, seed=0, budget=5, stats=stats)
    assert stats["ext_budget_hit"]
    # each base touches 4 entries, so the third starts at 8 >= 5 and stops;
    # every base past the stop comes back unextended, with its tag
    assert longs == [((0, 1, 2), ORG)] * 2 + [((0,), ORG)] * 48
    assert others == []
    assert stats["ext_touches"] == 8


def test_touch_counter_accumulates():
    stats = {}
    extend_all([((0,), OSP)], TRIANGLE, 1, seed=0, stats=stats)
    assert stats["ext_touches"] > 0
    assert not stats["deadline_hit"]


BASE_SOURCES = (OSP, ISP, ORG)


def mixed_source_bases(seed, n_b=12, count=60):
    rng = np.random.default_rng(seed)
    g, _ = random_graph_and_clique(rng, n_b)
    bases = [(random_clique_of(rng, g, max_len=2), BASE_SOURCES[i % 3])
             for i in range(count)]
    return g, bases


def test_one_call_keeps_each_base_source():
    # the longest extension keeps the base's tag t, the others take t + 1
    g, bases = mixed_source_bases(53)
    for k in (1, 2):
        longs, others = extend_all(bases, g, k, seed=5)
        assert sorted(t for _, t in longs) == sorted(t for _, t in bases)
        for q, t in longs + [(q, t - 1) for q, t in others]:
            assert any(bt == t and set(b) <= set(q) for b, bt in bases)


def test_one_call_equals_one_call_per_source():
    g, bases = mixed_source_bases(59)
    for k in (1, 2):
        stats = {}
        longs, others = extend_all(bases, g, k, seed=5, stats=stats)
        assert not stats["ext_budget_hit"]
        assert others
        for src in BASE_SOURCES:
            own = [b for b in bases if b[1] == src]
            src_longs, src_others = extend_all(own, g, k, seed=5)
            assert sorted(q for q in longs if q[1] == src) == sorted(src_longs)
            assert sorted(q for q in others if q[1] == src + 1) == sorted(src_others)


def test_graph_memory_is_linear_in_binaries_and_edges():
    n_b = 200_000
    bases = [(0, 1, 2), (1, 2, 3), (5, 7, n_b + 9)]
    g = build_graph_parallel(plain_table(bases), n_b, 1, seed=0)
    # CSR: 8 bytes per node pointer and 4 per stored entry, about 4.8 MB
    assert g.indptr.nbytes + g.indices.nbytes < 16_000_000
    assert g.stored_nnz == 2 * (n_b + 3 + 3 + 3 - 1)
    longs, others = extend_all([((1, 2), OSP)], g, 1, seed=0)
    assert longs == [((0, 1, 2), OSP)]
    assert others == [((1, 2, 3), OSP + 1)]
