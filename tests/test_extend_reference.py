"""The array-pass extension against the serial per-base loop in
`extend_reference`: at k = 1, 2 and 4 the same cliques in the same order
and the same `touches` and flags, and per block the same touches of every
base it scans, with the pair cap and down-sampling leaving non-clique
bases, a binding budget and a deadline each firing."""
import numpy as np
import pytest

import extend_reference as ref
from cgcuts import extend, parallel
from cgcuts.cliques import ISP, ORG, OSP
from cgcuts.graph import build_graph_parallel
from conftest import cliques_of, graph_from_edges, has_edge, plain_table

SOURCES = (OSP, ISP, ORG)


@pytest.fixture
def small_chunks(monkeypatch):
    """`extend._CHUNK` = 3, also in the workers, which are forked
    again so that they see it."""
    monkeypatch.setattr(extend, "_CHUNK", 3)
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


def _sub_clique(rng, nodes):
    t = int(rng.integers(1, len(nodes) + 1))
    return tuple(sorted(int(v) for v in rng.choice(nodes, size=t, replace=False)))


def _random_case(rng):
    """(graph, bases, build stats): a graph from random cliques, some of
    them sampled or cut by the pair cap, and bases taken from subsets of
    those cliques, so that many bases have candidates and some are not
    cliques of the graph."""
    n_b = int(rng.integers(3, 12))
    cliques = [_sub_clique(rng, rng.choice(2 * n_b, size=min(7, 2 * n_b), replace=False))
               for _ in range(int(rng.integers(1, 30)))]
    limits = {}
    if rng.random() < 0.3:
        limits["max_clique_sample"] = int(rng.integers(2, 5))
    if rng.random() < 0.3:
        limits["max_pairs"] = int(rng.integers(0, 40))
    gstats = {}
    g = build_graph_parallel(plain_table(cliques), n_b, 1,
                             int(rng.integers(0, 100)), stats=gstats, **limits)
    bases = [(_sub_clique(rng, cliques[int(rng.integers(len(cliques)))]),
              SOURCES[int(rng.integers(3))])
             for _ in range(int(rng.integers(0, 40)))]
    return g, bases, gstats


def assert_same_extension(bases, g, k, seed, **kw):
    """`bases` are (sorted nodes, tag) pairs."""
    got_stats, want_stats = {}, {}
    table = plain_table([q for q, _ in bases], [t for _, t in bases])
    got = extend.extend_parallel(table, g, k, seed, stats=got_stats, **kw)
    want = ref.extend(bases, g, seed, stats=want_stats, **kw)
    assert cliques_of(got[0]) == want[0]
    assert cliques_of(got[1]) == want[1]
    assert got_stats == want_stats
    return got_stats


def assert_same_block(bases, g, budget, deadline=None):
    """One block of `bases`: each base it scans touches and grows as in the
    per-base loop, and without a deadline it scans whole chunks until its
    touches reach `budget`. Returns how many bases it scanned."""
    flat = np.array([v for q, _ in bases for v in q], dtype=g.indices.dtype)
    lens = np.array([len(q) for q, _ in bases], dtype=np.int64)
    budget = np.inf if budget is None else budget
    nodes, out_lens, owner, touches = extend._extend_block(
        (flat, lens, g.n_b, g.indptr, g.indices, budget, deadline))
    scanned = int(np.count_nonzero(touches < np.inf))
    assert np.isinf(touches[scanned:]).all()
    row = ref._row_reader(g)
    want = [ref.extend_one(clq, row, g) for clq in bases]
    assert touches[:scanned].tolist() == [w[2] for w in want[:scanned]]
    ends = np.cumsum(out_lens).tolist()
    got_grown = [(i, tuple(nodes[e - t:e].tolist()))
                 for i, t, e in zip(owner.tolist(), out_lens.tolist(), ends)]
    assert got_grown == [(i, q) for i, (longest, grown, _) in enumerate(want[:scanned])
                         if longest != bases[i] for q, _ in [longest] + grown]
    if deadline is None:
        spent = np.cumsum([0] + [w[2] for w in want])
        assert scanned == next((lo for lo in range(0, len(bases), extend._CHUNK)
                                if spent[lo] >= budget), len(bases))
    return scanned


def _is_clique(nodes, g):
    return all(has_edge(g, u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:])


def _fuzz(seed, trials):
    rng = np.random.default_rng(seed)
    fired = {"capped": 0, "sampled": 0, "non_clique": 0, "budget": 0, "deadline": 0,
             "grew": 0}
    for trial in range(trials):
        g, bases, gstats = _random_case(rng)
        budget = int(rng.integers(1, 80)) if rng.random() < 0.4 else None
        deadline = 0 if rng.random() < 0.15 else None  # passed before the first poll
        k = (1, 2, 4)[trial % 3]
        stats = assert_same_extension(bases, g, k, trial, budget=budget, deadline=deadline)
        scanned = assert_same_block(bases, g, budget)
        fired["capped"] += gstats["pair_cap_hit"]
        fired["sampled"] += gstats["downsampled"] > 0
        fired["non_clique"] += any(not _is_clique(q, g) for q, _ in bases[:scanned])
        fired["budget"] += stats["ext_budget_hit"]
        fired["deadline"] += stats["deadline_hit"]
        fired["grew"] += stats["ext_touches"] > sum(len(q) for q, _ in bases)
    return fired


def test_fuzz_matches_per_base_loop():
    fired = _fuzz(1301, 300)
    assert min(fired.values()) >= 20, fired


def test_fuzz_matches_per_base_loop_in_small_chunks(small_chunks):
    # Three bases per chunk: blocks stop at many chunk starts, and the
    # stage's cut falls inside chunks, at k = 1 in this process and at
    # k = 2, 4 on the pool.
    fired = _fuzz(1302, 300)
    assert min(fired.values()) >= 20, fired


def test_budget_stop_inside_and_at_start_of_a_chunk(small_chunks):
    # {0} grows to {0, 1, 2} and touches 4 entries, so base i starts at 4i
    # touches. With chunks of 3, one block scans the first chunk for
    # budgets 8, 9 and 12, and the second too for 13; at every k the stage
    # keeps the bases that start below the budget: 2 inside the first
    # chunk, 3 at the start of the second, and 4 inside it.
    g = graph_from_edges([(0, 1), (0, 2), (1, 2)], 3)
    bases = [((0,), OSP)] * 7
    for budget, scanned, stop in ((8, 3, 2), (9, 3, 3), (12, 3, 3), (13, 6, 4)):
        assert assert_same_block(bases, g, budget) == scanned
        for k in (1, 2, 4):
            stats = assert_same_extension(bases, g, k, 0, budget=budget)
            assert stats["ext_touches"] == 4 * stop and stats["ext_budget_hit"]


def test_deadline_stops_at_the_same_base(monkeypatch):
    # The clock advances once per poll: deadline d stops both at the
    # d-th poll, which is base 256 * d.
    rng = np.random.default_rng(1303)
    g, _, _ = _random_case(rng)
    bases = [((int(v),), OSP) for v in rng.integers(0, g.num_nodes, size=700)]
    for deadline in (0, 1, 2, 3):
        for mod in (extend, ref):
            monkeypatch.setattr(mod, "time", Clock())
        assert assert_same_block(bases, g, None, deadline) == min(256 * deadline, 700)
        for mod in (extend, ref):
            monkeypatch.setattr(mod, "time", Clock())
        # at k = 1 the one block runs in this process, on the same clock
        stats = assert_same_extension(bases, g, 1, 0, deadline=deadline)
        assert stats["deadline_hit"] == (deadline < 3)


def test_candidates_die_at_the_last_member():
    # In the base {0, 1, 2}, 2 has the highest degree and is tested last:
    # 3 is adjacent to 0 and 1 but not to 2, and 4 to all three.
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4), (2, 4),
             (2, 5), (2, 6), (2, 7)]
    g = graph_from_edges(edges, 4)
    for k in (1, 2):
        longs, others = extend.extend_parallel(plain_table([(0, 1, 2)]), g, k, 0)
        assert cliques_of(longs) == [((0, 1, 2, 4), OSP)] and len(others) == 0
        assert_same_extension([((0, 1, 2), OSP)], g, k, 0)
