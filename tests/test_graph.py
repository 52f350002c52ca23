"""Conflict graph construction."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgcuts.graph import build_graph_parallel
from conftest import clique_table, graph_edges, has_edge, plain_table, same_graph


def dense_oracle(cliques, n_b, include_trivial=False):
    dim = 2 * n_b
    adj = np.zeros((dim, dim), dtype=bool)
    for q in cliques:
        for u in q:
            for v in q:
                if u != v:
                    adj[u, v] = True
    if include_trivial:
        for j in range(n_b):
            adj[j, j + n_b] = adj[j + n_b, j] = True
    return adj


def as_dense(g):
    dim = g.num_nodes
    adj = np.zeros((dim, dim), dtype=bool)
    us, vs = graph_edges(g)
    adj[us, vs] = True
    adj[vs, us] = True
    return adj


def random_cliques(rng, n_b, count, max_len=6):
    out = []
    for _ in range(count):
        t = int(rng.integers(2, min(max_len, 2 * n_b) + 1))
        nodes = rng.choice(2 * n_b, size=t, replace=False)
        out.append(tuple(sorted(int(v) for v in nodes)))
    return out


def test_build_graph_single_pair():
    g = build_graph_parallel(plain_table([(0, 1)]), 2, 1, seed=0)
    assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
    assert not has_edge(g, 0, 3)
    assert g.stored_nnz == 2 * (1 + 2)  # the pair and the 2 trivial edges


def test_build_graph_triangle():
    g = build_graph_parallel(plain_table([(0, 1, 2)]), 3, 1, seed=0)
    edges = set(zip(*graph_edges(g)))
    assert edges == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)}


def test_build_graph_matches_dense_oracle():
    rng = np.random.default_rng(1)
    cliques = random_cliques(rng, 20, 50)
    g = build_graph_parallel(plain_table(cliques), 20, 1, seed=0)
    assert np.array_equal(
        as_dense(g), dense_oracle(cliques, 20, include_trivial=True)
    )


def test_build_graph_rejects_out_of_range_nodes():
    with pytest.raises(ValueError, match="out of range"):
        build_graph_parallel(plain_table([(0, 5)]), 2, 1, seed=0)


def test_parallel_build_adds_trivial_edges():
    g = build_graph_parallel(plain_table([]), 3, k=1, seed=0)
    assert set(zip(*graph_edges(g))) == {(0, 3), (1, 4), (2, 5)}
    assert g.stored_nnz == 6


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3, 4, 5, 8]),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_parallel_build_equals_serial_for_any_k_and_seed(k, seed, data):
    n_b = data.draw(st.integers(min_value=1, max_value=12))
    m = data.draw(st.integers(min_value=0, max_value=25))
    rng = np.random.default_rng(seed + 1000)
    cliques = random_cliques(rng, n_b, m, max_len=5)
    g = build_graph_parallel(plain_table(cliques), n_b, k, seed)
    assert np.array_equal(
        as_dense(g), dense_oracle(cliques, n_b, include_trivial=True)
    )


def test_parallel_build_k1_equals_k4():
    rng = np.random.default_rng(9)
    cliques = random_cliques(rng, 15, 60)
    single = build_graph_parallel(plain_table(cliques), 15, 1, seed=4)
    assert same_graph(build_graph_parallel(plain_table(cliques), 15, 4, seed=4), single)


def test_pair_expansion_counter():
    cliques = [(0, 1, 2), (3, 4)]
    stats = {}
    build_graph_parallel(plain_table(cliques), 3, 2, seed=0, stats=stats)
    assert stats["pairs_expanded"] == 3 + 1
    assert not stats["pair_cap_hit"]
    assert stats["downsampled"] == 0


def test_downsampling_flag_and_edge_subset():
    big = tuple(range(10))
    stats = {}
    g = build_graph_parallel(
        plain_table([big]), 5, 1, seed=0, max_clique_sample=4, stats=stats
    )
    assert stats["downsampled"] == 1
    assert stats["pairs_expanded"] == 6  # C(4, 2)
    full = dense_oracle([big], 5, include_trivial=True)
    got = as_dense(g)
    assert np.all(full | ~got)  # got is a subset of the full expansion


def test_pair_cap_stops_later_cliques_and_stays_thread_invariant():
    rng = np.random.default_rng(2)
    cliques = random_cliques(rng, 10, 30, max_len=5)
    baseline = None
    for k in (1, 2, 4, 8):
        stats = {}
        g = build_graph_parallel(
            plain_table(cliques), 10, k, seed=7, max_pairs=20, stats=stats
        )
        assert stats["pair_cap_hit"]
        assert stats["pairs_expanded"] <= 20
        if baseline is None:
            baseline = g
        assert same_graph(g, baseline)


def test_neighbors_and_degree():
    g = build_graph_parallel(plain_table([(0, 1, 2)]), 3, 1, seed=0)
    assert g.row(0).tolist() == [1, 2, 3]
    assert len(g.row(0)) == 3
    assert g.row(4).tolist() == [1]


def test_blocks_take_whole_sequences(monkeypatch):
    # Six knapsack families of 30 nodes, each with 20 further cliques, and a
    # few plain cliques: a split of the shuffled cliques puts every family's
    # cliques in both blocks, which then both expand its shared suffix.
    from cgcuts import graph

    rng = np.random.default_rng(5)
    n_b = 200
    sequences, rows = [], []
    for s in range(6):
        sequences.append(tuple(int(v) for v in rng.choice(2 * n_b, 30, replace=False)))
        rows += [(s, -1, 15)] + [(s, i, 15 + i // 4) for i in range(10, 15)]
        rows += [(s, i, 16) for i in range(15)]
    for q in random_cliques(rng, n_b, 8):
        rows.append((len(sequences), -1, 0))
        sequences.append(q)
    table = clique_table(sequences, rows)
    blocks = []

    def spy(fn, args, k):
        blocks.extend(args)
        return [fn(a) for a in args]

    monkeypatch.setattr(graph, "map_blocks", spy)
    want = build_graph_parallel(table, n_b, 1, seed=7)
    for k in (2, 3):
        blocks.clear()
        assert same_graph(build_graph_parallel(table, n_b, k, seed=7), want)
        owner = {}
        for b, (block, _) in enumerate(blocks):
            ptr = block.seq_ptr.tolist()
            for s in np.unique(block.seq).tolist():
                nodes = tuple(block.seq_nodes[ptr[s]:ptr[s + 1]].tolist())
                assert owner.setdefault(nodes, b) == b, "a sequence reached two blocks"
        assert len(owner) == len(sequences)
        # the families' pairs are spread: no block is empty
        assert all(len(block) for block, _ in blocks)
