"""Conflict graph construction."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgcuts.cliques import Clique, CliqueTable
from cgcuts.graph import build_graph_parallel


def dense_oracle(cliques, n_b, include_trivial=False):
    dim = 2 * n_b
    adj = np.zeros((dim, dim), dtype=bool)
    for q in cliques:
        for u in q.nodes:
            for v in q.nodes:
                if u != v:
                    adj[u, v] = True
    if include_trivial:
        for j in range(n_b):
            adj[j, j + n_b] = adj[j + n_b, j] = True
    return adj


def as_dense(g):
    dim = g.num_nodes
    adj = np.zeros((dim, dim), dtype=bool)
    us, vs = g.edges()
    adj[us, vs] = True
    adj[vs, us] = True
    return adj


def random_cliques(rng, n_b, count, max_len=6):
    out = []
    for _ in range(count):
        t = int(rng.integers(2, min(max_len, 2 * n_b) + 1))
        nodes = rng.choice(2 * n_b, size=t, replace=False)
        out.append(Clique(tuple(sorted(int(v) for v in nodes))))
    return out


def test_build_graph_single_pair():
    g = build_graph_parallel(CliqueTable.plain([Clique((0, 1))]), 2, 1, seed=0)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 3)
    assert g.stored_nnz == 2 * (1 + 2)  # the pair and the 2 trivial edges


def test_build_graph_triangle():
    g = build_graph_parallel(CliqueTable.plain([Clique((0, 1, 2))]), 3, 1, seed=0)
    edges = set(zip(*g.edges()))
    assert edges == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)}


def test_build_graph_matches_dense_oracle():
    rng = np.random.default_rng(1)
    cliques = random_cliques(rng, 20, 50)
    g = build_graph_parallel(CliqueTable.plain(cliques), 20, 1, seed=0)
    assert np.array_equal(
        as_dense(g), dense_oracle(cliques, 20, include_trivial=True)
    )


def test_build_graph_rejects_out_of_range_nodes():
    with pytest.raises(ValueError, match="out of range"):
        build_graph_parallel(CliqueTable.plain([Clique((0, 5))]), 2, 1, seed=0)


def test_parallel_build_adds_trivial_edges():
    g = build_graph_parallel(CliqueTable.plain([]), 3, k=1, seed=0)
    assert set(zip(*g.edges())) == {(0, 3), (1, 4), (2, 5)}
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
    g = build_graph_parallel(CliqueTable.plain(cliques), n_b, k, seed)
    assert np.array_equal(
        as_dense(g), dense_oracle(cliques, n_b, include_trivial=True)
    )


def test_parallel_build_k1_equals_k4():
    rng = np.random.default_rng(9)
    cliques = random_cliques(rng, 15, 60)
    single = build_graph_parallel(CliqueTable.plain(cliques), 15, 1, seed=4)
    assert build_graph_parallel(CliqueTable.plain(cliques), 15, 4, seed=4) == single


def test_pair_expansion_counter():
    cliques = [Clique((0, 1, 2)), Clique((3, 4))]
    stats = {}
    build_graph_parallel(CliqueTable.plain(cliques), 3, 2, seed=0, stats=stats)
    assert stats["pairs_expanded"] == 3 + 1
    assert not stats["pair_cap_hit"]
    assert stats["downsampled"] == 0


def test_downsampling_flag_and_edge_subset():
    big = Clique(tuple(range(10)))
    stats = {}
    g = build_graph_parallel(
        CliqueTable.plain([big]), 5, 1, seed=0, max_clique_sample=4, stats=stats
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
            CliqueTable.plain(cliques), 10, k, seed=7, max_pairs=20, stats=stats
        )
        assert stats["pair_cap_hit"]
        assert stats["pairs_expanded"] <= 20
        if baseline is None:
            baseline = g
        assert g == baseline


def test_neighbors_and_degree():
    g = build_graph_parallel(CliqueTable.plain([Clique((0, 1, 2))]), 3, 1, seed=0)
    assert g.neighbors(0) == [1, 2, 3]
    assert len(g.row(0)) == 3
    assert g.neighbors(4) == [1]
