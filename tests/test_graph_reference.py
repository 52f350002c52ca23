"""The suffix-form graph build against the per-clique build in
`graph_reference`: the same CSR arrays and the same `pairs_expanded`,
`pair_cap_hit` and `downsampled`, with and without down-sampling and the
pair cap; plus pinning cases that fail under a design that expands each
family from its original clique, expands a sampled member's suffix, or
writes every clique out pair by pair."""
import tracemalloc

import numpy as np

import cliques_reference
import graph_reference as ref
from cgcuts.cliques import (
    Clique,
    CliqueTable,
    detect_cliques_parallel,
)
from cgcuts import graph
from cgcuts.graph import build_graph_parallel
from cgcuts.parallel import shuffle_partition
from conftest import pbc_table


def _cliques(sequences, rows):
    """The cliques of (seq, head, start) rows, written out."""
    out = []
    for s, head, start in rows:
        nodes = sequences[s]
        members = ((nodes[head],) if head >= 0 else ()) + tuple(nodes[start:])
        out.append(Clique(tuple(sorted(members))))
    return out


def assert_same_build(sequences, rows, n_b, k, seed, **limits):
    """`build_graph_parallel` on the table equals the reference on the
    written-out cliques; returns the stats."""
    got_stats, ref_stats = {}, {}
    got = build_graph_parallel(CliqueTable.of(sequences, rows), n_b, k, seed,
                               stats=got_stats, **limits)
    want = ref.build_graph_parallel(_cliques(sequences, rows), n_b, k, seed,
                                    stats=ref_stats, **limits)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.indices.dtype == want.indices.dtype
    assert got_stats == ref_stats
    return got_stats


def _random_family(rng, n_b):
    """(sequence, rows on it) of a random conflicting knapsack over
    distinct nodes, or None when its top two coefficients do not conflict.
    """
    n = int(rng.integers(2, 14))
    coeffs = sorted(float(a) for a in rng.integers(1, 30, size=n))
    rhs = float(rng.integers(int(coeffs[-1]), int(coeffs[-1] + coeffs[-2]) + 1))
    phi, entries = cliques_reference.detect_indices(coeffs, rhs)
    if phi is None:
        return None
    nodes = tuple(int(v) for v in rng.choice(2 * n_b, size=n, replace=False))
    return nodes, [(-1, phi)] + entries


def _random_input(rng, n_b):
    sequences, rows = [], []
    for _ in range(int(rng.integers(0, 12))):
        if rng.random() < 0.5:
            family = _random_family(rng, n_b)
            if family is None:
                continue
            nodes, members = family
            s = len(sequences)
            sequences.append(nodes)
            rows += [(s, head, start) for head, start in members]
        else:
            t = int(rng.integers(1, min(9, 2 * n_b) + 1))
            nodes = rng.choice(2 * n_b, size=t, replace=False)
            rows.append((len(sequences), -1, 0))
            sequences.append(tuple(sorted(int(v) for v in nodes)))
    order = rng.permutation(len(rows))
    return sequences, [rows[i] for i in order]


def _fuzz(seed: int, trials: int) -> dict:
    """Seeded random builds against the reference; how often each case
    fired."""
    rng = np.random.default_rng(seed)
    fired = {"sampled": 0, "capped": 0, "plain": 0}
    for trial in range(trials):
        n_b = int(rng.integers(8, 40))
        sequences, rows = _random_input(rng, n_b)
        limits = {}
        if rng.random() < 0.5:
            limits["max_clique_sample"] = int(rng.integers(2, 8))
        if rng.random() < 0.5:
            limits["max_pairs"] = int(rng.integers(0, 120))
        k = int(rng.integers(1, 4))
        stats = assert_same_build(sequences, rows, n_b, k, trial, **limits)
        fired["sampled"] += stats["downsampled"] > 0
        fired["capped"] += stats["pair_cap_hit"]
        fired["plain"] += not stats["downsampled"] and not stats["pair_cap_hit"]
    return fired


def test_fuzz_matches_per_clique_build():
    fired = _fuzz(909, 600)
    assert min(fired.values()) >= 50, fired


def test_fuzz_matches_per_clique_build_in_small_slices(monkeypatch):
    # A block writes its codes a few pairs at a time, so most builds cross
    # slice boundaries, inside a star as well as between stars.
    monkeypatch.setattr(graph, "_SLICE_PAIRS", 5)
    fired = _fuzz(910, 300)
    assert min(fired.values()) >= 25, fired


def _seed_where(count: int, first: int, last: int) -> int:
    """A seed whose shuffle of `count` cliques puts clique `first` first
    and `last` last."""
    return next(s for s in range(1000)
                if shuffle_partition(count, 1, s).order[0] == first
                and shuffle_partition(count, 1, s).order[-1] == last)


def test_capped_original_clique_expands_from_another_suffix():
    # Family on nodes 0..5: original {3, 4, 5}, further cliques {2, 4, 5}
    # (2, 4) and {1, 5} (1, 5). The original comes last in the shuffle and
    # the cap admits the other two (3 + 1 pairs): {3, 4} and {3, 5} must
    # stay out, so the family expands from start 4, not from phi = 3.
    sequences = [(0, 1, 2, 3, 4, 5)]
    rows = [(0, -1, 3), (0, 2, 4), (0, 1, 5)]
    seed = _seed_where(3, 1, 0)
    stats = assert_same_build(sequences, rows, 6, 1, seed, max_pairs=4)
    assert stats["pair_cap_hit"] and stats["pairs_expanded"] == 4
    g = build_graph_parallel(CliqueTable.of(sequences, rows), 6, 1, seed,
                             max_pairs=4)
    us, vs = g.edges()
    conflicts = {(u, v) for u, v in zip(us.tolist(), vs.tolist()) if v < 6}
    assert conflicts == {(2, 4), (2, 5), (4, 5), (1, 5)}


def test_sampled_family_member_is_expanded_as_its_sample():
    # The further clique (1, 2) = {1, ..., 5} is one longer than the
    # original {2, ..., 5} and alone exceeds max_clique_sample = 4. Its
    # sample drops one node, so its head star or suffix must not be
    # expanded in full.
    sequences = [(0, 1, 2, 3, 4, 5)]
    rows = [(0, -1, 2), (0, 1, 2)]
    for seed in range(20):
        for k in (1, 2):
            stats = assert_same_build(sequences, rows, 6, k, seed,
                                      max_clique_sample=4)
            assert stats["downsampled"] == 1
            assert stats["pairs_expanded"] == 6 + 6


def test_wide_knapsack_builds_in_memory_proportional_to_edges():
    # Coefficients 1..800 and rhs 800: the further cliques hold 10,666,600
    # pairs, the graph 160,000 conflict edges (a + b >= 801). Written out
    # pair by pair, their codes alone would take 85 MB. The CSR takes
    # 1.24 MB; building both edge directions as int64 codes and sorting a
    # copy of them peaked at 13.5 MB.
    coeffs = list(range(1, 801))
    harvest = detect_cliques_parallel(pbc_table([(coeffs, 800)]), 1, 0)
    (family,) = harvest.families
    table = CliqueTable.of(
        [family.nodes],
        [(0, -1, family.phi)] + [(0, i, s) for i, s in family.entries],
    )
    stats = {}
    tracemalloc.start()
    try:
        g = build_graph_parallel(table, 800, 1, 0, stats=stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats["pairs_expanded"] == 80_200 + 10_666_600
    assert g.stored_nnz == 2 * (160_000 + 800)
    assert peak < 8 * 2**20, peak
