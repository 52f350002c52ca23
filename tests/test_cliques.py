"""Maximal clique detection from conflicting knapsacks."""
import itertools

import numpy as np
import pytest

from cgcuts.cliques import CliqueFamily, detect_cliques_parallel
from conftest import knapsack_indices, pbc_table


def others_of(harvest):
    return [q for block in harvest.c_other_blocks for q in block.materialize()]


def detect_one(coeffs, rhs):
    """(original clique or None, other cliques) of one knapsack whose term
    t is node t."""
    harvest = detect_cliques_parallel(pbc_table([(coeffs, rhs)]), 1, 0)
    org = harvest.c_org[0] if harvest.c_org else None
    return org, others_of(harvest)


def test_worked_example_with_one_other_clique():
    org, others = detect_one([1, 2, 3, 4], 5)
    assert org.nodes == (2, 3)
    assert [q.nodes for q in others] == [(1, 3)]


def test_all_pairs_conflicting_gives_full_clique():
    org, others = detect_one([3, 3, 3], 5)
    assert org.nodes == (0, 1, 2)
    assert others == []


def test_no_conflicts_gives_nothing():
    org, others = detect_one([1, 2], 4)
    assert org is None and others == []


def test_unsorted_coefficients_rejected():
    with pytest.raises(ValueError, match="sorted"):
        knapsack_indices((3.0, 1.0, 2.0), 4.0)


def test_compact_block_materializes_suffix_cliques():
    block = CliqueFamily(nodes=(10, 11, 12, 13), phi=2, entries=[(1, 3), (0, 3)])
    assert [q.nodes for q in block.materialize()] == [(11, 13), (10, 13)]


def brute_force_cliques(coeffs, rhs):
    """All maximal cliques of the pairwise conflict graph a_i + a_j > rhs."""
    n = len(coeffs)
    conflict = [
        [coeffs[i] + coeffs[j] > rhs for j in range(n)] for i in range(n)
    ]
    maximal = set()
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            if all(conflict[i][j] for i, j in itertools.combinations(combo, 2)):
                if not any(
                    all(conflict[i][u] for i in combo)
                    for u in range(n)
                    if u not in combo
                ):
                    maximal.add(frozenset(combo))
    return maximal


def test_detected_cliques_are_sound_and_maximal():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        coeffs = sorted(int(a) for a in rng.integers(1, 12, size=n))
        top_two = coeffs[-1] + coeffs[-2]
        rhs = int(rng.integers(coeffs[-1], top_two + 2))
        org, others = detect_one(coeffs, rhs)
        oracle = brute_force_cliques(coeffs, rhs)
        if org is None:
            assert not oracle or top_two <= rhs
            continue
        for q in [org] + others:
            assert frozenset(q.nodes) in oracle
        # the two largest coefficients always sit in the original clique
        assert {n - 2, n - 1} <= set(org.nodes)


def test_other_cliques_have_unique_minimum_member():
    org, others = detect_one([1, 2, 3, 5, 6], 7)
    assert org.nodes == (2, 3, 4)
    for q in others:
        low = min(q.nodes)
        assert low < min(org.nodes)
        assert set(q.nodes) - {low} <= set(range(low + 1, 5))


def test_parallel_harvest_matches_serial_union():
    knapsacks = pbc_table([([1, 2, 3, 4], 5), ([3, 3, 3], 5), ([1, 2], 4)])
    for k in (1, 2, 4):
        for seed in (0, 1, 99):
            harvest = detect_cliques_parallel(knapsacks, k, seed)
            orgs = {q.nodes for q in harvest.c_org}
            others = {q.nodes for q in others_of(harvest)}
            assert orgs == {(2, 3), (0, 1, 2)}
            assert others == {(1, 3)}


def test_parallel_output_is_thread_invariant_on_random_input():
    rng = np.random.default_rng(23)
    knapsacks = []
    for _ in range(200):
        n = int(rng.integers(2, 13))
        coeffs = sorted(float(a) for a in rng.integers(1, 20, size=n))
        rhs = float(rng.integers(int(coeffs[-1]), int(sum(coeffs[-2:])) + 3))
        knapsacks.append((coeffs, rhs))
    knapsacks = pbc_table(knapsacks)
    baseline = None
    for k in (1, 2, 4, 8):
        harvest = detect_cliques_parallel(knapsacks, k, seed=5)
        got = (
            sorted(q.nodes for q in harvest.c_org),
            sorted(q.nodes for q in others_of(harvest)),
        )
        if baseline is None:
            baseline = got
        assert got == baseline
