"""Maximal clique detection from conflicting knapsacks."""
import itertools

import numpy as np
import pytest

from cgcuts.cliques import ORG, OTHER, detect_cliques_parallel
from conftest import clique_table, cliques_of, knapsack_indices, pbc_table


def orgs_and_others(harvest):
    """The original and the further cliques of a harvest, as sorted node
    tuples in table order."""
    rows = cliques_of(harvest)
    return ([q for q, tag in rows if tag == ORG], [q for q, tag in rows if tag >= OTHER])


def detect_one(coeffs, rhs):
    """(original clique or None, other cliques) of one knapsack whose term
    t is node t."""
    orgs, others = orgs_and_others(detect_cliques_parallel(pbc_table([(coeffs, rhs)]), 1))
    return (orgs[0] if orgs else None), others


def test_worked_example_with_one_other_clique():
    org, others = detect_one([1, 2, 3, 4], 5)
    assert org == (2, 3)
    assert others == [(1, 3)]


def test_all_pairs_conflicting_gives_full_clique():
    org, others = detect_one([3, 3, 3], 5)
    assert org == (0, 1, 2)
    assert others == []


def test_no_conflicts_gives_nothing():
    org, others = detect_one([1, 2], 4)
    assert org is None and others == []


def test_unsorted_coefficients_rejected():
    with pytest.raises(ValueError, match="sorted"):
        knapsack_indices((3.0, 1.0, 2.0), 4.0)


def test_compact_block_materializes_suffix_cliques():
    # The knapsack (10, 11, 12, 13) with phi = 2 and entries (1, 3), (0, 3).
    table = clique_table([(10, 11, 12, 13)], [(0, -1, 2), (0, 1, 3), (0, 0, 3)])
    assert [q for q, _ in cliques_of(table)] == [(12, 13), (11, 13), (10, 13)]
    lens, nodes = table.flat()
    assert lens.tolist() == [2, 2, 2]
    assert nodes.tolist() == [12, 13, 11, 13, 10, 13]


def test_harvest_tags_each_knapsack_first_further_clique():
    harvest = detect_cliques_parallel(pbc_table([([1, 2, 3, 4, 5], 5), ([3, 3, 3], 5)]), 1)
    assert cliques_of(harvest) == [((2, 3, 4), ORG), ((0, 1, 2), ORG),
                                   ((1, 3, 4), OTHER), ((0, 4), OTHER + 1)]
    # the counts the benchmark's tracer reads
    assert len(harvest.c_org) == 2
    assert [len(b.entries) for b in harvest.c_other_blocks] == [2]


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
            assert frozenset(q) in oracle
        # the two largest coefficients always sit in the original clique
        assert {n - 2, n - 1} <= set(org)


def test_other_cliques_have_unique_minimum_member():
    org, others = detect_one([1, 2, 3, 5, 6], 7)
    assert org == (2, 3, 4)
    for q in others:
        low = min(q)
        assert low < min(org)
        assert set(q) - {low} <= set(range(low + 1, 5))


def test_parallel_harvest_matches_serial_union():
    knapsacks = pbc_table([([1, 2, 3, 4], 5), ([3, 3, 3], 5), ([1, 2], 4)])
    for k in (1, 2, 4):
        orgs, others = orgs_and_others(detect_cliques_parallel(knapsacks, k))
        assert set(orgs) == {(2, 3), (0, 1, 2)}
        assert set(others) == {(1, 3)}


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
        got = cliques_of(detect_cliques_parallel(knapsacks, k))
        if baseline is None:
            baseline = got
        assert got == baseline  # the same table, in the same order
    for k in (1, 4):
        assert len(detect_cliques_parallel(pbc_table([]), k)) == 0
