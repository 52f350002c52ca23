"""The clique table's write-out and its (tag, members) order, against
`conftest.members_of` and Python's `sorted()` of (tag, tuple) keys, on
suffix-form tables with heads, duplicates, prefixes, single-node and empty
cliques."""
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cgcuts.cliques import CliqueTable, detect_cliques_parallel
from conftest import clique_table, members_of, pbc_table, plain_table


@st.composite
def suffix_tables(draw):
    """A table over few nodes and short sequences, so that equal cliques,
    prefixes of one another and ties on every tag occur."""
    nodes = draw(st.integers(1, 9))
    sequences = draw(st.lists(
        st.lists(st.integers(0, nodes - 1), min_size=1, max_size=6, unique=True),
        min_size=1, max_size=5))
    rows, tags = [], []
    for _ in range(draw(st.integers(0, 25))):
        s = draw(st.integers(0, len(sequences) - 1))
        start = draw(st.integers(0, len(sequences[s])))
        head = draw(st.integers(-1, start - 1))
        rows.append((s, head, start))
        tags.append(draw(st.integers(0, 3)))
    return clique_table(sequences, rows, tags)


def assert_written_out(table):
    lens, nodes = table.flat()
    assert lens.dtype == nodes.dtype == np.int64
    assert lens.tolist() == table.sizes().tolist()
    ends = np.cumsum(lens).tolist()
    for c, (end, n) in enumerate(zip(ends, lens.tolist())):
        assert nodes[end - n:end].tolist() == members_of(table, c).tolist()


def assert_sorted(table):
    keys = [(int(table.tag[c]), tuple(members_of(table, c).tolist())) for c in range(len(table))]
    assert table.order().tolist() == sorted(range(len(table)), key=keys.__getitem__)


@settings(max_examples=300, deadline=None)
@given(suffix_tables())
def test_write_out_and_order_match_python(table):
    assert_written_out(table)
    assert_sorted(table)


def test_prefix_duplicates_and_single_nodes_in_order():
    table = plain_table([(1, 2, 3), (1, 2), (4,), (1, 2), (), (0, 9), (1, 2)],
                        [0, 0, 0, 0, 0, 1, 0])
    # () < (1, 2) x3 by id < (1, 2, 3) < (4,) on tag 0; then tag 1
    assert table.order().tolist() == [4, 1, 3, 6, 0, 2, 5]
    assert_written_out(table)


def test_empty_table():
    table = plain_table([])
    lens, nodes = table.flat()
    assert len(lens) == len(nodes) == len(table.order()) == 0


def test_seeded_knapsack_harvests():
    # Many knapsacks with equal coefficients over shared node ranges: their
    # cliques repeat across knapsacks and nest within one.
    rng = np.random.default_rng(1501)
    for _ in range(40):
        knapsacks = []
        for _ in range(int(rng.integers(1, 12))):
            n = int(rng.integers(2, 9))
            coeffs = sorted(float(a) for a in rng.integers(1, 6, size=n))
            knapsacks.append((coeffs, float(rng.integers(int(coeffs[-1]), 10))))
        table = detect_cliques_parallel(pbc_table(knapsacks), int(rng.integers(1, 4)))
        assert_written_out(table)
        assert_sorted(table)
        assert_sorted(CliqueTable.concat([table, table.take(table.order()), table]))


def test_order_holds_memory_linear_in_the_members():
    # One clique of 5,000 members among 5,000 pairs sharing its first two:
    # a padded matrix of the members would hold 25 million cells.
    long = tuple(range(5000))
    table = plain_table([long] + [(0, 1 + i % 3) for i in range(5000)])
    members = 15_000
    tracemalloc.start()
    try:
        order = table.order()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert order[:3].tolist() == [1, 4, 7]  # (0, 1) x3 by id
    assert order.tolist().index(0) == 1667  # (0, 1, ..., 4999) after every (0, 1)
    assert peak < 16 * 8 * members, peak
