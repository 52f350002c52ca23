"""Serial per-base clique extension, kept as the oracle for
`cgcuts.extend.extend_parallel` at every k.

The bases are scanned one at a time in the seeded shuffle order, and one
sort of each base's members' CSR rows gives both whether it is a clique
and its common neighbours. Bases past a budget or deadline stop come back
unchanged. A clique is a (sorted nodes, tag) pair: the longest extension
of a base keeps its tag t, the others take t + 1.
"""
from __future__ import annotations

import time

import numpy as np

from cgcuts.graph import ConflictGraph
from cgcuts.parallel import shuffle_order


def _row_reader(g: ConflictGraph):
    """`g.row` with the row starts as a Python list, which is faster when
    one worker scans many cliques of the graph."""
    starts, indices = g.indptr.tolist(), g.indices
    return lambda v: indices[starts[v]:starts[v + 1]]


def _scan(nodes, row):
    """(whether `nodes` form a clique, their common neighbours as a sorted
    array), from one sort of the members' rows.

    No row holds its own node, so in the sorted rows a member occurs at most
    t - 1 times, exactly t - 1 times if the members form a clique, and a node
    adjacent to all t members occurs t times.
    """
    t = len(nodes)
    flat = np.sort(np.concatenate([row(v) for v in nodes]))
    q = np.asarray(nodes, dtype=flat.dtype)
    hits = np.searchsorted(flat, q, "right") - np.searchsorted(flat, q, "left")
    head = flat[:max(len(flat) - t + 1, 0)]
    return int(hits.sum()) == t * (t - 1), head[head == flat[t - 1:]]


def _grow(clq, cands: list[int], g: ConflictGraph):
    """Grow the (nodes, tag) clique `clq` greedily by its common neighbours
    `cands`.

    Candidates are processed in ascending node order; a candidate joins
    every bucket it is fully adjacent to, or opens a new one. Ties for the
    longest bucket go to the earliest-created bucket. Returns the longest
    extension, all other extensions and the number of adjacency entries
    touched.
    """
    base, tag = clq
    touched = len(base) + len(cands)
    if not cands:
        return clq, [], touched
    buckets: list[list[int]] = []  # creation order
    for u in cands:
        adjacent = set(g.row(u).tolist())
        joined = False
        for members in buckets:
            touched += len(members)
            if adjacent.issuperset(members):
                members.append(u)
                joined = True
        if not joined:
            buckets.append([u])
    best = 0
    for t in range(1, len(buckets)):
        if len(buckets[t]) > len(buckets[best]):
            best = t
    longest = (tuple(sorted(base + tuple(buckets[best]))), tag)
    others = [
        (tuple(sorted(base + tuple(members))), tag + 1)
        for t, members in enumerate(buckets)
        if t != best
    ]
    return longest, others, touched


def extend_one(clq, row, g: ConflictGraph):
    """(longest extension, other extensions, touches) of the (nodes, tag)
    base `clq`; a base that is not a clique comes back as it is."""
    is_clique, cands = _scan(clq[0], row)
    if not is_clique:
        # capped/down-sampled graphs can miss base edges; pass the
        # base through unchanged rather than extending blind
        return clq, [], len(clq[0])
    return _grow(clq, cands.tolist(), g)


def extend(
    cliques,
    g: ConflictGraph,
    seed: int,
    *,
    budget: int | None = None,
    deadline: float | None = None,
    stats: dict | None = None,
):
    """Extend the (nodes, tag) cliques one at a time, in the order of
    `shuffle_order(len(cliques), seed)`.

    Stops before the first base at which the running sum of touches has
    reached `budget`, or at a base whose position is a multiple of 256 once
    the monotonic `deadline` has passed; the bases past the stop come back
    unextended. Returns (longest list, others list).
    """
    cliques = list(cliques)
    cliques = [cliques[i] for i in shuffle_order(len(cliques), seed)]
    row = _row_reader(g)
    longs, others = [], []
    touches, stop = 0, len(cliques)
    budget_hit = deadline_hit = False
    for step, clq in enumerate(cliques):
        if budget is not None and touches >= budget:
            budget_hit, stop = True, step
            break
        if deadline is not None and step % 256 == 0 and time.monotonic() >= deadline:
            deadline_hit, stop = True, step
            break
        longest, grown, touched = extend_one(clq, row, g)
        touches += touched
        longs.append(longest)
        others.extend(grown)
    longs.extend(cliques[stop:])
    if stats is not None:
        stats["ext_budget_hit"] = budget_hit
        stats["ext_touches"] = touches
        stats["deadline_hit"] = deadline_hit
    return longs, others
