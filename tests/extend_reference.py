"""Per-base clique extension, kept as the oracle for
`cgcuts.extend.extend_parallel`.

Each base is scanned on its own: one sort of its members' CSR rows gives
both whether it is a clique and its common neighbours. Bases past a budget
or deadline stop come back unchanged. A clique is a (sorted nodes, tag)
pair: the longest extension of a base keeps its tag t, the others take
t + 1.
"""
from __future__ import annotations

import time

import numpy as np

from cgcuts.graph import ConflictGraph
from cgcuts.parallel import map_blocks, shuffle_partition


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
        adjacent = set(g.neighbors(u))
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


def _extend_block(args):
    clique_items, n_b, indptr, indices, budget, deadline = args
    g = ConflictGraph(n_b, indptr, indices)
    row = _row_reader(g)
    longs, others = [], []
    touches = 0
    budget_hit = False
    deadline_hit = False
    for step, clq in enumerate(clique_items):
        nodes = clq[0]
        if budget is not None and touches >= budget:
            budget_hit = True
            break
        if deadline is not None and step % 256 == 0 and time.monotonic() >= deadline:
            deadline_hit = True
            break
        is_clique, cands = _scan(nodes, row)
        if not is_clique:
            # capped/down-sampled graphs can miss base edges; pass the
            # base through unchanged rather than extending blind
            touches += len(nodes)
            longs.append(clq)
            continue
        longest, grown, touched = _grow(clq, cands.tolist(), g)
        touches += touched
        longs.append(longest)
        others.extend(grown)
    else:
        step = len(clique_items)
    longs.extend(clique_items[step:])
    return longs, others, budget_hit, touches, deadline_hit, step


def extend_parallel(
    cliques,
    g: ConflictGraph,
    k: int,
    seed: int,
    *,
    per_worker_budget: int | None = None,
    deadline: float | None = None,
    stats: dict | None = None,
):
    """Shuffle-partition the (nodes, tag) cliques and extend each on its own
    worker.

    Each worker stops once it has touched `per_worker_budget` adjacency
    entries (or the monotonic `deadline` passes); the budget is granted once
    per worker for the whole call, and the bases past the stop come back
    unextended. Returns (longest list, others list).
    """
    cliques = list(cliques)
    part = shuffle_partition(len(cliques), k, seed)
    block_args = [
        ([cliques[i] for i in idx], g.n_b, g.indptr, g.indices, per_worker_budget, deadline)
        for idx in part.blocks
    ]
    results = map_blocks(_extend_block, block_args, k)
    longs: list = []
    others: list = []
    budget_hit = False
    deadline_hit = False
    touches = 0
    for bl, bo, bh, bt, dh, _ in results:
        longs.extend(bl)
        others.extend(bo)
        budget_hit = budget_hit or bh
        deadline_hit = deadline_hit or dh
        touches += bt
    if stats is not None:
        stats["ext_budget_hit"] = budget_hit
        stats["ext_touches"] = touches
        stats["deadline_hit"] = deadline_hit
    return longs, others
