"""Greedy multi-clique extension against the conflict graph.

Each base clique is grown by the literals adjacent to all of its members;
candidates are bucketed greedily so one call can yield several extended
cliques, of which the longest is singled out.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .cliques import Clique
from .graph import ConflictGraph, _bits
from .parallel import map_blocks, shuffle_partition


@dataclass
class ExtensionResult:
    longest: Clique
    others: list[Clique]


def common_neighbors(clq: Clique, g: ConflictGraph) -> list[int]:
    """Nodes adjacent to every member of `clq`, excluding the clique itself.

    Neighbor rows are intersected smallest-degree first.
    """
    rows = g.bitrows
    members = sorted(clq.nodes, key=lambda v: rows[v].bit_count())
    inter = -1
    for v in members:
        inter &= rows[v]
        if not inter:
            break
    mask = 0
    for v in clq.nodes:
        mask |= 1 << v
    inter &= ~mask
    # mask out anything beyond the node range (from the -1 seed)
    inter &= (1 << g.num_nodes) - 1
    return _bits(inter)


def _is_clique_of(clq: Clique, g: ConflictGraph) -> bool:
    rows = g.bitrows
    mask = 0
    for v in clq.nodes:
        mask |= 1 << v
    for v in clq.nodes:
        need = mask ^ (1 << v)
        if rows[v] & need != need:
            return False
    return True


def _check_is_clique(clq: Clique, g: ConflictGraph):
    if not _is_clique_of(clq, g):
        raise ValueError(f"input {clq.nodes} is not a clique of the graph")


def extend_clique(
    clq: Clique, g: ConflictGraph, counters: dict | None = None
) -> ExtensionResult:
    """Grow `clq` greedily; returns the longest extension and all others.

    Candidates are processed in ascending node order; a candidate joins
    every bucket it is fully adjacent to, or opens a new one. Ties for the
    longest bucket go to the earliest-created bucket.
    """
    _check_is_clique(clq, g)
    rows = g.bitrows
    cands = common_neighbors(clq, g)
    touched = len(clq.nodes) + len(cands)
    if not cands:
        if counters is not None:
            counters["touches"] = counters.get("touches", 0) + touched
        return ExtensionResult(longest=clq, others=[])
    buckets: list[tuple[int, list[int]]] = []  # (mask, members), creation order
    for u in cands:
        row_u = rows[u]
        bit_u = 1 << u
        joined = False
        for t in range(len(buckets)):
            mask, members = buckets[t]
            touched += len(members)
            if row_u & mask == mask:
                members.append(u)
                buckets[t] = (mask | bit_u, members)
                joined = True
        if not joined:
            buckets.append((bit_u, [u]))
    best = 0
    for t in range(1, len(buckets)):
        if len(buckets[t][1]) > len(buckets[best][1]):
            best = t
    base = clq.nodes
    longest = Clique(tuple(sorted(base + tuple(buckets[best][1]))), source=clq.source)
    others = [
        Clique(tuple(sorted(base + tuple(members))), source=clq.source)
        for t, (_, members) in enumerate(buckets)
        if t != best
    ]
    if counters is not None:
        counters["touches"] = counters.get("touches", 0) + touched
    return ExtensionResult(longest=longest, others=others)


def _extend_block(args):
    clique_items, bitrows, n_b, budget, deadline = args
    g = _GraphView(bitrows, n_b)
    longs, others = [], []
    touches = 0
    budget_hit = False
    deadline_hit = False
    counters: dict = {}
    for step, (nodes, source) in enumerate(clique_items):
        if budget is not None and touches >= budget:
            budget_hit = True
            break
        if deadline is not None and step % 256 == 0 and time.monotonic() >= deadline:
            deadline_hit = True
            break
        clq = Clique(nodes, source=source)
        if not _is_clique_of(clq, g):
            # capped/down-sampled graphs can miss base edges; pass the
            # base through unchanged rather than extending blind
            touches += len(nodes)
            longs.append(clq)
            continue
        counters["touches"] = 0
        res = extend_clique(clq, g, counters=counters)
        touches += counters["touches"]
        longs.append(res.longest)
        others.extend(res.others)
    return longs, others, budget_hit, touches, deadline_hit


class _GraphView:
    """Bitrow-only stand-in for ConflictGraph inside workers."""

    def __init__(self, bitrows, n_b):
        self.bitrows = bitrows
        self.n_b = n_b
        self.num_nodes = 2 * n_b


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
    """Shuffle-partition the cliques and extend each on its own worker.

    Each worker stops once it has touched `per_worker_budget` adjacency
    entries (or the monotonic `deadline` passes) and returns what it has;
    the budget is granted once per worker for the whole call. Every result
    keeps its base clique's `source`. Returns (longest list, others list).
    """
    cliques = list(cliques)
    part = shuffle_partition(len(cliques), k, seed)
    block_args = [
        ([(cliques[i].nodes, cliques[i].source) for i in idx], g.bitrows,
         g.n_b, per_worker_budget, deadline)
        for idx in part.blocks
    ]
    results = map_blocks(_extend_block, block_args, k)
    longs: list[Clique] = []
    others: list[Clique] = []
    budget_hit = False
    deadline_hit = False
    touches = 0
    for bl, bo, bh, bt, dh in results:
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
