"""Greedy multi-clique extension against the conflict graph.

Each base clique is grown by the literals adjacent to all of its members;
candidates are bucketed greedily so one call can yield several extended
cliques, of which the longest is singled out. A block scans `_CHUNK` bases
at a time: the CSR row of each base's member of least degree gives its
candidates, and the other members, by ascending degree, drop those not in
their rows. Only a base with candidates is checked for being a clique: one
without comes back as it is.
"""
from __future__ import annotations

import time

import numpy as np

from .cliques import CliqueTable
from .graph import ConflictGraph
from .parallel import map_blocks, shuffle_partition
from .presolve import _indptr, _ranges, _segment_positions, _within

#: Bases scanned at once; the deadline is polled once per chunk.
_CHUNK = 256


def _grow(base: tuple[int, ...], cands: list[int], g: ConflictGraph):
    """Grow the clique `base` greedily by its common neighbours `cands`.

    Candidates are processed in ascending node order; a candidate joins
    every bucket it is fully adjacent to, or opens a new one. Ties for the
    longest bucket go to the earliest-created bucket. Returns the nodes of
    the longest extension, those of all other extensions and the number of
    adjacency entries touched.
    """
    touched = len(base) + len(cands)
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
    grown = [tuple(sorted(base + tuple(members))) for members in buckets]
    return grown[best], grown[:best] + grown[best + 1:], touched


def _adjacent(g: ConflictGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each v[i] is in the sorted row of u[i]: a lower-bound search
    of all the rows at once, one step per bit of the longest row, which
    needs no second copy of the graph."""
    pos, end = g.indptr[u], g.indptr[u + 1]
    top = len(g.indices)
    for bit in reversed(range(int((end - pos).max(initial=0)).bit_length())):
        step = pos + (1 << bit)
        ok = (step <= end) & (g.indices[np.minimum(step, top) - 1] < v)
        pos = np.where(ok, step, pos)
    return (pos < end) & (g.indices[np.minimum(pos, top - 1)] == v)


def _candidates(members, lens, g: ConflictGraph):
    """(base, node) pairs, by base then node, of the nodes outside each base
    that are adjacent to all of its members, which `members` lists sorted,
    one base after the other."""
    dim = g.num_nodes
    base = np.repeat(np.arange(len(lens)), lens)
    members = members.astype(np.int64)
    own = base * dim + members  # sorted, as each base's members are
    # by base, then ascending degree; lexsort keeps node order on a tie
    members = members[np.lexsort((g.indptr[members + 1] - g.indptr[members], base))]
    first = _indptr(lens)[:-1]
    pivot = members[first]
    pair_base = np.repeat(np.arange(len(lens)), g.indptr[pivot + 1] - g.indptr[pivot])
    pair_node = g.indices[_ranges(g.indptr[pivot], g.indptr[pivot + 1])]
    keep = ~_within(own, pair_base * dim + pair_node)
    pair_base, pair_node = pair_base[keep], pair_node[keep]
    rank = 1
    while len(pair_base) and rank < lens[pair_base].max():
        test = np.flatnonzero(lens[pair_base] > rank)
        adjacent = _adjacent(g, members[first[pair_base[test]] + rank], pair_node[test])
        keep = np.ones(len(pair_base), dtype=bool)
        keep[test[~adjacent]] = False
        pair_base, pair_node = pair_base[keep], pair_node[keep]
        rank += 1
    return pair_base, pair_node


def _cliques(members, lens, ids, g: ConflictGraph) -> np.ndarray:
    """Whether each base `ids` is a clique: all its t(t-1)/2 pairs are
    edges. `members` and `lens` are as in `_candidates`."""
    t = lens[ids]
    start = _indptr(lens)[ids]
    pos = _ranges(start, start + t)
    after = np.repeat(start + t, t) - pos - 1
    adjacent = _adjacent(g, np.repeat(members[pos], after),
                         members[_ranges(pos + 1, pos + 1 + after)])
    owner = np.repeat(np.repeat(np.arange(len(ids)), t), after)
    return np.bincount(owner[~adjacent], minlength=len(ids)) == 0


def _extend_block(args):
    """Extend one block's bases, given as flat sorted `nodes` and `lens`.

    Bases are taken in order until the running sum of touches reaches
    `budget`, or the deadline has passed at a chunk start. Returns (the
    cliques of the bases that grew, as flat nodes, lengths and the position
    of their base, each base's longest first; the stop position, which is
    the first base not taken; touches; budget hit; deadline hit).
    """
    nodes, lens, n_b, indptr, indices, budget, deadline = args
    g = ConflictGraph(n_b, indptr, indices)
    budget = np.inf if budget is None else budget
    ptr = _indptr(lens).tolist()
    out_nodes, out_lens, owner = [], [], []
    touches, stop = 0, len(lens)
    budget_hit = deadline_hit = False
    for lo in range(0, len(lens), _CHUNK):
        if touches >= budget:
            budget_hit, stop = True, lo
            break
        if deadline is not None and time.monotonic() >= deadline:
            deadline_hit, stop = True, lo
            break
        t = lens[lo:lo + _CHUNK]
        members = nodes[ptr[lo]:ptr[lo + len(t)]]
        pair_base, pair_node = _candidates(members, t, g)
        bounds = np.flatnonzero(np.diff(pair_base, prepend=-1, append=len(t)))
        ids = pair_base[bounds[:-1]]
        steps = t.astype(np.int64)  # touches per base
        pair_node = pair_node.tolist()
        for i, a, b, clique in zip(ids.tolist(), bounds[:-1].tolist(), bounds[1:].tolist(),
                                   _cliques(members, t, ids, g).tolist()):
            if touches + steps[:i].sum() >= budget:
                break
            if not clique:
                # capped/down-sampled graphs can miss base edges; pass the
                # base through unchanged rather than extending blind
                continue
            base = tuple(nodes[ptr[lo + i]:ptr[lo + i + 1]].tolist())
            longest, grown, steps[i] = _grow(base, pair_node[a:b], g)
            for q in [longest] + grown:
                out_nodes += q
                out_lens.append(len(q))
                owner.append(lo + i)
        ends = touches + np.cumsum(steps)
        cut = int(np.searchsorted(ends, budget)) + 1
        if cut < len(t):
            budget_hit, stop, touches = True, lo + cut, int(ends[cut - 1])
            break
        touches = int(ends[-1])
    return (np.array(out_nodes, dtype=np.int64), np.array(out_lens, dtype=np.int64),
            np.array(owner, dtype=np.int64), stop, touches, budget_hit, deadline_hit)


def extend_parallel(
    bases: CliqueTable,
    g: ConflictGraph,
    k: int,
    seed: int,
    *,
    per_worker_budget: int | None = None,
    deadline: float | None = None,
    stats: dict | None = None,
):
    """Shuffle-partition the bases and extend each block on its own worker.

    Each worker stops once it has touched `per_worker_budget` adjacency
    entries (or the monotonic `deadline` passes); the budget is granted once
    per worker for the whole call. Returns (longs, others), two plain
    tables: `longs` holds every base, in block order, as its longest
    extension or as it is when it did not grow or lies past the stop, with
    the base's tag t; `others` holds the other extensions, with tag t + 1.
    """
    lens, nodes = bases.flat()
    ptr = _indptr(lens)
    part = shuffle_partition(len(bases), k, seed)
    block_args = [
        (nodes[_segment_positions(ptr, idx)].astype(g.indices.dtype), lens[idx], g.n_b,
         g.indptr, g.indices, per_worker_budget, deadline)
        for idx in part.blocks
    ]
    results = map_blocks(_extend_block, block_args, k)
    out_nodes, out_lens = (np.concatenate([r[j] for r in results]) for j in range(2))
    offset = _indptr([len(idx) for idx in part.blocks])
    owner = np.concatenate([r[2] + o for r, o in zip(results, offset.tolist())])
    longest = np.diff(owner, prepend=-1) != 0  # the first clique of a grown base
    # Each base's clique is a run of [base members, extension members]:
    # its own or, for a grown base, its longest extension's.
    order = part.order
    long_lens, at = lens[order], ptr[order]
    long_lens[owner[longest]] = out_lens[longest]
    at[owner[longest]] = len(nodes) + _indptr(out_lens)[:-1][longest]
    runs = np.concatenate([nodes, out_nodes])[_ranges(at, at + long_lens)]
    rest = ~longest
    if stats is not None:
        stats["ext_budget_hit"] = any(r[5] for r in results)
        stats["ext_touches"] = sum(r[4] for r in results)
        stats["deadline_hit"] = any(r[6] for r in results)
    return (CliqueTable.plain(long_lens, runs, bases.tag[order]),
            CliqueTable.plain(out_lens[rest], out_nodes[np.repeat(rest, out_lens)],
                              bases.tag[order[owner[rest]]] + 1))
