"""Greedy multi-clique extension against the conflict graph.

Each base clique is grown by the literals adjacent to all of its members;
candidates are bucketed greedily so one call can yield several extended
cliques, of which the longest is singled out. `parallel.split` cuts the
bases' seeded shuffle order into blocks by count. A block scans `_CHUNK`
bases at a time: the CSR row of each base's member of least degree gives
its candidates, and the other members, by ascending degree, drop those not
in their rows. Only a base with candidates is checked for being a clique:
one without comes back as it is.
"""
from __future__ import annotations

import time

import numpy as np

from .cliques import CliqueTable
from .graph import ConflictGraph
from .parallel import map_blocks, shuffle_order, split
from .presolve import _indptr, _ranges, _search, _within

#: Bases scanned at once; the budget and the deadline are checked once per chunk.
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
    grown = [tuple(sorted(base + tuple(members))) for members in buckets]
    return grown[best], grown[:best] + grown[best + 1:], touched


def _adjacent(g: ConflictGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each v[i] is in the sorted row of u[i]: a `_search` of all
    the rows at once, which needs no second copy of the graph."""
    end = g.indptr[u + 1]
    pos = _search(g.indices, g.indptr[u], end, v)
    return (pos < end) & (g.indices[np.minimum(pos, len(g.indices) - 1)] == v)


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

    Chunks are scanned while the block's own touches are below `budget`
    and the deadline has not passed at the chunk start, so a block may scan
    up to one chunk past the budget; the caller's cut discards that work.
    Returns (the cliques of the bases that grew, as flat nodes, lengths and
    the position of their base, each base's longest first; each base's
    touches, inf for a base not scanned).
    """
    nodes, lens, n_b, indptr, indices, budget, deadline = args
    g = ConflictGraph(n_b, indptr, indices)
    ptr = _indptr(lens).tolist()
    out_nodes, out_lens, owner = [], [], []
    touches, spent = np.full(len(lens), np.inf), 0.0
    for lo in range(0, len(lens), _CHUNK):
        if spent >= budget or (deadline is not None and time.monotonic() >= deadline):
            break
        t = lens[lo:lo + _CHUNK]
        members = nodes[ptr[lo]:ptr[lo + len(t)]]
        pair_base, pair_node = _candidates(members, t, g)
        bounds = np.flatnonzero(np.diff(pair_base, prepend=-1, append=len(t)))
        ids = pair_base[bounds[:-1]]
        touches[lo:lo + len(t)] = t
        pair_node = pair_node.tolist()
        for i, a, b, clique in zip(ids.tolist(), bounds[:-1].tolist(), bounds[1:].tolist(),
                                   _cliques(members, t, ids, g).tolist()):
            if not clique:
                # capped/down-sampled graphs can miss base edges; pass the
                # base through unchanged rather than extending blind
                continue
            base = tuple(nodes[ptr[lo + i]:ptr[lo + i + 1]].tolist())
            longest, grown, touches[lo + i] = _grow(base, pair_node[a:b], g)
            for q in [longest] + grown:
                out_nodes += q
                out_lens.append(len(q))
                owner.append(lo + i)
        spent += touches[lo:lo + len(t)].sum()
    return (np.array(out_nodes, dtype=np.int64), np.array(out_lens, dtype=np.int64),
            np.array(owner, dtype=np.int64), touches)


def extend_parallel(
    bases: CliqueTable,
    g: ConflictGraph,
    k: int,
    seed: int,
    *,
    budget: int | None = None,
    deadline: float | None = None,
    stats: dict | None = None,
):
    """Extend each block of the bases' shuffle order (`split` by count) on its own worker.

    `budget` is the adjacency-touch budget of the whole call, spent in the
    seeded shuffle order: a base is extended when its block scanned it
    before the monotonic `deadline` passed and the bases before it in that
    order touched fewer than `budget` entries in total. This is the k = 1
    rule at every k, so the output does not depend on k. Returns (longs,
    others), two plain tables: `longs` holds every base, in shuffle order,
    as its longest extension or as it is when it did not grow or lies past
    the cut, with the base's tag t; `others` holds the other extensions,
    with tag t + 1.
    """
    budget = np.inf if budget is None else budget
    lens, nodes = bases.flat()
    ptr = _indptr(lens)
    order = shuffle_order(len(bases), seed)
    long_lens, at = lens[order], ptr[order]  # the bases in shuffle order
    blocks = split(np.ones(len(bases)), k)
    block_args = [(nodes[_ranges(at[a:b], at[a:b] + long_lens[a:b])].astype(g.indices.dtype),
                   long_lens[a:b], g.n_b, g.indptr, g.indices, budget, deadline)
                  for a, b in blocks]
    results = map_blocks(_extend_block, block_args, k)
    touches = np.concatenate([r[3] for r in results])
    spent = np.concatenate(([0.0], np.cumsum(touches)))  # before each base
    cut = int(np.count_nonzero((spent[:-1] < budget) & (touches < np.inf)))
    out_nodes, out_lens = (np.concatenate([r[j] for r in results]) for j in range(2))
    owner = np.concatenate([r[2] + a for r, (a, _) in zip(results, blocks)])
    kept = int(np.searchsorted(owner, cut))  # the grown bases before the cut
    owner, out_lens = owner[:kept], out_lens[:kept]
    out_nodes = out_nodes[:out_lens.sum()]
    longest = np.diff(owner, prepend=-1) != 0  # the first clique of a grown base
    # Each base's clique is a run of [base members, extension members]:
    # its own or, for a grown base, its longest extension's.
    long_lens[owner[longest]] = out_lens[longest]
    at[owner[longest]] = len(nodes) + _indptr(out_lens)[:-1][longest]
    runs = np.concatenate([nodes, out_nodes])[_ranges(at, at + long_lens)]
    rest = ~longest
    if stats is not None:
        stopped = cut < len(touches)
        stats["ext_budget_hit"] = bool(stopped and spent[cut] >= budget)
        stats["ext_touches"] = int(spent[cut])
        stats["deadline_hit"] = stopped and not stats["ext_budget_hit"]
    return (CliqueTable.plain(long_lens, runs, bases.tag[order]),
            CliqueTable.plain(out_lens[rest], out_nodes[np.repeat(rest, out_lens)],
                              bases.tag[order[owner[rest]]] + 1))
