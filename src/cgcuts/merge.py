"""Domination filtering over a clique pool.

A clique whose literal set is contained in another's is dominated: it is
redundant and removed. A clique's dominators contain each of its members,
so the candidates are found in a node -> clique-id index (CSR over the
literal nodes, built once per call): a clique is tested only against the
cliques, at least as long as it, that hold its rarest member.
`parallel.split` cuts the cliques into index ranges by count, one per
worker. A block tests `_CHUNK` cliques at a time, each against windows of
1, 2, 4, ... of its candidates until one holds a dominator: S_j <= S_i when
each of j's members is found in the sorted clique*N + node codes, which are
int32 when m*N fits (`code_type`), else int64. A round tests at most twice
what a one-by-one scan would, never every pair at once.
"""
from __future__ import annotations

import time

import numpy as np

from .cliques import CliqueTable
from .model_io import code_type
from .parallel import map_blocks, split
from .presolve import _indptr, _ranges, _within

#: Cliques tested at once; the deadline is polled once per chunk. Smaller
#: chunks cost more rounds of small array passes.
_CHUNK = 4096


def _merge_block(args):
    nodes, lens, pivots, starts, ids, j_lo, j_hi, deadline = args
    n = len(starts) - 1
    code = code_type(len(lens) * n)
    nodes, ids = nodes.astype(code, copy=False), ids.astype(code, copy=False)
    first = _indptr(lens)
    codes = np.repeat(np.arange(len(lens), dtype=code) * n, lens) + nodes
    removed = np.zeros(j_hi - j_lo, dtype=bool)
    work = 0
    deadline_hit = False
    for lo in range(j_lo, j_hi, _CHUNK):
        if deadline is not None and time.monotonic() >= deadline:
            deadline_hit = True
            break
        j = np.arange(lo, min(lo + _CHUNK, j_hi))
        pos, end = starts[pivots[j]], starts[pivots[j] + 1]
        seen = np.zeros(len(j), dtype=np.int64)  # candidates before `pos`
        width = 1
        while len(j):
            stop = np.minimum(pos + width, end)
            pair = np.repeat(np.arange(len(j)), stop - pos)
            i = ids[_ranges(pos, stop)]
            keep = (i != j[pair]) & (lens[i] >= lens[j[pair]])
            pair, i, jp = pair[keep], i[keep], j[pair[keep]]
            count = np.bincount(pair, minlength=len(j))
            rank = seen[pair] + np.arange(len(pair)) - (np.cumsum(count) - count)[pair]
            q = np.repeat(i * n, lens[jp]) + nodes[_ranges(first[jp], first[jp + 1])]
            missing = np.repeat(np.arange(len(pair)), lens[jp])[~_within(codes, q)]
            hits = np.flatnonzero((np.bincount(missing, minlength=len(pair)) == 0)
                                  & ((lens[i] > lens[jp]) | (i < jp)))
            hits = hits[np.diff(pair[hits], prepend=-1) != 0]  # the first per clique
            removed[jp[hits] - j_lo] = True
            work += int(lens[jp[hits]] @ (rank[hits] + 1))
            seen += count
            left = np.ones(len(j), dtype=bool)  # not dominated yet
            left[pair[hits]] = False
            over = left & (stop == end)
            work += int(lens[j[over]] @ seen[over])
            going = left & (stop < end)
            j, pos, end, seen = j[going], stop[going], end[going], seen[going]
            width *= 2
    return removed, work, deadline_hit


def removal_flags(
    cliques: CliqueTable,
    k: int,
    counters: dict | None = None,
    deadline: float | None = None,
) -> np.ndarray:
    """Boolean flag per clique: True when its set is dominated by another.

    A clique is removed when it is contained in a longer clique, or in an
    equal one with a lower input index; the result is a pure function of
    the input order, independent of k, and so is `subset_work`: the length
    of each clique times the number of candidates it is tested against, up
    to and including its first dominator.
    """
    m = len(cliques)
    lens, flat = cliques.flat()
    owner = np.repeat(np.arange(m, dtype=np.int64), lens)
    # Posting lists: the cliques holding node v are ids[starts[v]:starts[v + 1]],
    # in ascending id order.
    counts = np.bincount(flat)
    starts = _indptr(counts)
    ids = owner[np.argsort(flat, kind="stable")]
    # Pivot of each clique: its member in the fewest cliques, the first in
    # sorted node order on a tie (lexsort is stable in the position).
    pivots = flat[np.lexsort((counts[flat], owner))[np.cumsum(lens) - lens]]
    small = code_type(max(len(counts), m))
    flat, ids, pivots = flat.astype(small), ids.astype(small), pivots.astype(small)
    block_args = [(flat, lens, pivots, starts, ids, a, b, deadline)
                  for a, b in split(np.ones(m), k)]
    results = map_blocks(_merge_block, block_args, k)
    flags = np.concatenate([r for r, _, _ in results])
    if counters is not None:
        counters["subset_work"] = sum(w for _, w, _ in results)
        counters["deadline_hit"] = any(d for _, _, d in results)
    return flags
