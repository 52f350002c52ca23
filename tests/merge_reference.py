"""Per-clique domination filter with frozenset subset tests, kept as the
oracle for `cgcuts.merge.removal_flags`.

Each clique, a sorted tuple of nodes, is tested, one candidate at a time,
against the cliques at least as long as it that hold its pivot, its member
in the fewest cliques.
"""
from __future__ import annotations

import time

import numpy as np

from cgcuts.parallel import map_blocks


def _merge_block(args):
    sets, lens, pivots, starts, ids, j_lo, j_hi, deadline = args
    lens, pivots = lens.tolist(), pivots.tolist()
    starts, ids = starts.tolist(), ids.tolist()
    removed = np.zeros(j_hi - j_lo, dtype=bool)
    work = 0
    deadline_hit = False
    for j in range(j_lo, j_hi):
        if deadline is not None and (j - j_lo) % 256 == 0:
            if time.monotonic() >= deadline:
                deadline_hit = True
                break
        sj = sets[j]
        lj = lens[j]
        p = pivots[j]
        for i in ids[starts[p]:starts[p + 1]]:
            if i == j or lens[i] < lj:
                continue
            work += lj
            if sj <= sets[i] and (lens[i] > lj or i < j):
                removed[j - j_lo] = True
                break
    return removed, work, deadline_hit


def removal_flags(
    cliques,
    k: int,
    counters: dict | None = None,
    deadline: float | None = None,
) -> np.ndarray:
    """Boolean flag per clique: True when its set is dominated by another.

    A clique is removed when it is contained in a longer clique, or in an
    equal one with a lower input index; the result is a pure function of
    the input order, independent of k, and so is `subset_work`.
    """
    m = len(cliques)
    if m == 0:
        if counters is not None:
            counters.update(subset_work=0, deadline_hit=False)
        return np.zeros(0, dtype=bool)
    sets = [frozenset(q) for q in cliques]
    lens = np.array([len(q) for q in cliques], dtype=np.int64)
    flat = np.fromiter((v for q in cliques for v in q), dtype=np.int64,
                       count=int(lens.sum()))
    owner = np.repeat(np.arange(m, dtype=np.int64), lens)
    # Posting lists: the cliques holding node v are ids[starts[v]:starts[v + 1]],
    # in ascending id order.
    counts = np.bincount(flat)
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    ids = owner[np.argsort(flat, kind="stable")]
    # Pivot of each clique: its member in the fewest cliques, the first in
    # sorted node order on a tie (lexsort is stable in the position).
    first = np.lexsort((counts[flat], owner))[np.cumsum(lens) - lens]
    pivots = flat[first]
    bounds = np.linspace(0, m, k + 1).astype(int)
    block_args = [
        (sets, lens, pivots, starts, ids, int(bounds[t]), int(bounds[t + 1]),
         deadline)
        for t in range(k)
        if bounds[t] < bounds[t + 1]
    ]
    results = map_blocks(_merge_block, block_args, k)
    flags = np.concatenate([r for r, _, _ in results])
    if counters is not None:
        counters["subset_work"] = sum(w for _, w, _ in results)
        counters["deadline_hit"] = any(d for _, _, d in results)
    return flags
