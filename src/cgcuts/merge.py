"""Domination filtering over a clique pool.

A clique dominates another when the second's literal set is contained in
the first's; dominated cliques are redundant and removed. The pair scan is
screened by (length, min, max) signatures and split across workers.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cliques import Clique
from .parallel import map_blocks


@dataclass
class MergeOutcome:
    kept: list[Clique]
    removed_count: int


def dominates(q1: Clique, q2: Clique) -> bool:
    """True iff q2's literal set is a subset of q1's (two-pointer scan)."""
    a, b = q1.nodes, q2.nodes
    if len(b) > len(a):
        return False
    i = 0
    for x in b:
        while i < len(a) and a[i] < x:
            i += 1
        if i >= len(a) or a[i] != x:
            return False
        i += 1
    return True


def _merge_block(args):
    sets, lens, mins, maxs, j_lo, j_hi, deadline = args
    removed = np.zeros(j_hi - j_lo, dtype=bool)
    work = 0
    deadline_hit = False
    for j in range(j_lo, j_hi):
        if deadline is not None and (j - j_lo) % 256 == 0:
            if time.monotonic() >= deadline:
                deadline_hit = True
                break
        cand = np.nonzero(
            (lens >= lens[j]) & (mins <= mins[j]) & (maxs >= maxs[j])
        )[0]
        sj = sets[j]
        lj = lens[j]
        for i in cand:
            if i == j:
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

    Among equal sets the smallest input index survives; the result is a
    pure function of the input order, independent of k.
    """
    m = len(cliques)
    if m == 0:
        return np.zeros(0, dtype=bool)
    sets = [frozenset(q.nodes) for q in cliques]
    lens = np.array([len(s) for s in sets], dtype=np.int64)
    mins = np.array([q.nodes[0] for q in cliques], dtype=np.int64)
    maxs = np.array([q.nodes[-1] for q in cliques], dtype=np.int64)
    bounds = np.linspace(0, m, k + 1).astype(int)
    block_args = [
        (sets, lens, mins, maxs, int(bounds[t]), int(bounds[t + 1]), deadline)
        for t in range(k)
        if bounds[t] < bounds[t + 1]
    ]
    results = map_blocks(_merge_block, block_args, k)
    flags = np.concatenate([r for r, _, _ in results]) if results else np.zeros(m, bool)
    if counters is not None:
        counters["subset_work"] = sum(w for _, w, _ in results)
        counters["deadline_hit"] = any(d for _, _, d in results)
    return flags


def merge_parallel(
    cliques,
    k: int,
    counters: dict | None = None,
    deadline: float | None = None,
) -> MergeOutcome:
    """Remove every clique whose literal set is contained in another's."""
    cliques = list(cliques)
    flags = removal_flags(cliques, k, counters=counters, deadline=deadline)
    kept = [q for q, dead in zip(cliques, flags) if not dead]
    return MergeOutcome(kept=kept, removed_count=int(flags.sum()))
