"""Conflict graph construction.

The graph is a symmetric boolean adjacency over 2*n_b literal nodes, stored
once, in compressed sparse row (CSR) form: the neighbours of node u are
`indices[indptr[u]:indptr[u + 1]]`, sorted ascending, and every edge appears
in the rows of both its ends. Memory is O(n_b + edges).

`build_graph_parallel` reads one `CliqueTable`, in which a knapsack's
cliques share its coefficient-ordered node sequence S: the original clique
is S[phi:] and each further one {S[i]} | S[sigma:]. Writing every further
clique out pair by pair would cost the sum of their t(t-1)/2 pairs, far
more than the edges they make. This process derives the chosen cliques'
stars S[h] x S[a:b] once (`_stars`), a down-sampled clique's as those of
a plain run of its own, and `parallel.split` cuts the stars into blocks
by their pairs, so that one wide knapsack can fill every worker. The
codes are upper-triangle edge codes u*(2*n_b)+v (u < v), below
(2*n_b)**2: int32 when that fits (n_b up to 23,170), else int64
(`code_type`). A block writes them into one array `_SLICE_PAIRS` pairs
at a time, so that the node arrays behind them stay small, then sorts it
in place and deduplicates it (k = 1 runs in this process); a worker sends
back its codes at that width. The partial arrays and the n_b
variable/complement edges are sorted runs: one stable sort merges them,
and a pair that two blocks expand is dropped once more.

The CSR is built from the distinct codes alone: the row lengths are the
per-end counts of the codes, each row's upper entries (v > u) are the
codes' high ends in code order, and its lower entries are the low ends of
the codes re-keyed v*(2*n_b)+u and sorted in the memory the high ends
used. The two directions are never both held as codes, so a build peaks
at a small multiple of its codes plus the CSR.
"""
from __future__ import annotations

import numpy as np

from .cliques import CliqueTable
from .model_io import _check_nodes, code_type
from .parallel import _mix, map_blocks, shuffle_order, split
from .presolve import _distinct, _indptr, _ranges


class ConflictGraph:
    """Symmetric sparse boolean adjacency over 2*n_b literal nodes (CSR)."""

    def __init__(self, n_b: int, indptr: np.ndarray, indices: np.ndarray):
        self.n_b = int(n_b)
        self.indptr = indptr  # row u spans indices[indptr[u]:indptr[u + 1]]
        self.indices = indices  # neighbours, sorted within each row

    @property
    def num_nodes(self) -> int:
        return 2 * self.n_b

    @property
    def stored_nnz(self) -> int:
        return len(self.indices)  # both symmetric entries count

    def row(self, u: int) -> np.ndarray:
        """Sorted neighbours of `u` (a view into `indices`)."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]


#: Pairs written per slice of a block's codes; bounds the node arrays made
#: to write them.
_SLICE_PAIRS = 1 << 16


def _trivial_codes(n_b: int) -> np.ndarray:
    """Codes of the n_b variable/complement edges (j, j + n_b)."""
    j = np.arange(n_b, dtype=code_type((2 * n_b) ** 2))
    return j * (2 * n_b) + (j + n_b)


def _from_codes(n_b: int, parts: list[np.ndarray]) -> ConflictGraph:
    """CSR graph from the sorted upper-triangle code arrays `parts`, which
    it empties, so that each array is freed once it is no longer read."""
    dim = 2 * n_b
    codes = np.concatenate(parts)
    parts.clear()
    # The parts are sorted runs, which a stable sort merges in linear time.
    codes = _distinct(codes, kind="stable")
    high = codes % dim
    codes //= dim
    n_low = np.bincount(high, minlength=dim)
    n_up = np.bincount(codes, minlength=dim)
    counts = np.empty(2 * dim, dtype=np.int64)
    counts[0::2], counts[1::2] = n_low, n_up
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(n_low + n_up, out=indptr[1:])
    # Each row holds its lower entries (columns below the row), then its
    # upper ones: a mask of the upper slots, inverted in place, places both
    # in one pass each.
    mask = np.repeat(np.tile(np.array([False, True]), dim), counts)
    indices = np.empty(len(mask), dtype=code_type(dim))
    indices[mask] = high  # by (row, column), as the codes are sorted
    high *= dim
    high += codes  # re-keyed v*dim + u: sorted, it orders the lower entries
    del codes
    high.sort()
    high %= dim
    np.logical_not(mask, out=mask)
    indices[mask] = high
    return ConflictGraph(n_b, indptr, indices)


def _build_block(args):
    """Distinct upper-triangle codes of one block's stars
    nodes[h] x nodes[a:b], written `_SLICE_PAIRS` pairs at a time."""
    nodes, h, a, b, n_b = args
    ends = np.cumsum(b - a)
    dim, i, done = 2 * n_b, 0, 0
    codes = np.empty(int(ends[-1]) if len(ends) else 0, dtype=code_type(dim * dim))
    while done < len(codes):  # stars i..j-1, at least one, per slice
        j = max(int(np.searchsorted(ends, done + _SLICE_PAIRS, side="right")), i + 1)
        u = np.repeat(nodes[h[i:j]], b[i:j] - a[i:j])
        v = nodes[_ranges(a[i:j], b[i:j])]
        out = codes[done:ends[j - 1]]
        np.minimum(u, v, out=out)
        out *= dim
        out += np.maximum(u, v)
        i, done = j, int(ends[j - 1])
    return _distinct(codes)


def _stars(table: CliqueTable, ids: np.ndarray) -> list[np.ndarray]:
    """[h, a, b], positions in `table.seq_nodes`: the stars S[h] x S[a:b]
    whose pairs are those of the cliques `ids`. A sequence's suffixes are
    nested, so the pairs of its shortest chosen suffix cover every chosen
    suffix's: they are a star per position of that suffix, with the
    positions after it. Each clique with a head adds the star head x
    suffix."""
    ptr, seq = table.seq_ptr, table.seq[ids]
    first = ptr[seq] + table.start[ids]
    shortest = ptr[1:].copy()
    np.minimum.at(shortest, seq, first)
    p = _ranges(shortest, ptr[1:])
    star = table.head[ids] >= 0
    return [np.concatenate([p, (ptr[seq] + table.head[ids])[star]]),
            np.concatenate([p + 1, first[star]]),
            np.concatenate([np.repeat(ptr[1:], ptr[1:] - shortest), ptr[seq + 1][star]])]


def build_graph_parallel(
    table: CliqueTable,
    n_b: int,
    k: int,
    seed: int,
    *,
    max_clique_sample: int | None = None,
    max_pairs: int | None = None,
    stats: dict | None = None,
) -> ConflictGraph:
    """Union of the pair sets of all cliques of `table` plus the n_b trivial
    variable/complement edges.

    Down-sampling and the cumulative pair cap are decided in a seeded
    shuffle of the cliques, so the result is identical for every k: a
    clique c longer than `max_clique_sample` keeps its members of smallest
    hash `_mix(member, _mix(c, seed))`, so that its sample depends on
    neither k nor the other cliques, and is expanded as a plain clique; the
    cliques are taken while the sum of their t(t-1)/2 stays within
    `max_pairs`. That sum is the pair budget `pairs_expanded`, not the
    number of codes generated. The trivial edges are not cliques of the
    input, so they neither count toward `max_pairs` nor appear in
    `pairs_expanded`. The chosen cliques' stars (`_stars`) go to at most k
    blocks, split by their pairs, each expanded on its own worker.
    """
    _check_nodes(table.seq_nodes, n_b)
    order = shuffle_order(len(table), seed)
    sizes = table.sizes()[order]
    t = sizes if max_clique_sample is None else np.minimum(sizes, max_clique_sample)
    budget = np.cumsum(t * (t - 1) // 2)
    chosen = len(budget) if max_pairs is None else int(
        np.searchsorted(budget, max_pairs, side="right"))
    cut = t[:chosen] < sizes[:chosen]
    sampled, nodes = order[:chosen][cut], table.seq_nodes
    h, a, b = _stars(table, order[:chosen][~cut])
    if len(sampled):  # each keeps its members of smallest hash, in member order
        lens, members = table.take(sampled).flat()
        by_hash = np.lexsort((_mix(members, np.repeat(_mix(sampled, seed), lens)),
                              np.repeat(np.arange(len(lens)), lens)))
        place = np.arange(len(members)) - np.repeat(_indptr(lens)[:-1], lens)
        keep = np.sort(by_hash[place < max_clique_sample])
        runs = CliqueTable.plain(np.full_like(lens, max_clique_sample), members[keep], 0)
        h, a, b = (np.concatenate([x, y + len(nodes)])
                   for x, y in zip((h, a, b), _stars(runs, np.arange(len(lens)))))
        nodes = np.concatenate([nodes, runs.seq_nodes])
    pairs = b > a  # split gives leading stars of no pairs a block of their own
    h, a, b = (x[pairs].astype(code_type(len(nodes))) for x in (h, a, b))
    results = map_blocks(_build_block, [(nodes, h[i:j], a[i:j], b[i:j], n_b)
                                        for i, j in split(b - a, k)], k)
    if stats is not None:
        stats["pairs_expanded"] = int(budget[chosen - 1]) if chosen else 0
        stats["pair_cap_hit"] = chosen < len(budget)
        stats["downsampled"] = int(np.count_nonzero(t < sizes))
    results.append(_trivial_codes(n_b))
    return _from_codes(n_b, results)
