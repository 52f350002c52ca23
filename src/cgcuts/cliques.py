"""Maximal clique detection from conflicting knapsack constraints, and the
clique table that every stage reads, from the harvest to the writers.

`detect_cliques_parallel` cuts the knapsack table into at most k
contiguous blocks by `parallel.split`, a knapsack's work being its length
(k = 1 runs in this process); each worker binary-searches every
coefficient-sorted knapsack for its original clique and the further
maximal cliques. `CliqueTable` keeps them in suffix form over the
knapsack's coefficient-ordered nodes, so that graph build expands a
family's nested suffix pairs once, not once per clique. Members are
written out, sorted per clique, where a stage needs them
(`CliqueTable.flat`): the pool order right after the harvest, graph
build's samples, extension, merge and the writers.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model_io import TAGS, stable_order
from .parallel import map_blocks, split
from .presolve import PbcTable, _distinct, _indptr, _ranges, _search, scaled_tol

#: The tags (indices into `model_io.TAGS`) of the cliques of original and
#: inferred set packing rows, of the knapsacks' original cliques and of
#: their first further clique; a knapsack's other further cliques take
#: OTHER + 1. Extension gives a base's longest extension the base's tag t
#: and its other extensions t + 1.
OSP, ISP, ORG, OTHER = (TAGS.index(f"{s}_long") for s in ("osp", "isp", "org", "other"))


@dataclass
class CliqueTable:
    """Cliques in suffix form over shared node sequences, each with a tag.

    Sequence s is `seq_nodes[seq_ptr[s]:seq_ptr[s + 1]]`, of distinct nodes.
    Clique c is {S[head[c]]} | S[start[c]:] for S = sequence `seq[c]`, where
    `head[c]` is a position before `start[c]`, or -1 for none. A knapsack's
    cliques share its coefficient-ordered nodes: its original clique is
    (-1, phi) and each further one (i, sigma). A plain clique is its own
    sequence with (-1, 0). `tag[c]` (uint8) indexes `model_io.TAGS`. All
    but `seq_ptr` and `tag` are int32, as the nodes of a `PbcTable` are,
    which halves what k > 1 sends them in.
    """

    seq_ptr: np.ndarray
    seq_nodes: np.ndarray
    seq: np.ndarray
    head: np.ndarray
    start: np.ndarray
    tag: np.ndarray

    @classmethod
    def plain(cls, lens, nodes, tag) -> "CliqueTable":
        """Clique c is the c-th run of `lens[c]` `nodes`, as its own
        sequence, with `tag` (one for all, or one per clique)."""
        n = len(lens)
        return cls(_indptr(lens), np.asarray(nodes, dtype=np.int32),
                   np.arange(n, dtype=np.int32), np.full(n, -1, dtype=np.int32),
                   np.zeros(n, dtype=np.int32), np.full(n, tag, dtype=np.uint8))

    @classmethod
    def concat(cls, tables) -> "CliqueTable":
        """The cliques of `tables`, one table after the other."""
        seqs = np.cumsum([0] + [len(t.seq_ptr) - 1 for t in tables])
        ends = np.cumsum([0] + [int(t.seq_ptr[-1]) for t in tables])
        return cls(
            np.concatenate([[0]] + [t.seq_ptr[1:] + e for t, e in zip(tables, ends)]),
            np.concatenate([t.seq_nodes for t in tables]),
            np.concatenate([t.seq + s for t, s in zip(tables, seqs)]).astype(np.int32),
            np.concatenate([t.head for t in tables]),
            np.concatenate([t.start for t in tables]),
            np.concatenate([t.tag for t in tables]),
        )

    def __len__(self) -> int:
        return len(self.seq)

    def sizes(self) -> np.ndarray:
        seq_len = self.seq_ptr[self.seq + 1] - self.seq_ptr[self.seq]
        return seq_len - self.start + (self.head >= 0)

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(lengths, nodes), both int64: every clique's members, ascending,
        one clique after the other."""
        lens = self.sizes().astype(np.int64)
        lo = self.seq_ptr[self.seq]
        has = self.head >= 0
        pos = _ranges(lo + self.start - has, self.seq_ptr[self.seq + 1])
        pos[_indptr(lens)[:-1][has]] = (lo + self.head)[has]
        nodes = self.seq_nodes[pos].astype(np.int64)
        # one sort of clique * dim + node orders every clique's members
        shift = np.repeat(np.arange(len(lens)) * (int(nodes.max(initial=0)) + 1), lens)
        nodes += shift
        nodes.sort()
        nodes -= shift
        return lens, nodes

    def order(self) -> np.ndarray:
        """The clique ids by (tag, members) in tuple order, where a prefix
        comes first, and by id on a tie. Ties are refined one member
        position at a time over the cliques still tied, so the passes
        together read each member at most once and hold O(members)."""
        lens, nodes = self.flat()
        first = _indptr(lens)[:-1]
        dim = int(nodes.max(initial=0)) + 2  # a key is 0 past the last member
        order = np.arange(len(lens))
        live = order.copy()  # positions of `order` whose group still ties
        group = self.tag.astype(np.int64)
        p = 0
        while len(live):
            c = order[live]
            key = group * dim
            more = lens[c] > p
            key[more] += nodes[first[c[more]] + p] + 1
            perm = stable_order(key)
            order[live], key = c[perm], key[perm]
            group = np.cumsum(np.diff(key, prepend=-1) != 0) - 1
            tied = np.zeros(len(key) + 1, dtype=bool)
            tied[1:-1] = key[1:] == key[:-1]
            keep = (tied[1:] | tied[:-1]) & (key % dim != 0)
            live, group = live[keep], group[keep]
            p += 1
        return order

    def take(self, idx) -> "CliqueTable":
        """The cliques `idx`, in that order, over the sequences they use."""
        idx = np.asarray(idx, dtype=np.int64)
        used = _distinct(self.seq[idx])
        return CliqueTable(
            _indptr(self.seq_ptr[used + 1] - self.seq_ptr[used]),
            self.seq_nodes[_ranges(self.seq_ptr[used], self.seq_ptr[used + 1])],
            np.searchsorted(used, self.seq[idx]).astype(np.int32),
            self.head[idx],
            self.start[idx],
            self.tag[idx],
        )

    # The harvest's counts as the benchmark's tracer (perfbench/spans.py)
    # reads them; these go when it reads the tags (ROADMAP item 1).
    @property
    def c_org(self) -> np.ndarray:
        return np.flatnonzero(self.tag == ORG)

    @property
    def c_other_blocks(self) -> list:
        return [SimpleNamespace(entries=np.flatnonzero(self.tag >= OTHER))]


def _detect_block(args):
    """Phi (-1 for none), the number of entries and the (i, sigma) entries,
    by falling i, of each knapsack of a block (`indptr`, which may start
    past 0, sorted `coeffs`, `rhs`), in array passes over the whole block.
    With t = rhs + tol, a knapsack conflicts when a[-2] + a[-1] > t; phi is
    the smallest p with a[p] + a[p + 1] > t, a sum that grows with p, so
    phi counts the p below it. From i = phi - 1 down, sigma is
    bisect_right(a, t - a[i]), at least i + 1, up to the first i with
    sigma = n or a[i] + a[sigma] <= t."""
    indptr, c, rhs = args
    indptr = indptr - indptr[0]
    n = np.diff(indptr)
    seg = np.repeat(np.arange(len(n)), n)
    inner = seg[1:] == seg[:-1]
    if np.any((c[:-1] > c[1:]) & inner):
        raise ValueError("knapsack coefficients must be sorted non-decreasing")
    top = np.zeros(len(n))
    two = np.flatnonzero(n >= 2)
    top[two] = c[indptr[two + 1] - 2] + c[indptr[two + 1] - 1]
    over = rhs + scaled_tol(rhs, top)
    hit = (n >= 2) & (top > over)
    below = inner & (c[:-1] + c[1:] <= over[seg[:-1]])
    phi = np.where(hit, np.bincount(seg[:-1][below], minlength=len(n)), 0)
    # One query per i < phi, by falling i, and its bisect_right.
    k = np.repeat(np.arange(len(n)), phi)
    i = phi[k] - 1 - _ranges(np.zeros(len(n), np.int64), phi)
    base, size, x = indptr[k], n[k], over[k] - c[indptr[k] + i]
    sigma = np.maximum(_search(c, base, base + size, x, "right") - base, i + 1)
    stop = sigma >= size
    stop[~stop] = c[(base + i)[~stop]] + c[(base + sigma)[~stop]] <= over[k[~stop]]
    # The entries of a knapsack are its queries before its first stop.
    first = np.full(len(n), len(k))
    np.minimum.at(first, k[stop], np.flatnonzero(stop))
    keep = np.arange(len(k)) < first[k]
    return np.where(hit, phi, -1), np.bincount(k[keep], minlength=len(n)), i[keep], sigma[keep]


def detect_cliques_parallel(s_ck: PbcTable, k: int) -> CliqueTable:
    """Run detection on the blocks of the knapsack table that `split` cuts
    by length.

    The workers see only the coefficients; the table takes its sequences
    from `s_ck` here: one per knapsack with cliques, in table order and
    coefficient order, holding its original clique (tag ORG), then all
    further cliques (OTHER for each knapsack's first, OTHER + 1 for the
    rest). The table is the same for every k.
    """
    ptr = s_ck.indptr
    results = map_blocks(_detect_block, [
        (ptr[a:b + 1], s_ck.coeffs[ptr[a]:ptr[b]], s_ck.rhs[a:b])
        for a, b in split(np.diff(ptr), k)], k)
    phi, count, i, sigma = (np.concatenate([r[j] for r in results]) for j in range(4))
    hit = phi >= 0  # a knapsack without cliques has no entries either
    family = s_ck.take(np.flatnonzero(hit))
    f, count = len(family), count[hit]
    first = np.zeros(len(i), dtype=bool)
    first[_indptr(count)[:-1][count > 0]] = True
    return CliqueTable(
        family.indptr,
        family.nodes.astype(np.int32),
        np.concatenate([np.arange(f), np.repeat(np.arange(f), count)]).astype(np.int32),
        np.concatenate([np.full(f, -1), i]).astype(np.int32),
        np.concatenate([phi[hit], sigma]).astype(np.int32),
        np.concatenate([np.full(f, ORG), np.where(first, OTHER, OTHER + 1)]).astype(np.uint8),
    )
