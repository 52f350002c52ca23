"""Maximal clique detection from conflicting knapsack constraints, and the
clique table that graph build reads.

`detect_cliques_parallel` shuffle-partitions the knapsack table over k
workers (k = 1 runs in this process); each worker binary-searches every
coefficient-sorted knapsack for its original clique and the further maximal
cliques. A knapsack's cliques are kept in a compact suffix form over its
coefficient-ordered nodes, because materializing all of them can take
quadratic memory, and `CliqueTable` keeps that form.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from .parallel import map_blocks, shuffle_partition
from .presolve import PbcTable, _distinct, _indptr, _segment_positions, scaled_tol

SRC_OSP = "osp"
SRC_ISP = "isp"
SRC_KNAPSACK_ORG = "knapsack_org"
SRC_KNAPSACK_OTHER = "knapsack_other"


@dataclass(frozen=True, order=True)
class Clique:
    """Sorted conflict-graph node indices asserting pairwise conflict."""

    nodes: tuple[int, ...]
    source: str = ""

    def __len__(self) -> int:
        return len(self.nodes)


#: Sort key giving `Clique`'s field order, without the generated `__lt__`.
clique_order = attrgetter("nodes", "source")


@dataclass
class CliqueFamily:
    """The maximal cliques of one conflicting knapsack in suffix form.

    `nodes` is the knapsack's node list in coefficient order. The original
    clique is nodes[phi:]; each entry (i, sigma), i < phi <= sigma, denotes
    the further clique {nodes[i]} | nodes[sigma:].
    """

    nodes: tuple[int, ...]
    phi: int
    entries: list[tuple[int, int]]

    def original(self) -> Clique:
        return Clique(tuple(sorted(self.nodes[self.phi:])), source=SRC_KNAPSACK_ORG)

    def materialize(self):
        """The further cliques, in entry order."""
        for i, sigma in self.entries:
            members = (self.nodes[i],) + self.nodes[sigma:]
            yield Clique(tuple(sorted(members)), source=SRC_KNAPSACK_OTHER)


@dataclass
class CliqueHarvest:
    """One family per knapsack whose two largest coefficients conflict."""

    families: list[CliqueFamily]

    @property
    def c_org(self) -> list[Clique]:
        return [f.original() for f in self.families]

    @property
    def c_other_blocks(self) -> list[CliqueFamily]:
        """The families that have further cliques."""
        return [f for f in self.families if f.entries]


@dataclass
class CliqueTable:
    """Cliques in suffix form over shared node sequences.

    Sequence s is `seq_nodes[seq_ptr[s]:seq_ptr[s + 1]]`, of distinct nodes.
    Clique c is {S[head[c]]} | S[start[c]:] for S = sequence `seq[c]`, where
    `head[c]` is a position before `start[c]`, or -1 for none. A knapsack's
    cliques share its coefficient-ordered nodes: its original clique is
    (-1, phi) and each further one (i, sigma). A plain clique is its own
    sorted sequence with (-1, 0). All but `seq_ptr` are int32, as the nodes
    of a `PbcTable` are, which halves what k > 1 sends them in.
    """

    seq_ptr: np.ndarray
    seq_nodes: np.ndarray
    seq: np.ndarray
    head: np.ndarray
    start: np.ndarray

    @classmethod
    def of(cls, sequences, rows) -> "CliqueTable":
        """Table of node `sequences` and one (seq, head, start) per clique."""
        lens = [len(s) for s in sequences]
        nodes = np.fromiter(chain.from_iterable(sequences), dtype=np.int32,
                            count=sum(lens))
        cols = np.array(rows, dtype=np.int32).reshape(-1, 3).T
        return cls(_indptr(lens), nodes, *(np.ascontiguousarray(c) for c in cols))

    @classmethod
    def plain(cls, cliques) -> "CliqueTable":
        """Each `Clique` as its own sequence."""
        sequences = [q.nodes for q in cliques]
        return cls.of(sequences, [(s, -1, 0) for s in range(len(sequences))])

    def __len__(self) -> int:
        return len(self.seq)

    def sizes(self) -> np.ndarray:
        seq_len = self.seq_ptr[self.seq + 1] - self.seq_ptr[self.seq]
        return seq_len - self.start + (self.head >= 0)

    def members(self, c: int) -> np.ndarray:
        """The nodes of clique c, ascending."""
        nodes = self.seq_nodes[self.seq_ptr[self.seq[c]]:self.seq_ptr[self.seq[c] + 1]]
        head = nodes[self.head[c]:self.head[c] + 1] if self.head[c] >= 0 else nodes[:0]
        return np.sort(np.concatenate([head, nodes[self.start[c]:]]))

    def take(self, idx) -> "CliqueTable":
        """The cliques `idx`, in that order, over the sequences they use."""
        idx = np.asarray(idx, dtype=np.int64)
        used = _distinct(self.seq[idx])
        return CliqueTable(
            _indptr(self.seq_ptr[used + 1] - self.seq_ptr[used]),
            self.seq_nodes[_segment_positions(self.seq_ptr, used)],
            np.searchsorted(used, self.seq[idx]).astype(np.int32),
            self.head[idx],
            self.start[idx],
        )


def _detect_indices(coeffs, rhs: float):
    """Core search on sorted coefficients.

    Returns (phi, [(i, sigma), ...]) with 0-based indices, or (None, [])
    when the two largest coefficients do not conflict.
    """
    n = len(coeffs)
    if any(coeffs[t] > coeffs[t + 1] for t in range(n - 1)):
        raise ValueError("knapsack coefficients must be sorted non-decreasing")
    if n < 2:
        return None, []
    tol = float(scaled_tol(rhs, coeffs[-2] + coeffs[-1]))
    if coeffs[-2] + coeffs[-1] <= rhs + tol:
        return None, []
    # smallest phi with a[phi] + a[phi+1] > rhs; the sum is monotone in phi
    lo, hi = 0, n - 2
    while lo < hi:
        mid = (lo + hi) // 2
        if coeffs[mid] + coeffs[mid + 1] > rhs + tol:
            hi = mid
        else:
            lo = mid + 1
    phi = lo
    entries = []
    for i in range(phi - 1, -1, -1):
        sigma = bisect_right(coeffs, rhs + tol - coeffs[i])
        if sigma <= i:
            sigma = i + 1
        if sigma >= n or coeffs[i] + coeffs[sigma] <= rhs + tol:
            break
        entries.append((i, sigma))
    return phi, entries


def _detect_block(args):
    """(phi, entries) of each knapsack of one block, from its `indptr`,
    `coeffs` and `rhs`."""
    indptr, coeffs, rhs = args
    ptr = indptr.tolist()
    coeffs = coeffs.tolist()
    return [_detect_indices(coeffs[a:b], r)
            for a, b, r in zip(ptr, ptr[1:], rhs.tolist())]


def detect_cliques_parallel(s_ck: PbcTable, k: int, seed: int) -> CliqueHarvest:
    """Shuffle-partition the knapsack table and run detection per block.

    The workers see only the coefficients; the families take their nodes
    from `s_ck` here. The clique set is identical for every k and seed;
    only the order of the families follows the shuffle.
    """
    part = shuffle_partition(len(s_ck), k, seed)
    blocks = [s_ck.take(idx) for idx in part.blocks]
    results = map_blocks(
        _detect_block, [(b.indptr, b.coeffs, b.rhs) for b in blocks], k
    )
    ptr = s_ck.indptr.tolist()
    nodes = s_ck.nodes.tolist()
    families = []
    for idx, found in zip(part.blocks, results):
        for j, (phi, entries) in zip(idx.tolist(), found):
            if phi is not None:
                families.append(
                    CliqueFamily(tuple(nodes[ptr[j]:ptr[j + 1]]), phi, entries)
                )
    return CliqueHarvest(families)
