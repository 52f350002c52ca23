"""Maximal clique detection from conflicting knapsack constraints.

`detect_cliques_parallel` shuffle-partitions the knapsack table over k
workers (k = 1 runs in this process); each worker binary-searches every
coefficient-sorted knapsack for its original clique and the further maximal
cliques. Cliques other than the original one are kept in a compact suffix
form because materializing all of them can take quadratic memory.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .parallel import map_blocks, shuffle_partition
from .presolve import TOL, PbcTable

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


@dataclass
class OtherCliqueBlock:
    """Compact storage for the non-original cliques of one knapsack.

    `nodes` is the knapsack's literal list in coefficient order; each entry
    (i, sigma) denotes the clique {nodes[i]} | {nodes[sigma:]}.
    """

    nodes: tuple[int, ...]
    entries: list[tuple[int, int]]

    def materialize(self):
        for i, sigma in self.entries:
            members = (self.nodes[i],) + self.nodes[sigma:]
            yield Clique(tuple(sorted(members)), source=SRC_KNAPSACK_OTHER)


@dataclass
class CliqueHarvest:
    c_org: list[Clique]
    c_other_blocks: list[OtherCliqueBlock]


def _detect_indices(coeffs, rhs: float):
    """Core search on sorted coefficients.

    Returns (phi, [(i, sigma), ...]) with 0-based indices, or (None, [])
    when the two largest coefficients do not conflict.
    """
    n = len(coeffs)
    if any(coeffs[t] > coeffs[t + 1] for t in range(n - 1)):
        raise ValueError("knapsack coefficients must be sorted non-decreasing")
    if n < 2 or coeffs[-2] + coeffs[-1] <= rhs + TOL:
        return None, []
    # smallest phi with a[phi] + a[phi+1] > rhs; the sum is monotone in phi
    lo, hi = 0, n - 2
    while lo < hi:
        mid = (lo + hi) // 2
        if coeffs[mid] + coeffs[mid + 1] > rhs + TOL:
            hi = mid
        else:
            lo = mid + 1
    phi = lo
    entries = []
    for i in range(phi - 1, -1, -1):
        sigma = bisect_right(coeffs, rhs + TOL - coeffs[i])
        if sigma <= i:
            sigma = i + 1
        if sigma >= n or coeffs[i] + coeffs[sigma] <= rhs + TOL:
            break
        entries.append((i, sigma))
    return phi, entries


def _detect_block(knapsacks: PbcTable):
    ptr = knapsacks.indptr.tolist()
    nodes = knapsacks.nodes.tolist()
    coeffs = knapsacks.coeffs.tolist()
    out = []
    for a, b, rhs in zip(ptr, ptr[1:], knapsacks.rhs.tolist()):
        phi, entries = _detect_indices(coeffs[a:b], rhs)
        out.append((tuple(nodes[a:b]), phi, entries))
    return out


def detect_cliques_parallel(s_ck: PbcTable, k: int, seed: int) -> CliqueHarvest:
    """Shuffle-partition the knapsack table and run detection per block.

    The resulting clique set is identical for every k and seed; only the
    order of the harvest lists follows the shuffle.
    """
    part = shuffle_partition(len(s_ck), k, seed)
    results = map_blocks(_detect_block, [s_ck.take(idx) for idx in part.blocks], k)
    harvest = CliqueHarvest(c_org=[], c_other_blocks=[])
    for block_result in results:
        for nodes, phi, entries in block_result:
            if phi is None:
                continue
            harvest.c_org.append(
                Clique(tuple(sorted(nodes[phi:])), source=SRC_KNAPSACK_ORG)
            )
            if entries:
                harvest.c_other_blocks.append(
                    OtherCliqueBlock(nodes=nodes, entries=entries)
                )
    return harvest
