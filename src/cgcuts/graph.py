"""Conflict graph construction, serial and parallel.

The graph is a symmetric boolean adjacency over 2*n_b literal nodes, stored
as a sorted array of encoded upper-triangle edges. Partial graphs built per
worker are combined with a pairwise OR-reduction tree.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cliques import SRC_TRIVIAL, Clique
from .parallel import map_blocks, reduce_pairwise, shuffle_partition

# Dense bitrow construction is only used below this many matrix cells.
_DENSE_BITROW_CELLS = 200_000_000


class ConflictGraph:
    """Symmetric sparse boolean adjacency over 2*n_b literal nodes."""

    def __init__(self, n_b: int, codes: np.ndarray):
        self.n_b = int(n_b)
        self.codes = codes  # sorted unique u*(2*n_b)+v with u < v
        self._bitrows = None

    @classmethod
    def from_edges(cls, n_b: int, us, vs) -> "ConflictGraph":
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        keep = lo != hi
        codes = _encode(lo[keep], hi[keep], n_b)
        return cls(n_b, np.unique(codes))

    @property
    def num_nodes(self) -> int:
        return 2 * self.n_b

    @property
    def stored_nnz(self) -> int:
        return 2 * len(self.codes)  # both symmetric entries count

    def edges(self):
        dim = self.num_nodes
        return self.codes // dim, self.codes % dim

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        lo, hi = (u, v) if u < v else (v, u)
        code = lo * self.num_nodes + hi
        i = np.searchsorted(self.codes, code)
        return i < len(self.codes) and self.codes[i] == code

    @property
    def bitrows(self) -> list[int]:
        """Adjacency rows as Python bitmask ints (bit v of row u = edge uv)."""
        if self._bitrows is None:
            self._bitrows = self._build_bitrows()
        return self._bitrows

    def _build_bitrows(self) -> list[int]:
        dim = self.num_nodes
        us, vs = self.edges()
        if dim * dim <= _DENSE_BITROW_CELLS:
            mat = np.zeros((dim, dim), dtype=bool)
            mat[us, vs] = True
            mat[vs, us] = True
            packed = np.packbits(mat, axis=1, bitorder="little")
            return [int.from_bytes(packed[i].tobytes(), "little") for i in range(dim)]
        rows = [0] * dim
        for u, v in zip(us.tolist(), vs.tolist()):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return rows

    def neighbors(self, u: int) -> list[int]:
        return _bits(self.bitrows[u])

    def degree(self, u: int) -> int:
        return self.bitrows[u].bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConflictGraph)
            and self.n_b == other.n_b
            and np.array_equal(self.codes, other.codes)
        )

    def __hash__(self):  # pragma: no cover - not used as dict key
        return hash((self.n_b, self.codes.tobytes()))

    def dump_edges(self) -> str:
        """Sorted `u v` text lines, one edge per line (for oracle diffing)."""
        us, vs = self.edges()
        return "\n".join(f"{u} {v}" for u, v in zip(us, vs)) + (
            "\n" if len(us) else ""
        )


def _encode(lo, hi, n_b: int) -> np.ndarray:
    return lo.astype(np.int64) * (2 * n_b) + hi.astype(np.int64)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def empty_graph(n_b: int) -> ConflictGraph:
    return ConflictGraph(n_b, np.empty(0, dtype=np.int64))


def trivial_graph(n_b: int) -> ConflictGraph:
    j = np.arange(n_b, dtype=np.int64)
    return ConflictGraph(n_b, np.sort(_encode(j, j + n_b, n_b)))


def trivial_conflicts(n_b: int) -> list[Clique]:
    """The n_b two-literal cliques pairing each variable with its complement."""
    if n_b < 0:
        raise ValueError("n_b must be >= 0")
    return [Clique((j, j + n_b), source=SRC_TRIVIAL) for j in range(n_b)]


@lru_cache(maxsize=None)
def _pair_index(length: int):
    return np.triu_indices(length, k=1)


def _sample_clique(nodes: np.ndarray, limit: int, rng) -> np.ndarray:
    if limit is None or len(nodes) <= limit:
        return nodes
    pick = rng.choice(len(nodes), size=limit, replace=False)
    return nodes[np.sort(pick)]


def _expand_pairs(node_arrays, n_b: int):
    chunks = []
    pair_count = 0
    for nodes in node_arrays:
        t = len(nodes)
        if t < 2:
            continue
        ii, jj = _pair_index(t)
        chunks.append(_encode(nodes[ii], nodes[jj], n_b))
        pair_count += t * (t - 1) // 2
    if chunks:
        codes = np.unique(np.concatenate(chunks))
    else:
        codes = np.empty(0, dtype=np.int64)
    return codes, pair_count


def _clique_nodes(clique: Clique, n_b: int) -> np.ndarray:
    nodes = np.asarray(clique.nodes, dtype=np.int64)
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= 2 * n_b):
        raise ValueError(f"clique node out of range for n_b={n_b}")
    return nodes


def _build_block(args):
    node_arrays, n_b = args
    return _expand_pairs(node_arrays, n_b)


def _build(cliques, n_b: int, order, blocks, rng, max_clique_sample,
           max_pairs, stats: dict | None) -> ConflictGraph:
    """Down-sample the cliques in `order` and keep them until the cumulative
    pair cap would be passed, then expand each block of clique indices on
    its own worker and OR-reduce the partial graphs."""
    chosen = [None] * len(cliques)
    total_pairs = 0
    downsampled = 0
    capped = False
    for i in order:
        nodes = _clique_nodes(cliques[i], n_b)
        sampled = _sample_clique(nodes, max_clique_sample, rng)
        downsampled += len(sampled) < len(nodes)
        t = len(sampled)
        pairs = t * (t - 1) // 2
        capped = capped or (max_pairs is not None and total_pairs + pairs > max_pairs)
        if not capped:
            total_pairs += pairs
            chosen[i] = sampled
    block_args = [
        ([chosen[i] for i in idx if chosen[i] is not None], n_b) for idx in blocks
    ]
    results = map_blocks(_build_block, block_args, len(blocks))
    partials = [ConflictGraph(n_b, codes) for codes, _ in results]
    if stats is not None:
        stats["pairs_expanded"] = sum(p for _, p in results)
        stats["pair_cap_hit"] = capped
        stats["downsampled"] = downsampled
    return reduce_pairwise(partials, or_merge)


def build_graph(
    cliques,
    n_b: int,
    *,
    max_clique_sample: int | None = None,
    max_pairs: int | None = None,
    rng=None,
    counters: dict | None = None,
) -> ConflictGraph:
    """Union of pair expansions of all cliques (trivial edges NOT added).

    The k = 1 case of `build_graph_parallel`, in input order: cliques
    longer than `max_clique_sample` are uniformly down-sampled before
    expansion; expansion stops contributing once `max_pairs` cumulative
    pairs were expanded.
    """
    cliques = list(cliques)
    order = range(len(cliques))
    if rng is None:
        rng = np.random.default_rng(0)
    return _build(cliques, n_b, order, [order], rng, max_clique_sample,
                  max_pairs, counters)


def or_merge(a: ConflictGraph, b: ConflictGraph) -> ConflictGraph:
    """Elementwise boolean union of two graphs of equal dimension."""
    if a.n_b != b.n_b:
        raise ValueError("graph dimensions differ")
    if not len(a.codes):
        return b
    if not len(b.codes):
        return a
    return ConflictGraph(a.n_b, np.unique(np.concatenate([a.codes, b.codes])))


def build_graph_parallel(
    cliques,
    n_b: int,
    k: int,
    seed: int,
    *,
    max_clique_sample: int | None = None,
    max_pairs: int | None = None,
    stats: dict | None = None,
) -> ConflictGraph:
    """Shuffle-partition cliques, build per-worker partial graphs and combine
    them with the pairwise OR-reduction tree, then add the trivial
    variable/complement edges.

    Down-sampling and the cumulative pair cap are applied in the shuffled
    order before dispatch so the result is identical for every k.
    """
    cliques = list(cliques)
    part = shuffle_partition(len(cliques), k, seed)
    merged = _build(cliques, n_b, part.order, part.blocks,
                    np.random.default_rng(seed), max_clique_sample, max_pairs,
                    stats)
    return or_merge(trivial_graph(n_b), merged)
