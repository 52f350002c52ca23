"""Per-clique conflict-graph build, kept as the oracle for
`cgcuts.graph.build_graph_parallel`.

Every clique is expanded into all of its pairs, one small array per
clique, so the work is the sum of t(t-1)/2 over the cliques rather than
O(edges). Down-sampling and the pair cap are decided clique by clique in
the shuffled order; a sample is a clique's nodes of smallest SplitMix64
hash, computed here in Python ints.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from cgcuts.graph import ConflictGraph
from cgcuts.parallel import map_blocks, shuffle_order


def _encode(lo, hi, n_b: int) -> np.ndarray:
    lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
    return lo * (2 * n_b) + hi


def _dedup(codes: np.ndarray) -> np.ndarray:
    codes = np.sort(codes)
    keep = np.empty(len(codes), dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _trivial_codes(n_b: int) -> np.ndarray:
    j = np.arange(n_b, dtype=np.int64)
    return _encode(j, j + n_b, n_b)


def _from_codes(n_b: int, codes: np.ndarray) -> ConflictGraph:
    dim = 2 * n_b
    lo, hi = np.divmod(codes, dim)
    rows, cols = np.divmod(np.sort(np.concatenate([codes, hi * dim + lo])), dim)
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    index_type = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    return ConflictGraph(n_b, indptr, cols.astype(index_type))


@lru_cache(maxsize=None)
def _pair_index(length: int):
    return np.triu_indices(length, k=1)


_MASK = (1 << 64) - 1


def splitmix64(x: int, seed: int) -> int:
    """Value x of the SplitMix64 stream seeded with `seed`, in Python ints
    (Steele, Lea and Flood, 2014)."""
    z = ((x + 1) * 0x9E3779B97F4A7C15 + seed) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _sample_clique(nodes: np.ndarray, limit: int, c: int, seed: int) -> np.ndarray:
    """Clique c's `limit` nodes of smallest hash under the key (c, seed)."""
    if limit is None or len(nodes) <= limit:
        return nodes
    key = splitmix64(c, seed)
    pick = sorted(range(len(nodes)), key=lambda i: splitmix64(int(nodes[i]), key))
    return nodes[sorted(pick[:limit])]


def _build_block(args):
    node_arrays, n_b = args
    chunks = [np.empty(0, dtype=np.int64)]
    pair_count = 0
    for nodes in node_arrays:
        t = len(nodes)
        if t < 2:
            continue
        ii, jj = _pair_index(t)
        chunks.append(_encode(nodes[ii], nodes[jj], n_b))
        pair_count += t * (t - 1) // 2
    return _dedup(np.concatenate(chunks)), pair_count


def _clique_nodes(clique, n_b: int) -> np.ndarray:
    nodes = np.asarray(clique, dtype=np.int64)
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= 2 * n_b):
        raise ValueError(f"clique node out of range for n_b={n_b}")
    return nodes


def build_graph_parallel(cliques, n_b: int, k: int, seed: int, *,
                         max_clique_sample: int | None = None,
                         max_pairs: int | None = None,
                         stats: dict | None = None) -> ConflictGraph:
    """Union of the pair expansions of all cliques, sorted node tuples, plus
    the n_b trivial variable/complement edges."""
    cliques = list(cliques)
    order = shuffle_order(len(cliques), seed)
    chosen = [None] * len(cliques)
    total_pairs = 0
    downsampled = 0
    capped = False
    for i in order:
        nodes = _clique_nodes(cliques[i], n_b)
        sampled = _sample_clique(nodes, max_clique_sample, int(i), seed)
        downsampled += len(sampled) < len(nodes)
        t = len(sampled)
        pairs = t * (t - 1) // 2
        capped = capped or (max_pairs is not None and total_pairs + pairs > max_pairs)
        if not capped:
            total_pairs += pairs
            chosen[i] = sampled
    block_args = [
        ([chosen[i] for i in idx if chosen[i] is not None], n_b)
        for idx in np.array_split(order, k)
    ]
    results = map_blocks(_build_block, block_args, k)
    if stats is not None:
        stats["pairs_expanded"] = sum(p for _, p in results)
        stats["pair_cap_hit"] = capped
        stats["downsampled"] = downsampled
    codes = np.concatenate([_trivial_codes(n_b)] + [c for c, _ in results])
    return _from_codes(n_b, _dedup(codes))
