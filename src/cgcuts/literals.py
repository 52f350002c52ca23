"""Literals over binary variables and their node numbering.

A conflict-graph node is an integer in [0, 2*n_b): node j < n_b is the
binary variable at position j of the variable map, node j >= n_b is its
complement (1 - x).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True)
class Literal:
    """A binary column or its complement."""

    col: int
    complemented: bool = False


class VarMap:
    """The binary model columns, ascending, as conflict-graph nodes: a view
    over the sorted int64 array `cols`, in which column cols[j] is node j
    and its complement node n_b + j."""

    def __init__(self, cols):
        self.cols = np.asarray(cols, dtype=np.int64)
        self.n_b = len(self.cols)
        if np.any(self.cols[1:] <= self.cols[:-1]):
            raise ValueError("variable map columns must be ascending and distinct")

    def node(self, lit: Literal) -> int:
        pos = int(np.searchsorted(self.cols, lit.col))
        if pos == self.n_b or self.cols[pos] != lit.col:
            raise ValueError(f"column {lit.col} is not in the variable map")
        return pos + self.n_b if lit.complemented else pos

    def literal(self, node: int) -> Literal:
        if node < 0 or node >= 2 * self.n_b:
            raise ValueError(f"node {node} out of range for n_b={self.n_b}")
        if node < self.n_b:
            return Literal(int(self.cols[node]), False)
        return Literal(int(self.cols[node - self.n_b]), True)

    def signed_index(self, node: int) -> int:
        """1-based signed column index: +j for x_j, -j for its complement."""
        lit = self.literal(node)
        return -(lit.col + 1) if lit.complemented else lit.col + 1

    def __len__(self) -> int:
        return self.n_b
