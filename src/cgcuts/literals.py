"""Literals over binary variables and their node numbering.

A conflict-graph node is an integer in [0, 2*n_b): node j < n_b is the
binary variable at position j of the variable map, node j >= n_b is its
complement (1 - x).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Literal:
    """A binary column or its complement."""

    col: int
    complemented: bool = False


class VarMap:
    """Bidirectional mapping between binary model columns and graph nodes."""

    def __init__(self, cols):
        self.cols = list(cols)
        self.n_b = len(self.cols)
        if len(set(self.cols)) != self.n_b:
            raise ValueError("duplicate columns in variable map")

    def node(self, lit: Literal) -> int:
        pos = self.cols.index(lit.col)
        return pos + self.n_b if lit.complemented else pos

    def literal(self, node: int) -> Literal:
        if node < 0 or node >= 2 * self.n_b:
            raise ValueError(f"node {node} out of range for n_b={self.n_b}")
        if node < self.n_b:
            return Literal(self.cols[node], False)
        return Literal(self.cols[node - self.n_b], True)

    def signed_index(self, node: int) -> int:
        """1-based signed column index: +j for x_j, -j for its complement."""
        lit = self.literal(node)
        return -(lit.col + 1) if lit.complemented else lit.col + 1

    def __len__(self) -> int:
        return self.n_b
