"""Seeded MIP generator for the whole-run presolve benchmark.

Each shape builds a model around planted feasible points: every row is
constructed to hold at each of them, so detection can never prove the model
infeasible, and every clique row or cut the pipeline emits must hold there
too. A packing or knapsack row takes at most one column that is one at a
planted point; a signed, mixed-integer or inert row gets a right-hand side
no smaller than its largest planted activity.

The model is written as free-format MPS by this module alone, so the program
under test reads a file it did not produce.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Planted points per model and the share of binaries set to one in each.
N_POINTS = 2
ONE_DENSITY = 0.1

INT_UB = 20
CONT_UB = 50


@dataclass
class Shape:
    """Column and row counts of one workload; `scale` multiplies all counts."""

    n_bin: int
    n_int: int = 0
    n_cont: int = 0
    n_pack: int = 0
    n_knap: int = 0
    n_signed: int = 0
    n_mixed: int = 0
    n_inert: int = 0
    row_len: tuple[int, int] = (3, 11)
    knap_len: tuple[int, int] = (3, 11)

    def scaled(self, scale: float) -> "Shape":
        counts = {
            name: max(1, int(round(getattr(self, name) * scale)))
            if getattr(self, name) else 0
            for name in ("n_bin", "n_int", "n_cont", "n_pack", "n_knap",
                         "n_signed", "n_mixed", "n_inert")
        }
        return Shape(row_len=self.row_len, knap_len=self.knap_len, **counts)


# Why each shape exists, and which layer it stresses, is in README.md.
SHAPES = {
    # Half set packing, half conflicting knapsack, short rows: many small
    # cliques go into merge, many CLQ rows come out of emit.
    "mixed-short": Shape(n_bin=4000, n_pack=1700, n_knap=1700),
    # Few wide conflicting knapsacks: millions of pairs for graph build,
    # few cliques for merge, a large user-cut pool.
    "knapsack-wide": Shape(n_bin=2000, n_knap=200, knap_len=(170, 170)),
    # Mostly signed and mixed-integer rows over a wide binary set: long
    # parse/detect/emit passes, many short cliques written as CLQ rows, few
    # conflict edges next to the n_b trivial ones, large bitrows.
    "general-int": Shape(n_bin=16000, n_int=2400, n_cont=2400, n_pack=320,
                         n_signed=1920, n_mixed=3200, n_inert=960),
}


@dataclass
class Model:
    """A generated model: MPS text plus its planted points.

    `points[p][j]` is column j's value at planted point p, in column order.
    """

    mps: str
    points: np.ndarray
    col_names: list[str]
    row_names: list[str]
    nnz: int


def _num(v: float) -> str:
    return str(int(v)) if v == int(v) else repr(float(v))


class _Builder:
    def __init__(self, shape: Shape, rng: np.random.Generator):
        self.rng = rng
        self.shape = shape
        nb, ni, nc = shape.n_bin, shape.n_int, shape.n_cont
        self.n_cols = nb + ni + nc
        self.bins = np.arange(nb)
        self.ints = np.arange(nb, nb + ni)
        self.conts = np.arange(nb + ni, nb + ni + nc)
        pts = np.zeros((N_POINTS, self.n_cols))
        pts[:, :nb] = rng.random((N_POINTS, nb)) < ONE_DENSITY
        pts[:, nb:nb + ni] = rng.integers(0, INT_UB + 1, (N_POINTS, ni))
        # Halves keep every activity exact in binary floating point.
        pts[:, nb + ni:] = rng.integers(0, 2 * CONT_UB + 1, (N_POINTS, nc)) / 2
        self.points = pts
        ones = pts[:, :nb] > 0.5
        self.zero_bins = np.flatnonzero(~ones.any(axis=0))
        # Binaries that are one at exactly point p and zero at the others.
        self.only_one = [
            np.flatnonzero(ones[p] & (ones.sum(axis=0) == 1))
            for p in range(N_POINTS)
        ]
        self.rows: list[tuple[str, np.ndarray, np.ndarray, float]] = []

    def _length(self, bounds) -> int:
        lo, hi = bounds
        return int(self.rng.integers(lo, hi + 1))

    def _binary_support(self, n: int) -> np.ndarray:
        """n distinct binaries with at most one planted-one per point."""
        extra = []
        for p in range(N_POINTS):
            if len(extra) < n - 1 and self.rng.random() < 0.5:
                extra.append(int(self.rng.choice(self.only_one[p])))
        rest = self.rng.choice(self.zero_bins, size=n - len(extra), replace=False)
        cols = np.concatenate([rest, np.array(extra, dtype=np.int64)])
        return cols.astype(np.int64)

    def _activity(self, cols, vals) -> np.ndarray:
        return self.points[:, cols] @ vals

    def add(self, sense: str, cols, vals, rhs: float):
        order = np.argsort(cols)
        self.rows.append((sense, cols[order], vals[order], float(rhs)))

    def packing(self):
        cols = self._binary_support(self._length(self.shape.row_len))
        self.add("L", cols, np.ones(len(cols)), 1.0)

    def knapsack(self):
        """sum a_j x_j <= b with b = a_max + (a_second - 1) // 2: the top two
        conflict, no single coefficient exceeds b, and each planted point
        has at most one one in the row, so activity <= a_max <= b. A fixed
        rule for b keeps the conflict density alike across seeds."""
        cols = self._binary_support(self._length(self.shape.knap_len))
        a = self.rng.integers(1, 101, len(cols)).astype(float)
        top = np.sort(a)
        b = top[-1] + (top[-2] - 1) // 2
        if self.rng.random() < 0.5:
            self.add("L", cols, a, b)
        else:
            self.add("G", cols, -a, -b)

    def signed(self):
        """Binary row with mixed signs, tight at the larger planted activity,
        so that most such rows become conflicting knapsacks."""
        cols = self.rng.choice(self.bins, self._length(self.shape.row_len),
                               replace=False)
        a = self.rng.integers(1, 51, len(cols)) * self.rng.choice([-1, 1], len(cols))
        a = a.astype(float)
        b = self._activity(cols, a).max() + float(self.rng.integers(0, 15))
        self.add("L", cols, a, b)

    def mixed(self):
        """Binaries, general integers and continuous columns, rhs at the
        largest planted activity plus a random slack."""
        n = self._length(self.shape.row_len)
        parts = [self.rng.choice(self.bins, max(1, n // 2), replace=False)]
        parts.append(self.rng.choice(self.ints, max(1, n // 4), replace=False))
        parts.append(self.rng.choice(self.conts, max(1, n // 4), replace=False))
        cols = np.concatenate(parts)
        a = self.rng.integers(1, 31, len(cols)) * self.rng.choice([-1, 1], len(cols))
        a = a.astype(float)
        b = self._activity(cols, a).max() + float(self.rng.integers(0, 20))
        if self.rng.random() < 0.5:
            self.add("L", cols, a, b)
        else:
            self.add("G", cols, -a, -b)

    def inert(self):
        """Binary row that no 0/1 point can violate."""
        cols = self.rng.choice(self.bins, self._length(self.shape.row_len),
                               replace=False)
        a = self.rng.integers(1, 51, len(cols)).astype(float)
        self.add("L", cols, a, float(a.sum()))

    def build(self) -> Model:
        s = self.shape
        kinds = (["packing"] * s.n_pack + ["knapsack"] * s.n_knap
                 + ["signed"] * s.n_signed + ["mixed"] * s.n_mixed
                 + ["inert"] * s.n_inert)
        for i in self.rng.permutation(len(kinds)):
            getattr(self, kinds[i])()
        return self._write()

    def _write(self) -> Model:
        nb, ni = self.shape.n_bin, self.shape.n_int
        col_names = [
            f"B{j:06d}" if j < nb else f"I{j - nb:06d}" if j < nb + ni
            else f"C{j - nb - ni:06d}"
            for j in range(self.n_cols)
        ]
        row_names = [f"R{i:06d}" for i in range(len(self.rows))]
        obj = self.rng.integers(-9, 10, self.n_cols)
        per_col: list[list[str]] = [[] for _ in range(self.n_cols)]
        nnz = 0
        for rname, (_, cols, vals, _) in zip(row_names, self.rows):
            nnz += len(cols)
            for j, v in zip(cols.tolist(), vals.tolist()):
                per_col[j].append(f"    {col_names[j]}  {rname}  {_num(v)}")
        out = ["NAME GENMIP", "ROWS", " N  OBJ"]
        out += [f" {sense}  {r}" for r, (sense, *_) in zip(row_names, self.rows)]
        out.append("COLUMNS")
        n_integer = nb + ni
        out.append("    MARKER  'MARKER'  'INTORG'")
        for j in range(self.n_cols):
            if j == n_integer:
                out.append("    MARKER  'MARKER'  'INTEND'")
            out.append(f"    {col_names[j]}  OBJ  {obj[j]:d}")
            out.extend(per_col[j])
        if n_integer == self.n_cols:
            out.append("    MARKER  'MARKER'  'INTEND'")
        out.append("RHS")
        out += [f"    RHS  {r}  {_num(b)}"
                for r, (*_, b) in zip(row_names, self.rows) if b != 0.0]
        out.append("BOUNDS")
        out += [f" BV BND  {col_names[j]}" for j in self.bins]
        out += [f" UP BND  {col_names[j]}  {INT_UB}" for j in self.ints]
        out += [f" UP BND  {col_names[j]}  {CONT_UB}" for j in self.conts]
        out.append("ENDATA")
        return Model("\n".join(out) + "\n", self.points, col_names, row_names, nnz)


def generate(shape_name: str, seed: int, scale: float = 1.0) -> Model:
    """Deterministic model of the named shape: equal (shape, seed, scale)
    give byte-equal MPS text."""
    shape = SHAPES[shape_name].scaled(scale)
    salt = sorted(SHAPES).index(shape_name)
    rng = np.random.default_rng([seed, salt])
    return _Builder(shape, rng).build()
