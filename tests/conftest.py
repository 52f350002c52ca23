"""Shared builders for the test suite."""
from __future__ import annotations

import itertools

import numpy as np

from cgcuts.graph import ConflictGraph
from cgcuts.model_io import MipModel
from cgcuts.presolve import PbcTable


def graph_from_edges(edges, n_b):
    """CSR graph over 2*n_b nodes holding exactly `edges`: unlike
    `build_graph_parallel`, it adds no variable/complement edges."""
    rows = [set() for _ in range(2 * n_b)]
    for u, v in edges:
        rows[u].add(int(v))
        rows[v].add(int(u))
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    indices = np.array([v for r in rows for v in sorted(r)], dtype=np.int32)
    return ConflictGraph(n_b, indptr, indices)


def pbc_table(constraints):
    """PbcTable of (coefficients, rhs) pairs. Term t of a constraint is
    node t, and constraint i has source row i."""
    lens = [len(coeffs) for coeffs, _ in constraints]
    return PbcTable(
        indptr=np.cumsum([0] + lens, dtype=np.int64),
        nodes=np.array([t for n in lens for t in range(n)], dtype=np.int64),
        coeffs=np.array([a for coeffs, _ in constraints for a in coeffs],
                        dtype=np.float64),
        rhs=np.array([rhs for _, rhs in constraints], dtype=np.float64),
        source_row=np.arange(len(constraints), dtype=np.int64),
    )


def make_model(n_cols, rows, senses, rhs, integers=None, lb=None, ub=None,
               obj=None, binary=None):
    """Small-model builder.

    `rows` is a list of {col: coeff} dicts (or (col, coeff) pair lists).
    `binary` marks columns as integer with [0, 1] bounds.
    """
    lbs = np.zeros(n_cols) if lb is None else np.asarray(lb, dtype=float)
    ubs = np.full(n_cols, np.inf) if ub is None else np.asarray(ub, dtype=float)
    ints = set(integers or ())
    for j in binary or ():
        ints.add(j)
        lbs[j] = 0.0
        ubs[j] = 1.0
    sparse_rows = []
    for row in rows:
        pairs = sorted(row.items() if isinstance(row, dict) else row)
        cols = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs], dtype=np.float64)
        sparse_rows.append((cols, vals))
    return MipModel(
        col_names=[f"x{j + 1}" for j in range(n_cols)],
        row_names=[f"c{i + 1}" for i in range(len(rows))],
        rows=sparse_rows,
        senses=list(senses),
        rhs=np.asarray(rhs, dtype=float),
        obj=np.zeros(n_cols) if obj is None else np.asarray(obj, dtype=float),
        lb=lbs,
        ub=ubs,
        integers=ints,
    )


def feasible_binary_points(model):
    """Exhaustively enumerate feasible 0/1 assignments of an all-binary model."""
    n = model.num_cols
    assert n <= 20, "enumeration helper is for small models only"
    pts = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    ok = np.ones(len(pts), dtype=bool)
    ok &= np.all(pts >= model.lb - 1e-9, axis=1)
    ok &= np.all(pts <= model.ub + 1e-9, axis=1)
    for i, (cols, vals) in enumerate(model.rows):
        act = pts[:, cols] @ vals
        b = model.rhs[i]
        if model.senses[i] == "L":
            ok &= act <= b + 1e-9
        elif model.senses[i] == "G":
            ok &= act >= b - 1e-9
        else:
            ok &= np.abs(act - b) <= 1e-9
    return pts[ok]


def random_binary_model(rng, max_binaries=12, max_rows=6):
    """Random all-binary MIP with a mix of packing, knapsack and inert rows."""
    n = int(rng.integers(2, max_binaries + 1))
    m = int(rng.integers(1, max_rows + 1))
    rows, senses, rhs = [], [], []
    for _ in range(m):
        t = int(rng.integers(2, min(n, 6) + 1))
        cols = rng.choice(n, size=t, replace=False)
        kind = rng.integers(0, 4)
        if kind == 0:  # set packing
            row = {int(j): 1.0 for j in cols}
            senses.append("L")
            rhs.append(1.0)
        elif kind == 1:  # conflicting knapsack
            coeffs = rng.integers(1, 10, size=t)
            row = {int(j): float(a) for j, a in zip(cols, coeffs)}
            top_two = np.sort(coeffs)[-2:].sum()
            senses.append("L")
            rhs.append(float(rng.integers(max(coeffs.max(), 1), top_two)))
        elif kind == 2:  # signed coefficients
            coeffs = rng.integers(-5, 6, size=t)
            coeffs[coeffs == 0] = 1
            row = {int(j): float(a) for j, a in zip(cols, coeffs)}
            senses.append(rng.choice(["L", "G"]))
            rhs.append(float(rng.integers(-3, 8)))
        else:  # loose cover, usually inert
            row = {int(j): float(rng.integers(1, 4)) for j in cols}
            senses.append("L")
            rhs.append(float(rng.integers(8, 15)))
        rows.append(row)
    return make_model(n, rows, senses, rhs, binary=range(n))
