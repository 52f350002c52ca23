"""Shared builders for the test suite."""
from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from cgcuts.cliques import CliqueTable, _detect_block
from cgcuts.graph import ConflictGraph
from cgcuts.model_io import TAGS, CutPool, MipModel, binary_cols
from cgcuts.presolve import PbcTable


@dataclasses.dataclass(frozen=True, order=True)
class Literal:
    """A binary column or its complement."""

    col: int
    complemented: bool = False


def node_of(binaries, lit: Literal) -> int:
    """The conflict-graph node of `lit` over the sorted binary columns
    `binaries`: column binaries[j] is node j and its complement n_b + j."""
    n_b = len(binaries)
    pos = int(np.searchsorted(binaries, lit.col))
    if pos == n_b or binaries[pos] != lit.col:
        raise ValueError(f"column {lit.col} is not a binary column")
    return pos + n_b if lit.complemented else pos


def literal_of(binaries, node: int) -> Literal:
    """The literal of conflict-graph `node` over the sorted binary columns
    `binaries` (see `node_of`)."""
    n_b = len(binaries)
    if not 0 <= node < 2 * n_b:
        raise ValueError(f"node {node} out of range for n_b={n_b}")
    return Literal(int(binaries[node % n_b]), node >= n_b)


def signed_index(binaries, node: int) -> int:
    """1-based signed column index of `node`: +j for x_j, -j for its
    complement."""
    lit = literal_of(binaries, node)
    return -(lit.col + 1) if lit.complemented else lit.col + 1


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


def graph_edges(g):
    """(us, vs) of every edge of the graph `g` with u < v, sorted by (u, v)."""
    rows = np.repeat(np.arange(g.num_nodes, dtype=np.int64), np.diff(g.indptr))
    upper = g.indices > rows
    return rows[upper], g.indices[upper]


def has_edge(g, u, v) -> bool:
    """Whether the graph `g` holds the edge (u, v)."""
    return bool(np.any(g.row(u) == v))


def same_graph(a, b) -> bool:
    """Whether the graphs `a` and `b` have the same nodes and CSR arrays."""
    return (a.n_b == b.n_b and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices))


def clique_table(sequences, rows, tags=0):
    """CliqueTable of node `sequences` and one (seq, head, start) row per
    clique, with `tags` (one for all, or one per clique)."""
    cols = np.array(rows, dtype=np.int32).reshape(-1, 3).T
    return CliqueTable(np.cumsum([0] + [len(s) for s in sequences], dtype=np.int64),
                       np.array([v for s in sequences for v in s], dtype=np.int32),
                       *(np.ascontiguousarray(c) for c in cols),
                       np.full(len(rows), tags, dtype=np.uint8))


def plain_table(cliques, tags=0):
    """CliqueTable with each clique, a sequence of nodes, as its own
    sequence, with `tags` (one for all, or one per clique)."""
    return CliqueTable.plain([len(q) for q in cliques], [v for q in cliques for v in q], tags)


def members_of(table, c) -> np.ndarray:
    """The nodes of clique `c` of `table`, ascending."""
    nodes = table.seq_nodes[table.seq_ptr[table.seq[c]]:table.seq_ptr[table.seq[c] + 1]]
    head = nodes[table.head[c]:table.head[c] + 1] if table.head[c] >= 0 else nodes[:0]
    return np.sort(np.concatenate([head, nodes[table.start[c]:]]))


def cliques_of(table):
    """(sorted members, tag) of each clique of `table`, in table order."""
    return [(tuple(members_of(table, c).tolist()), int(table.tag[c])) for c in range(len(table))]


def tag_pool(pools):
    """The pool of {tag name: cliques}, sorted by (tag, members) as the
    pipeline sorts it."""
    cliques = [(q, TAGS.index(tag)) for tag, qs in pools.items() for q in qs]
    table = plain_table([q for q, _ in cliques], [t for _, t in cliques])
    return table.take(table.order())


def replacements(pool) -> int:
    """The osp_long cliques of the sorted pool table `pool`: triage makes
    each a model constraint, outside the row budget."""
    return int(np.count_nonzero(pool.tag == TAGS.index("osp_long")))


def clq_nnz(plan, pool) -> int:
    """The nonzeros of the constraints a triage plan admits from `pool`
    besides the osp_long replacements."""
    return int(pool.sizes()[plan.constraint & (pool.tag != TAGS.index("osp_long"))].sum())


def routed(plan, pool):
    """The tag names of a triage plan's constraints besides the osp_long
    replacements, and of its user cuts, in pool order."""
    tags = [TAGS[t] for t in pool.tag.tolist()]
    constraints = [t for t, c in zip(tags, plan.constraint.tolist())
                   if c and t != "osp_long"]
    return constraints, [tags[i] for i in plan.as_user_cuts.tolist()]


def cut_pool(records, binaries):
    """CutPool of (nodes, tag name, is a constraint) records over the
    sorted binary columns `binaries`, sorted as the pipeline sorts its
    pool."""
    table = plain_table([r[0] for r in records], [TAGS.index(r[1]) for r in records])
    constraint = np.array([r[2] for r in records], dtype=bool)
    order = table.order()
    return CutPool(table.take(order), constraint[order], np.asarray(binaries, dtype=np.int64))


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


def model_of_rows(rows, like=None, **fields):
    """MipModel whose row i is the (cols, vals) pair rows[i]: the one place
    the tests build a model's CSR. `fields` are the other MipModel fields;
    those not given are the model `like`'s."""
    if like is not None:
        fields = {f.name: getattr(like, f.name) for f in dataclasses.fields(like)
                  if f.name not in ("indptr", "cols", "vals")} | fields
    lens = [len(c) for c, _ in rows]
    return MipModel(
        indptr=np.cumsum([0] + lens, dtype=np.int64),
        cols=np.concatenate([np.asarray(c, dtype=np.int64) for c, _ in rows]
                            + [np.empty(0, np.int64)]),
        vals=np.concatenate([np.asarray(v, dtype=np.float64) for _, v in rows]
                            + [np.empty(0)]),
        **fields,
    )


def row_of(model, i) -> tuple[np.ndarray, np.ndarray]:
    """(columns, coefficients) of row `i` of `model`."""
    a, b = model.indptr[i], model.indptr[i + 1]
    return model.cols[a:b], model.vals[a:b]


def binaries_of(model) -> np.ndarray:
    """The columns of `model` that are integer with bounds [0, 1], ascending."""
    return binary_cols(model.integers, model.lb, model.ub)


def signature(model):
    """Name-independent numeric tuple of `model`; equal signatures are
    equal models."""
    senses = model.senses.tolist()
    rows = tuple((senses[i], float(model.rhs[i]))
                 + tuple(sorted(zip(*(x.tolist() for x in row_of(model, i)))))
                 for i in range(model.num_rows))
    obj, lb, ub = (tuple(map(float, x)) for x in (model.obj, model.lb, model.ub))
    return (model.num_rows, model.num_cols, rows, obj, lb, ub,
            tuple(model.integers.tolist()), model.minimize)


def knapsack_indices(coeffs, rhs):
    """(phi, [(i, sigma), ...]) of one knapsack by `cliques._detect_block`,
    or (None, []) when it does not conflict, as the reference loop returns
    them."""
    phi, _, i, sigma = _detect_block((np.array([0, len(coeffs)]),
                                      np.asarray(coeffs, dtype=float), np.array([rhs])))
    if phi[0] < 0:
        return None, []
    return int(phi[0]), list(zip(i.tolist(), sigma.tolist()))


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
        sparse_rows.append(([p[0] for p in pairs], [p[1] for p in pairs]))
    return model_of_rows(
        sparse_rows,
        col_names=[f"x{j + 1}" for j in range(n_cols)],
        row_names=[f"c{i + 1}" for i in range(len(rows))],
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
    for i in range(model.num_rows):
        cols, vals = row_of(model, i)
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
