"""One-round row detection: bound strengthening, pure-binary rewriting and
classification into set packing / conflicting knapsack / singleton / inert.

Every step reads the model's CSR rows as they are (`_Rows` adds the rhs
and senses) and works in NumPy passes. Rows must not store a column twice
or a zero coefficient; `parse_mps` never produces either.

Strengthening keeps the semantics of a loop over the rows: a bound
tightened by row i is used by row i + 1. One speculative pass evaluates
every <=-form (an equality row has two, a singleton row is one fold)
against the input bounds; the forms that no moving form reaches through
shared columns are final. The rest run in levels: a form's level is one
more than the highest level of an earlier such form that shares a column
with it, so the forms of one level share no column and each still sees
every earlier tightening of its columns. Rewriting onto binary literals,
sorting and classification then run over all rows at once, and the set
packing and conflicting knapsack rows come out as `PbcTable`s.

Float results are those of the row loop: a form's finite activity is
NumPy's pairwise `.sum()` of its contributions, taken over equal-length
forms as one 2-D `.sum(axis=1)` (`np.add.reduceat` sums in another order),
and the rewrite's shift is a left-to-right sum, taken with `cumsum`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .literals import VarMap
from .model_io import SENSE_EQ, SENSE_GE, SENSE_LE, MipModel, _indptr, _ranges, stable_order

#: Conservative comparison tolerance: a conflict is only asserted when
#: a_i + a_j > rhs + TOL * max(1, a_i + a_j, |rhs|), so float noise can never
#: invent a conflict; a sum near 1e9 is off by more than 1e-9 (`scaled_tol`).
TOL = 1e-9

_INF = np.inf


def scaled_tol(*magnitudes):
    """TOL relative to the largest of `magnitudes` (scalars or arrays), and
    absolute below 1: the slack for testing a sum of coefficients against
    a rhs, where a rounding error grows with the values compared."""
    scale = 1.0
    for m in magnitudes:
        scale = np.maximum(scale, np.abs(m))
    return TOL * scale


class InfeasibleError(Exception):
    """A single row (plus bounds) proves the model infeasible."""

    def __init__(self, row: int, message: str = ""):
        super().__init__(message or f"row {row} is infeasible")
        self.row = row


def _within(sorted_values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether each value of `q` occurs in the sorted array `sorted_values`."""
    pos = np.searchsorted(sorted_values, q)
    np.minimum(pos, len(sorted_values) - 1, out=pos)
    return sorted_values[pos] == q


def _segment_positions(indptr: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Positions of the entries of segments `segs` of a CSR layout, one
    segment after the other."""
    segs = np.asarray(segs, dtype=np.int64)
    return _ranges(indptr[segs], indptr[segs + 1])


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of a non-negative int array, ascending. (A plain
    `np.unique` imports `numpy.ma` on its first call, which held 1.5 MB of
    resident memory through the rest of a run.)"""
    x = np.sort(x)
    return x[np.diff(x, prepend=-1) != 0]


@dataclass
class PbcTable:
    """Pure binary constraints sum_t coeffs[t] * node_t <= rhs, one per
    segment of `indptr`, over conflict-graph nodes (see `VarMap`).

    Within a constraint the terms are sorted by coefficient, ties by model
    column, and every coefficient is positive. `detect` stores the nodes as
    int32, as `ConflictGraph` does, which halves what k > 1 sends them in.
    `source_row` is the row of the input model that the constraint comes
    from; `detect` maps it back through the empty and singleton rows that
    strengthening drops.
    """

    indptr: np.ndarray
    nodes: np.ndarray
    coeffs: np.ndarray
    rhs: np.ndarray
    source_row: np.ndarray

    def __post_init__(self):
        if not np.all(self.coeffs > 0):
            raise ValueError("PBC coefficients must be strictly positive")
        starts = np.zeros(len(self.coeffs), dtype=bool)
        starts[self.indptr[:-1][self.indptr[:-1] < len(self.coeffs)]] = True
        if np.any((self.coeffs[1:] < self.coeffs[:-1]) & ~starts[1:]):
            raise ValueError("PBC terms must be sorted by coefficient")

    def __len__(self) -> int:
        return len(self.rhs)

    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def take(self, idx) -> "PbcTable":
        """The constraints `idx`, in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        pos = _segment_positions(self.indptr, idx)
        return PbcTable(
            _indptr(self.indptr[idx + 1] - self.indptr[idx]),
            self.nodes[pos],
            self.coeffs[pos],
            self.rhs[idx],
            self.source_row[idx],
        )

    def node_sets(self) -> list[tuple[int, ...]]:
        """Each constraint's nodes in ascending order."""
        seg = np.repeat(np.arange(len(self)), self.lengths())
        nodes = self.nodes[np.lexsort((self.nodes, seg))].tolist()
        ptr = self.indptr.tolist()
        return [tuple(nodes[a:b]) for a, b in zip(ptr, ptr[1:])]


@dataclass
class DetectionResult:
    model: MipModel
    s_osp: PbcTable
    s_isp: PbcTable
    s_ck: PbcTable
    fixings: list[tuple[int, int]]
    varmap: VarMap
    work: int = 0  # stored-coefficient touches, for the O(NNZ) check


class _Rows:
    """Rows as one CSR table: `indptr`, `cols`, `vals`, `rhs`, `sense`."""

    def __init__(self, indptr, cols, vals, rhs, sense):
        self.indptr, self.cols, self.vals = indptr, cols, vals
        self.rhs, self.sense = rhs, sense

    @classmethod
    def of(cls, model: MipModel) -> "_Rows":
        zero = np.flatnonzero(model.vals == 0)
        if len(zero):
            row = int(np.searchsorted(model.indptr, zero[0], side="right")) - 1
            raise ValueError(f"row {row} stores a zero coefficient")
        return cls(model.indptr, model.cols, model.vals, np.asarray(model.rhs, dtype=np.float64),
                   np.array(model.senses, dtype="<U1"))

    def take(self, rows: np.ndarray) -> "_Rows":
        if len(rows) == len(self.rhs):  # ascending and distinct: every row
            return self
        pos = _segment_positions(self.indptr, rows)
        return _Rows(_indptr(self.indptr[rows + 1] - self.indptr[rows]),
                     self.cols[pos], self.vals[pos], self.rhs[rows],
                     self.sense[rows])

    def forms(self, le: np.ndarray, ge: np.ndarray):
        """The <=-forms of the rows, in (row, LE then GE) order: rows with
        `le` set give their LE form, rows with `ge` set their GE form (the
        negated row). Returns each form's row, order key (2 * row + 1 for a
        second form) and sign, and each entry's position and form."""
        count = le.astype(np.int64) + ge
        row = np.repeat(np.arange(len(count)), count)
        second = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
        sign = np.where((second == 1) | ~le[row], -1.0, 1.0)
        pos = _segment_positions(self.indptr, row)
        form = np.repeat(np.arange(len(row)), self.indptr[row + 1] - self.indptr[row])
        return row, 2 * row + second, sign, pos, form


def _submodel(model: MipModel, rows: _Rows, ids: np.ndarray, lb, ub) -> MipModel:
    """`model` with the bounds `lb`, `ub` and only its rows `ids`, which
    `rows` holds."""
    names, senses = model.row_names, model.senses
    return MipModel(
        col_names=list(model.col_names),
        row_names=[names[i] for i in ids.tolist()],
        indptr=rows.indptr,
        cols=rows.cols,
        vals=rows.vals,
        senses=[senses[i] for i in ids.tolist()],
        rhs=model.rhs[ids],
        obj=model.obj.copy(),
        lb=lb,
        ub=ub,
        integers=set(model.integers),
        name=model.name,
        obj_name=model.obj_name,
        minimize=model.minimize,
    )


# ---------------------------------------------------------------------------
# Bound strengthening


def _first_error(errors: list[tuple[int, int, str]]):
    """Raise the first of (order key, row, message) errors, if any."""
    if errors:
        _, row, message = min(errors)
        raise InfeasibleError(row, message)


def _strengthen(rows: _Rows, lb: np.ndarray, ub: np.ndarray,
                is_int: np.ndarray) -> None:
    """Tighten `lb`/`ub` in place as the row loop would, and raise the
    error of the first offending row, as the row loop would.

    First every form is evaluated against the bounds as they are, in one
    speculative pass that writes nothing. A form that no form moving a
    bound in that pass reaches along the column links of `_schedule` reads
    only columns that no earlier form changes, so its result is the loop's:
    such a form is final, and the bounds the final forms move are written
    at once. Only the forms downstream of a move then run level by level.
    """
    lens = np.diff(rows.indptr)
    sense, rhs = rows.sense, rows.rhs
    errors = []  # (2 * row + form within the row, row, message)

    ok = np.where(sense == SENSE_LE, rhs >= -TOL,
                  np.where(sense == SENSE_GE, rhs <= TOL, np.abs(rhs) <= TOL))
    bad = np.flatnonzero((lens == 0) & ~ok)
    if len(bad):
        i = int(bad[0])
        errors.append((2 * i, i, f"empty row {i} with rhs {float(rhs[i])}"))

    # A singleton row is one form, a fold of its bound b / a.
    multi = lens >= 2
    f_row, f_key, sign, pos, form = rows.forms(
        (multi & (sense != SENSE_GE)) | (lens == 1), multi & (sense != SENSE_LE))
    fold = lens[f_row] == 1
    f_b = sign * rhs[f_row]
    f_len = lens[f_row]
    f_ptr = _indptr(f_len)
    col = rows.cols[pos]
    a = rows.vals[pos] * sign[form]
    fold_lo, fold_hi = _fold_bounds(sense[f_row[form]], a, f_b[form], fold[form])
    next_form = _schedule(col, form, f_row)

    def evaluate(forms, e):
        """`_evaluate` of `forms` (ascending), whose entries are `e`: the
        entries that move a bound and their new bounds, the infeasible
        forms and the entries that force an empty domain."""
        t, lo, hi, infeasible, empty = _evaluate(
            fold[forms], f_b[forms], f_len[forms], col[e], a[e], fold_lo[e],
            fold_hi[e], lb, ub, is_int)
        j = col[e[t]]
        moved = (lo > lb[j]) | (hi < ub[j])
        return e[t[moved]], lo[moved], hi[moved], forms[infeasible], e[t[empty]]

    def write(moved, lo, hi, infeasible, empty):
        """Write the moved bounds; record the first of each error."""
        lb[col[moved]], ub[col[moved]] = lo, hi
        for f, what in [(f, "is infeasible") for f in infeasible[:1].tolist()] + [
                (form[i], f"forces empty domain on col {col[i]}") for i in empty[:1].tolist()]:
            errors.append((int(f_key[f]), int(f_row[f]), f"row {f_row[f]} {what}"))

    moved, lo, hi, infeasible, empty = evaluate(np.arange(len(f_row)), np.arange(len(col)))
    tainted = _downstream(_distinct(form[moved]), next_form, f_ptr)
    final = ~tainted[form[moved]]
    write(moved[final], lo[final], hi[final], infeasible[~tainted[infeasible]],
          empty[~tainted[form[empty]]])

    # A tainted form waits for the tainted forms before it on its columns.
    nxt = next_form[tainted[form]]
    waiting = np.bincount(nxt[nxt >= 0], minlength=len(f_row))
    level = np.flatnonzero(tainted & (waiting == 0))
    while len(level):
        e = _segment_positions(f_ptr, level)
        write(*evaluate(level, e))
        nxt = next_form[e]
        nxt = nxt[nxt >= 0]
        np.subtract.at(waiting, nxt, 1)
        nxt = _distinct(nxt)
        level = nxt[waiting[nxt] == 0]
    _first_error(errors)


def _downstream(start: np.ndarray, next_form: np.ndarray, f_ptr: np.ndarray):
    """Which forms the forms `start` reach along the `next_form` links of
    their entries (a form of `start` only when another reaches it)."""
    reached = np.zeros(len(f_ptr) - 1, dtype=bool)
    while len(start):
        nxt = next_form[_segment_positions(f_ptr, start)]
        nxt = _distinct(nxt[nxt >= 0])
        start = nxt[~reached[nxt]]
        reached[start] = True
    return reached


def _fold_bounds(sense, a, b, fold):
    """The bounds (lo, hi) that each entry of a singleton row sets, -inf and
    inf on other entries: b / a as both for EQ, as the upper for LE with
    a > 0 or GE with a < 0, else as the lower."""
    v = b / a
    eq = sense == SENSE_EQ
    upper = eq | ((sense == SENSE_LE) == (a > 0))
    return np.where(fold & (eq | ~upper), v, -_INF), np.where(fold & upper, v, _INF)


def _schedule(col, form, f_row):
    """Link each entry to the next form that reads its column (-1 if
    none)."""
    order = stable_order(col)
    same = col[order[1:]] == col[order[:-1]]
    pred, succ = order[:-1][same], order[1:][same]
    twice = form[pred] == form[succ]
    if twice.any():
        row = int(f_row[form[succ[twice][0]]])
        raise ValueError(f"row {row} repeats a column")
    next_form = np.full(len(col), -1, dtype=np.int64)
    next_form[pred] = form[succ]
    return next_form


def _evaluate(fold, b, flen, col, a, fold_lo, fold_hi, lb, ub, is_int):
    """What a set of forms does to the bounds, each form reading `lb` and
    `ub` as they are; nothing is written.

    Returns the entries that act, their new bounds (lower, upper), the
    infeasible forms and which acting entries force an empty domain. Within
    a form the activity test comes first, then its columns in row order.
    """
    loc = np.repeat(np.arange(len(fold)), flen)
    e_fold = fold[loc]
    contrib = np.where(a > 0, a * lb[col], a * ub[col])
    inf = np.isinf(contrib) & ~e_fold
    n_inf = np.bincount(loc[inf], minlength=len(fold))
    # Each form's finite activity, summed as its own 1-D array would be.
    fin = ~e_fold & ~inf
    finite = contrib[fin]
    k = np.where(fold, 0, flen - n_inf)
    start = np.cumsum(k) - k
    fsum = np.zeros(len(fold))
    for length in _distinct(k[k > 0]).tolist():
        sel = np.flatnonzero(k == length)
        fsum[sel] = finite[start[sel][:, None] + np.arange(length)].sum(axis=1)
    size = np.bincount(loc[fin], weights=np.abs(finite), minlength=len(fold))
    row_bad = ~fold & (n_inf == 0) & (fsum > b + scaled_tol(b, size))
    act = e_fold | (~row_bad[loc] & ((n_inf[loc] == 0) | ((n_inf[loc] == 1) & inf)))
    rest = np.where(inf, fsum[loc], fsum[loc] - contrib)
    bound = (b[loc] - rest) / a
    lo = np.where(e_fold, fold_lo, np.where(a < 0, bound, -_INF))
    hi = np.where(e_fold, fold_hi, np.where(a > 0, bound, _INF))

    t = np.flatnonzero(act)
    j, lo, hi = col[t], lo[t], hi[t]
    lo0, hi0 = lb[j], ub[j]
    new_lo = np.where(lo > lo0 + TOL, lo, lo0)
    new_hi = np.where(hi < hi0 - TOL, hi, hi0)
    r = is_int[j]
    # `+ 0.0`: the row loop rounds to a Python int, which is never -0.0.
    new_lo = np.where(r & (new_lo != -_INF), np.ceil(new_lo - TOL) + 0.0, new_lo)
    new_hi = np.where(r & (new_hi != _INF), np.floor(new_hi + TOL) + 0.0, new_hi)
    return (t, np.where(new_lo > lo0, new_lo, lo0), np.where(new_hi < hi0, new_hi, hi0),
            np.flatnonzero(row_bad), new_lo > new_hi + TOL)


def _strengthened(model: MipModel, rows: _Rows):
    """(lb, ub, ids of the rows kept) after `_strengthen`."""
    lb, ub = model.lb.copy(), model.ub.copy()
    is_int = np.zeros(model.num_cols, dtype=bool)
    is_int[list(model.integers)] = True
    _strengthen(rows, lb, ub, is_int)
    return lb, ub, np.flatnonzero(np.diff(rows.indptr) >= 2)


def strengthen_bounds_once(model: MipModel) -> MipModel:
    """One pass of single-row activity-based bound tightening.

    Empty rows are checked and dropped; singleton rows are folded into the
    variable bounds and dropped. No iteration to a fixpoint.
    """
    rows = _Rows.of(model)
    lb, ub, keep = _strengthened(model, rows)
    return _submodel(model, rows.take(keep), keep, lb, ub)


# ---------------------------------------------------------------------------
# Pure binary rewriting and classification


def _rewrite(rows: _Rows, lb, ub, bins: np.ndarray):
    """Every <=-form of every row onto the literals of the binary columns
    `bins`: a negative binary coefficient is complemented and the infimum
    of the non-binary part is moved to the right-hand side. Forms whose
    infimum is unbounded give no constraint. Returns the table and, per
    constraint, the magnitude of what its rhs sums: |rhs| plus the absolute
    values of the terms moved into it."""
    n_b = len(bins)
    pos = np.full(len(lb), -1, dtype=np.int64)
    pos[bins] = np.arange(n_b)
    f_row, _, sign, epos, form = rows.forms(rows.sense != SENSE_GE,
                                            rows.sense != SENSE_LE)
    nf = len(f_row)
    col = rows.cols[epos]
    a = rows.vals[epos] * sign[form]
    binary = pos[col] >= 0
    inf_j = np.where(a > 0, a * lb[col], a * ub[col])
    # What the row loop subtracts from its shift, term by term (0.0 for a
    # positive binary: subtracting it leaves the shift as it is).
    d = np.where(binary, np.where(a > 0, 0.0, a), inf_j)
    bounded = np.bincount(form[~binary & (inf_j == -_INF)], minlength=nf) == 0
    f_len = np.diff(rows.indptr)[f_row]
    f_ptr = _indptr(f_len)
    shift = np.zeros(nf)
    for length in _distinct(f_len[bounded & (f_len > 0)]).tolist():
        sel = np.flatnonzero(bounded & (f_len == length))
        terms = d[f_ptr[sel][:, None] + np.arange(length)]
        # `+ 0.0`: cumsum starts from the first term, the loop from 0.0.
        shift[sel] = np.cumsum(-terms, axis=1)[:, -1] + 0.0
    t = np.flatnonzero(binary & bounded[form])
    compl = a[t] < 0
    coeff = np.abs(a[t])
    t_order = np.lexsort((compl, col[t], coeff, form[t]))
    t, compl, coeff = t[t_order], compl[t_order], coeff[t_order]
    keep = np.flatnonzero(bounded)
    size = np.abs(rows.rhs[f_row]) + np.bincount(form, weights=np.abs(d), minlength=nf)
    return PbcTable(
        _indptr(np.bincount(form[t], minlength=nf)[keep]),
        (pos[col[t]] + n_b * compl).astype(np.int32),
        coeff,
        (sign * rows.rhs[f_row] + shift)[keep],
        f_row[keep],
    ), size[keep]


def _binary_cols(integers, lb, ub) -> np.ndarray:
    ints = np.fromiter(integers, np.int64, len(integers))
    return np.sort(ints[(lb[ints] == 0.0) & (ub[ints] == 1.0)])


def rewrite_rows(model: MipModel) -> PbcTable:
    """The <=-forms of the model's rows as pure binary constraints, in
    (row, LE then GE) order, over the nodes of `VarMap(sorted(binaries))`."""
    return _rewrite(_Rows.of(model), model.lb, model.ub,
                    _binary_cols(model.integers, model.lb, model.ub))[0]


def classify_rows(model: MipModel) -> DetectionResult:
    """Rewrite and classify the rows of a model taken as already
    strengthened (see `_classify`)."""
    return _classify(model, _Rows.of(model), np.arange(model.num_rows),
                     model.lb, model.ub)


def _classify(model: MipModel, rows: _Rows, ids: np.ndarray, lb, ub
              ) -> DetectionResult:
    """Rewrite and classify `rows`, which are the rows `ids` of `model`,
    under the bounds `lb`, `ub`.

    A LE or GE row over binaries only whose coefficients are all positive
    and equal within TOL is an original set packing (osp) row and leaves
    the model. Every other row stays; each of its <=-forms is an inferred
    set packing (isp), a conflicting knapsack (ck, two largest coefficients
    exceed the rhs), a singleton (a fixing when its coefficient exceeds the
    rhs) or inert. The tables' `source_row` is the row's entry in `ids`.
    """
    bins = _binary_cols(model.integers, lb, ub)
    n_b = len(bins)
    pbc, size = _rewrite(rows, lb, ub, bins)

    n = pbc.lengths()
    c, r = pbc.coeffs, pbc.rhs
    first, last, second = (np.zeros(len(pbc)) for _ in range(3))
    first[n > 0] = c[pbc.indptr[:-1][n > 0]]
    last[n > 0] = c[pbc.indptr[1:][n > 0] - 1]
    second[n > 1] = c[pbc.indptr[1:][n > 1] - 2]
    tol = scaled_tol(r, last + second, size)
    packing = ((n >= 2) & (last - first <= tol) & (first <= r + tol)
               & (r < 2 * first - tol))
    seg = np.repeat(np.arange(len(pbc)), n)
    complemented = np.bincount(seg[pbc.nodes >= n_b], minlength=len(pbc))
    src = pbc.source_row
    osp = (packing & (rows.sense[src] != SENSE_EQ) & (complemented == 0)
           & (n == np.diff(rows.indptr)[src]))
    ck = ~packing & (n >= 2) & (last + second > r + tol)

    infeasible = (n <= 1) & (r < -tol)
    fix = np.flatnonzero((n == 1) & ~infeasible & (first > r + tol))
    node = pbc.nodes[pbc.indptr[fix]]
    fval = (node >= n_b).astype(np.int64)
    fcol = bins[node - n_b * fval]
    # A column fixed a second time, to the other value, is a contradiction.
    _, head, inv = np.unique(fcol, return_index=True, return_inverse=True)
    clash = fix[fval != fval[head][inv]]
    errors = []
    if infeasible.any():
        i = int(np.argmax(infeasible))
        errors.append((i, int(src[i]), ""))
    if len(clash):
        i = int(clash[0])
        j = int(fcol[np.searchsorted(fix, i)])
        errors.append((i, int(src[i]), f"row {int(src[i])} fixes col {j} both ways"))
    _first_error(errors)

    lb, ub = lb.copy(), ub.copy()
    lb[fcol] = ub[fcol] = fval
    removed = np.zeros(len(rows.rhs), dtype=bool)
    removed[src[osp]] = True
    kept = np.flatnonzero(~removed)
    pbc.source_row = ids[src]
    return DetectionResult(
        model=_submodel(model, rows.take(kept), ids[kept], lb, ub),
        s_osp=pbc.take(np.flatnonzero(osp)),
        s_isp=pbc.take(np.flatnonzero(packing & ~osp)),
        s_ck=pbc.take(np.flatnonzero(ck)),
        fixings=list(zip(fcol.tolist(), fval.tolist())),
        varmap=VarMap(bins.tolist()),
        work=int(rows.indptr[-1]),
    )


def detect(model: MipModel) -> DetectionResult:
    """Single-pass detection of set packing and conflicting knapsack rows:
    `strengthen_bounds_once`, then `classify_rows`."""
    rows = _Rows.of(model)
    lb, ub, keep = _strengthened(model, rows)
    return _classify(model, rows.take(keep), keep, lb, ub)
