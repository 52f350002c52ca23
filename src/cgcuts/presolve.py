"""One-round row detection: bound strengthening, pure-binary rewriting and
classification into set packing / conflicting knapsack / singleton / inert.

Every step reads the `MipModel`'s CSR rows, rhs and senses as they are
and works in NumPy passes. Rows must not store a column twice or a zero
coefficient; `parse_mps` never produces either.

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

from .model_io import (SENSE_EQ, SENSE_GE, SENSE_LE, MipModel, _indptr, _ranges, binary_cols,
                       stable_order)

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

    def __reduce__(self):  # the default rebuilds it from the message alone
        return type(self), (self.row, str(self))


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
    segment of `indptr`, over conflict-graph nodes (see `DetectionResult`).

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


@dataclass
class DetectionResult:
    """What `detect` gives the pipeline: the model left after strengthening
    (bounds tightened and fixed, osp rows removed; see `MipModel.take_rows`
    for what it shares with the input), the osp, isp and ck tables, the
    fixings as (column, value), and `binaries`, the binary columns as one
    sorted int64 array. The tables' nodes index it: with n_b =
    len(binaries), node j < n_b is column binaries[j] and node n_b + j its
    complement (1 - x)."""

    model: MipModel
    s_osp: PbcTable
    s_isp: PbcTable
    s_ck: PbcTable
    fixings: list[tuple[int, int]]
    binaries: np.ndarray


def _forms(indptr: np.ndarray, le: np.ndarray, ge: np.ndarray):
    """The <=-forms of the rows of the CSR layout `indptr`, in (row, LE then
    GE) order: rows with `le` set give their LE form, rows with `ge` set
    their GE form (the negated row). Returns each form's row, order key
    (2 * row + 1 for a second form) and sign, and each entry's position and
    form."""
    count = le.astype(np.int64) + ge
    row = np.repeat(np.arange(len(count)), count)
    second = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    sign = np.where((second == 1) | ~le[row], -1.0, 1.0)
    pos = _segment_positions(indptr, row)
    form = np.repeat(np.arange(len(row)), indptr[row + 1] - indptr[row])
    return row, 2 * row + second, sign, pos, form


def _check_nonzero(model: MipModel) -> None:
    """Raise a `ValueError` if a row of `model` stores a zero coefficient."""
    zero = np.flatnonzero(model.vals == 0)
    if len(zero):
        row = int(np.searchsorted(model.indptr, zero[0], side="right")) - 1
        raise ValueError(f"row {row} stores a zero coefficient")


# ---------------------------------------------------------------------------
# Bound strengthening


def _first_error(errors: list[tuple[int, int, str]]):
    """Raise the first of (order key, row, message) errors, if any."""
    if errors:
        _, row, message = min(errors)
        raise InfeasibleError(row, message)


def _strengthen(model: MipModel, lb: np.ndarray, ub: np.ndarray,
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
    lens = np.diff(model.indptr)
    sense, rhs = model.senses, model.rhs
    errors = []  # (2 * row + form within the row, row, message)

    ok = np.where(sense == SENSE_LE, rhs >= -TOL,
                  np.where(sense == SENSE_GE, rhs <= TOL, np.abs(rhs) <= TOL))
    bad = np.flatnonzero((lens == 0) & ~ok)
    if len(bad):
        i = int(bad[0])
        errors.append((2 * i, i, f"empty row {i} with rhs {float(rhs[i])}"))

    # A singleton row is one form, a fold of its bound b / a.
    multi = lens >= 2
    f_row, f_key, sign, pos, form = _forms(
        model.indptr, (multi & (sense != SENSE_GE)) | (lens == 1), multi & (sense != SENSE_LE))
    fold = lens[f_row] == 1
    f_b = sign * rhs[f_row]
    f_len = lens[f_row]
    f_ptr = _indptr(f_len)
    col = model.cols[pos]
    a = model.vals[pos] * sign[form]
    next_form = _schedule(col, form, f_row)

    def evaluate(forms, e):
        """`_evaluate` of `forms` (ascending), whose entries are `e`: the
        entries that move a bound and their new bounds, the infeasible
        forms and the entries that force an empty domain."""
        t, lo, hi, infeasible, empty = _evaluate(
            fold[forms], sense[f_row[forms]], f_b[forms], f_len[forms], col[e], a[e], lb, ub,
            is_int)
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


def _evaluate(fold, sense, b, flen, col, a, lb, ub, is_int):
    """What a set of forms does to the bounds, each form reading `lb` and
    `ub` as they are; nothing is written. A fold, the one form of a
    singleton row of `sense`, sets b / a: as both bounds for EQ, as the
    upper for LE with a > 0 or GE with a < 0, else as the lower.

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
    rest = np.where(inf | e_fold, fsum[loc], fsum[loc] - contrib)  # 0 for a fold
    bound = (b[loc] - rest) / a
    eq, flip = ((fold & (sense == s))[loc] for s in (SENSE_EQ, SENSE_GE))
    lo = np.where(eq | ((a < 0) != flip), bound, -_INF)
    hi = np.where(eq | ((a > 0) != flip), bound, _INF)

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


def _strengthened(model: MipModel):
    """(lb, ub, ids of the rows kept) after one round of `_strengthen`, no
    fixpoint: empty rows are checked and singleton rows folded into the
    bounds, and both are dropped."""
    _check_nonzero(model)
    lb, ub = model.lb.copy(), model.ub.copy()
    _strengthen(model, lb, ub, model.integer_mask())
    return lb, ub, np.flatnonzero(np.diff(model.indptr) >= 2)


# ---------------------------------------------------------------------------
# Pure binary rewriting and classification


def _rewrite(model: MipModel, bins: np.ndarray):
    """Every <=-form of every row of `model` onto the literals of its binary
    columns `bins`: a negative binary coefficient is complemented and the
    infimum of the non-binary part is moved to the right-hand side. Forms
    whose infimum is unbounded give no constraint. Returns the table and,
    per constraint, the magnitude of what its rhs sums: |rhs| plus the
    absolute values of the terms moved into it."""
    n_b = len(bins)
    lb, ub = model.lb, model.ub
    pos = np.full(len(lb), -1, dtype=np.int64)
    pos[bins] = np.arange(n_b)
    sense = model.senses
    f_row, _, sign, epos, form = _forms(model.indptr, sense != SENSE_GE, sense != SENSE_LE)
    nf = len(f_row)
    col = model.cols[epos]
    a = model.vals[epos] * sign[form]
    binary = pos[col] >= 0
    inf_j = np.where(a > 0, a * lb[col], a * ub[col])
    # What the row loop subtracts from its shift, term by term (0.0 for a
    # positive binary: subtracting it leaves the shift as it is).
    d = np.where(binary, np.where(a > 0, 0.0, a), inf_j)
    bounded = np.bincount(form[~binary & (inf_j == -_INF)], minlength=nf) == 0
    f_len = np.diff(model.indptr)[f_row]
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
    size = np.abs(model.rhs[f_row]) + np.bincount(form, weights=np.abs(d), minlength=nf)
    return PbcTable(
        _indptr(np.bincount(form[t], minlength=nf)[keep]),
        (pos[col[t]] + n_b * compl).astype(np.int32),
        coeff,
        (sign * model.rhs[f_row] + shift)[keep],
        f_row[keep],
    ), size[keep]


def _classify(model: MipModel, ids: np.ndarray) -> DetectionResult:
    """Rewrite and classify the rows of `model`, which are the rows `ids`
    of the input model.

    A LE or GE row over binaries only whose coefficients are all positive
    and equal within TOL is an original set packing (osp) row and leaves
    the model. Every other row stays; each of its <=-forms is an inferred
    set packing (isp), a conflicting knapsack (ck, two largest coefficients
    exceed the rhs), a singleton (a fixing when its coefficient exceeds the
    rhs) or inert. The tables' `source_row` is the row's entry in `ids`.
    """
    bins = binary_cols(model.integers, model.lb, model.ub)
    n_b = len(bins)
    pbc, size = _rewrite(model, bins)

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
    osp = (packing & (model.senses[src] != SENSE_EQ) & (complemented == 0)
           & (n == np.diff(model.indptr)[src]))
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

    lb, ub = model.lb.copy(), model.ub.copy()
    lb[fcol] = ub[fcol] = fval
    removed = np.zeros(model.num_rows, dtype=bool)
    removed[src[osp]] = True
    kept = np.flatnonzero(~removed)
    pbc.source_row = ids[src]
    return DetectionResult(
        model=model.take_rows(kept, lb, ub),
        s_osp=pbc.take(np.flatnonzero(osp)),
        s_isp=pbc.take(np.flatnonzero(packing & ~osp)),
        s_ck=pbc.take(np.flatnonzero(ck)),
        fixings=list(zip(fcol.tolist(), fval.tolist())),
        binaries=bins,
    )


def detect(model: MipModel) -> DetectionResult:
    """Single-pass detection of set packing and conflicting knapsack rows:
    `_strengthened`, then `_classify` of the rows it keeps."""
    lb, ub, keep = _strengthened(model)
    return _classify(model.take_rows(keep, lb, ub), keep)
