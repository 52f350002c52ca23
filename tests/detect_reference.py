"""Row-at-a-time detection: the reference for `cgcuts.presolve`.

These are the straightforward per-row, per-nonzero versions of
`presolve._strengthened` and `detect`: a loop over the rows that tightens
one bound at a time, and a list of `(Literal, coefficient)` terms per pure
binary constraint. The array-pass versions in `cgcuts.presolve` must give
bit-identical bounds, kept rows, fixings and tables, and the same
`InfeasibleError` row and message.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from cgcuts.model_io import SENSE_EQ, SENSE_GE, SENSE_LE, MipModel
from cgcuts.presolve import TOL, InfeasibleError, scaled_tol

from conftest import Literal, binaries_of, model_of_rows, row_of

_INF = math.inf


@dataclass
class PureBinaryConstraint:
    """Knapsack over literals: sum a_t * lit_t <= rhs with all a_t > 0,
    terms sorted by (coefficient, column, complemented)."""

    terms: list[tuple[Literal, float]]
    rhs: float
    source_row: int = -1
    #: |rhs| plus the absolute values of the terms moved into it
    size: float = field(default=0.0, compare=False)

    def __post_init__(self):
        coeffs = [a for _, a in self.terms]
        if any(a <= 0 for a in coeffs):
            raise ValueError("PBC coefficients must be strictly positive")
        if any(coeffs[i] > coeffs[i + 1] for i in range(len(coeffs) - 1)):
            raise ValueError("PBC terms must be sorted by coefficient")

    def __len__(self) -> int:
        return len(self.terms)


@dataclass
class Detection:
    model: MipModel
    s_osp: list[PureBinaryConstraint]
    s_isp: list[PureBinaryConstraint]
    s_ck: list[PureBinaryConstraint]
    fixings: list[tuple[int, int]]
    binaries: np.ndarray


def _round_inward(lo: float, hi: float, is_int: bool) -> tuple[float, float]:
    if is_int:
        if lo != -_INF:
            lo = math.ceil(lo - TOL)
        if hi != _INF:
            hi = math.floor(hi + TOL)
    return lo, hi


def _rows_of(m: MipModel, keep: list[int]) -> MipModel:
    """`m` with only the rows `keep`."""
    return model_of_rows([row_of(m, i) for i in keep], like=m,
                         row_names=[m.row_names[i] for i in keep],
                         senses=[m.senses[i] for i in keep],
                         rhs=m.rhs[keep] if keep else m.rhs[:0])


def strengthen_bounds_once(model: MipModel) -> MipModel:
    m = copy.deepcopy(model)
    lb, ub = m.lb, m.ub
    keep = []

    def tighten(j: int, lo: float | None, hi: float | None, row: int):
        is_int = j in m.integers
        cur_lo, cur_hi = lb[j], ub[j]
        if lo is not None and lo > cur_lo + TOL:
            cur_lo = lo
        if hi is not None and hi < cur_hi - TOL:
            cur_hi = hi
        cur_lo, cur_hi = _round_inward(cur_lo, cur_hi, is_int)
        if cur_lo > cur_hi + TOL:
            raise InfeasibleError(row, f"row {row} forces empty domain on col {j}")
        lb[j] = max(lb[j], cur_lo)
        ub[j] = min(ub[j], cur_hi)

    def strengthen_le(cols, vals, b: float, row: int):
        contrib = np.where(vals > 0, vals * lb[cols], vals * ub[cols])
        inf_mask = np.isinf(contrib)
        n_inf = int(inf_mask.sum())
        finite_sum = float(contrib[~inf_mask].sum())
        size = float(np.abs(contrib[~inf_mask]).sum())
        if n_inf == 0 and finite_sum > b + scaled_tol(b, size):
            raise InfeasibleError(row)
        for t in range(len(cols)):
            if n_inf > 1 or (n_inf == 1 and not inf_mask[t]):
                continue
            rest = finite_sum if inf_mask[t] else finite_sum - float(contrib[t])
            j = int(cols[t])
            a = float(vals[t])
            bound = (b - rest) / a
            if a > 0:
                tighten(j, None, bound, row)
            else:
                tighten(j, bound, None, row)

    for i in range(m.num_rows):
        cols, vals = row_of(m, i)
        sense = m.senses[i]
        b = float(m.rhs[i])
        if len(cols) == 0:
            ok = (
                (sense == SENSE_LE and b >= -TOL)
                or (sense == SENSE_GE and b <= TOL)
                or (sense == SENSE_EQ and abs(b) <= TOL)
            )
            if not ok:
                raise InfeasibleError(i, f"empty row {i} with rhs {b}")
            continue
        if len(cols) == 1:
            j = int(cols[0])
            a = float(vals[0])
            v = b / a
            if sense == SENSE_EQ:
                tighten(j, v, v, i)
            elif (sense == SENSE_LE) == (a > 0):
                tighten(j, None, v, i)
            else:
                tighten(j, v, None, i)
            continue
        if sense in (SENSE_LE, SENSE_EQ):
            strengthen_le(cols, vals, b, i)
        if sense in (SENSE_GE, SENSE_EQ):
            strengthen_le(cols, -vals, -b, i)
        keep.append(i)

    m = _rows_of(m, keep)
    return m


def _pbc_from_terms(cols, vals, b: float, model: MipModel, binaries: set[int],
                    source_row: int):
    terms = []
    shift = 0.0
    size = abs(b)
    for j, a in zip(cols, vals):
        j = int(j)
        a = float(a)
        if j in binaries:
            if a > 0:
                terms.append((Literal(j, False), a))
            else:
                terms.append((Literal(j, True), -a))
                shift -= a
                size += abs(a)
        else:
            inf_j = a * model.lb[j] if a > 0 else a * model.ub[j]
            if inf_j == -_INF:
                return None
            shift -= inf_j
            size += abs(inf_j)
    terms.sort(key=lambda t: (t[1], t[0].col, t[0].complemented))
    return PureBinaryConstraint(terms=terms, rhs=b + shift, source_row=source_row,
                                size=size)


def _is_scaled_set_packing(coeffs: np.ndarray, b: float, size: float) -> bool:
    if len(coeffs) < 2:
        return False
    a = float(coeffs[0])
    tol = scaled_tol(b, float(coeffs[-1] + coeffs[-2]), size)
    if a <= 0 or float(coeffs[-1]) - a > tol:
        return False
    return a <= b + tol and b < 2 * a - tol


def _le_forms(cols, vals, b: float, sense: str):
    if sense == SENSE_LE:
        yield cols, vals, b
    elif sense == SENSE_GE:
        yield cols, -vals, -b
    else:
        yield cols, vals, b
        yield cols, -vals, -b


def classify_rows(m: MipModel) -> Detection:
    """The classification loop of `detect`, on a model taken as already
    strengthened."""
    m = copy.deepcopy(m)
    binaries = set(binaries_of(m).tolist())
    bins = np.array(sorted(binaries), dtype=np.int64)
    s_osp, s_isp, s_ck = [], [], []
    fixings: list[tuple[int, int]] = []
    keep = []

    def apply_fixing(lit: Literal, row: int):
        j = lit.col
        value = 1 if lit.complemented else 0
        if m.lb[j] > value or m.ub[j] < value:
            raise InfeasibleError(row, f"row {row} fixes col {j} both ways")
        m.lb[j] = m.ub[j] = float(value)
        fixings.append((j, value))

    for i in range(m.num_rows):
        cols, vals = row_of(m, i)
        sense = m.senses[i]
        b = float(m.rhs[i])
        removed = False
        if sense in (SENSE_LE, SENSE_GE):
            fcols, fvals, fb = next(_le_forms(cols, vals, b, sense))
            if (
                len(fcols) >= 2
                and all(int(j) in binaries for j in fcols)
                and np.all(fvals > 0)
                and _is_scaled_set_packing(np.sort(fvals), fb, fb)
            ):
                s_osp.append(_pbc_from_terms(fcols, fvals, fb, m, binaries, i))
                removed = True
        if not removed:
            for fcols, fvals, fb in _le_forms(cols, vals, b, sense):
                pbc = _pbc_from_terms(fcols, fvals, fb, m, binaries, i)
                if pbc is None:
                    continue
                if len(pbc) == 0:
                    if pbc.rhs < -scaled_tol(pbc.rhs, pbc.size):
                        raise InfeasibleError(i)
                    continue
                coeffs = np.array([a for _, a in pbc.terms])
                if len(pbc) == 1:
                    lit, a = pbc.terms[0]
                    tol = scaled_tol(pbc.rhs, a, pbc.size)
                    if pbc.rhs < -tol:
                        raise InfeasibleError(i)
                    if a > pbc.rhs + tol:
                        apply_fixing(lit, i)
                elif _is_scaled_set_packing(coeffs, pbc.rhs, pbc.size):
                    s_isp.append(pbc)
                elif float(coeffs[-1] + coeffs[-2]) > pbc.rhs + scaled_tol(
                        pbc.rhs, float(coeffs[-1] + coeffs[-2]), pbc.size):
                    s_ck.append(pbc)
            keep.append(i)

    m = _rows_of(m, keep)
    return Detection(m, s_osp, s_isp, s_ck, fixings, bins)


def detect(model: MipModel) -> Detection:
    return classify_rows(strengthen_bounds_once(model))
