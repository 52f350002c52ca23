"""Bound strengthening, pure-binary rewriting and row classification."""
import math

import numpy as np
import pytest

from cgcuts.presolve import (InfeasibleError, _classify, _distinct, _rewrite, _search,
                             _strengthened, detect)
from conftest import (
    Literal,
    binaries_of,
    feasible_binary_points,
    literal_of,
    make_model,
    pbc_table,
    random_binary_model,
    row_of,
)


@pytest.mark.parametrize("kind", [None, "stable"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_distinct_matches_np_unique(dtype, kind):
    rng = np.random.default_rng(17)
    for x in [np.zeros(0), np.array([4]), np.array([3, 3, 3]), np.array([-2, 5, -2, 0]),
              rng.integers(0, 50, size=400), rng.integers(0, 2**30, size=300)]:
        x = x.astype(dtype)
        want = np.unique(x)
        got = _distinct(x.copy(), kind=kind) if kind else _distinct(x.copy())
        assert got.dtype == dtype and got.tolist() == want.tolist()


def _sorted_ranges(rng, values_dtype, n_ranges, width):
    """Concatenated sorted runs of few distinct values (so repeats occur),
    some of them empty, and their (lo, hi) bounds."""
    lens = rng.integers(0, width + 1, size=n_ranges)
    lens[rng.random(n_ranges) < 0.2] = 0
    runs = [np.sort(rng.integers(-5, 6, size=t)).astype(values_dtype) for t in lens]
    hi = np.cumsum(lens)
    return np.concatenate([np.zeros(0, values_dtype)] + runs), hi - lens, hi


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_search_matches_searchsorted_on_each_range(dtype, side):
    rng = np.random.default_rng(29)
    cases = [_sorted_ranges(rng, dtype, n, w) for n, w in [(1, 1), (5, 3), (40, 9), (200, 40)]]
    cases += [(np.zeros(0, dtype), np.zeros(3, np.int64), np.zeros(3, np.int64)),  # empty values
              (np.arange(6, dtype=dtype), np.zeros(0, np.int64), np.zeros(0, np.int64))]
    for values, lo, hi in cases:
        # every range once per query value, and the ranges that end at the array's end
        q_lo = np.concatenate([np.repeat(lo, 13), np.repeat(lo[hi == len(values)], 13)])
        q_hi = np.concatenate([np.repeat(hi, 13), np.repeat(hi[hi == len(values)], 13)])
        x = np.tile(np.arange(-6, 7), len(q_lo) // 13).astype(dtype)
        if dtype == np.float64:
            x += rng.choice([0.0, 0.5, -0.5], size=len(x))
        want = [a + np.searchsorted(values[a:b], v, side)
                for a, b, v in zip(q_lo.tolist(), q_hi.tolist(), x.tolist())]
        assert _search(values, q_lo, q_hi, x, side).tolist() == want


def terms(table, i, binaries):
    """Constraint i of `table` as (Literal, coefficient) pairs."""
    a, b = table.indptr[i], table.indptr[i + 1]
    return [(literal_of(binaries, int(v)), float(c))
            for v, c in zip(table.nodes[a:b], table.coeffs[a:b])]


def classes(coeff_list, rhs):
    """What `_classify` makes of sum coeff_j x_j <= rhs over binaries:
    the tables that hold the row, or the fixings it implies."""
    n = len(coeff_list)
    model = make_model(n, [dict(enumerate(coeff_list))], ["L"], [rhs],
                       binary=range(n))
    res = _classify(model, np.arange(1))
    found = {name for name in ("s_osp", "s_isp", "s_ck")
             if len(getattr(res, name))}
    return found, res.fixings


# --- strengthening -----------------------------------------------------------
# `_strengthened` gives (lb, ub, ids of the rows kept).


def test_singleton_row_fixes_binary_and_is_removed():
    model = make_model(1, [{0: 2.0}], ["L"], [1.0], binary=[0])
    _, ub, keep = _strengthened(model)
    assert len(keep) == 0
    assert ub[0] == 0.0


def test_activity_bound_tightens_continuous_upper():
    model = make_model(2, [{0: 1.0, 1: 1.0}], ["L"], [1.0],
                       binary=[0], ub=[1.0, 5.0])
    _, ub, keep = _strengthened(model)
    assert ub[1] == 1.0
    assert len(keep) == 1


def test_all_infinite_activity_changes_nothing():
    model = make_model(2, [{0: 1.0, 1: 1.0}], ["L"], [1.0],
                       lb=[-math.inf, -math.inf])
    lb, ub, _ = _strengthened(model)
    assert lb.tolist() == model.lb.tolist()
    assert ub.tolist() == model.ub.tolist()


def test_integer_bounds_round_inward():
    model = make_model(1, [{0: 2.0}], ["L"], [3.0], integers=[0],
                       ub=[10.0])
    assert _strengthened(model)[1][0] == 1.0  # floor(3/2)


def test_ge_rows_tighten_lower_bounds():
    model = make_model(2, [{0: 1.0, 1: 1.0}], ["G"], [4.0],
                       ub=[2.0, 5.0])
    assert _strengthened(model)[0][1] == 2.0  # 4 - max contribution 2 of x1


def test_infeasible_row_raises():
    model = make_model(2, [{0: 1.0, 1: 1.0}], ["L"], [-1.0])
    with pytest.raises(InfeasibleError):
        _strengthened(model)


def test_infeasible_empty_row_raises():
    model = make_model(1, [[]], ["G"], [2.0])
    with pytest.raises(InfeasibleError):
        _strengthened(model)


def test_feasible_empty_row_is_dropped():
    model = make_model(1, [[]], ["L"], [1.0])
    assert len(_strengthened(model)[2]) == 0


# --- rewriting -------------------------------------------------------------
# The test_to_pbc_* names are those of the per-row rewrite that `_rewrite`
# now does for all rows at once.


def rewrite(model):
    """`_rewrite`'s table of `model` over its binary columns."""
    return _rewrite(model, binaries_of(model))[0]


def test_to_pbc_complements_negative_binaries():
    model = make_model(2, [{0: 2.0, 1: -3.0}], ["L"], [-1.0], binary=[0, 1])
    out = rewrite(model)
    assert out.rhs.tolist() == [2.0]  # -1 - 0 + 3
    assert terms(out, 0, [0, 1]) == [(Literal(0, False), 2.0),
                                     (Literal(1, True), 3.0)]


def test_to_pbc_identity_on_pure_binary_row():
    model = make_model(2, [{0: 1.0, 1: 1.0}], ["L"], [1.0], binary=[0, 1])
    out = rewrite(model)
    assert out.rhs.tolist() == [1.0]
    assert [(lit.col, lit.complemented, a)
            for lit, a in terms(out, 0, [0, 1])] == [
        (0, False, 1.0),
        (1, False, 1.0),
    ]


def test_to_pbc_unbounded_infimum_gives_nothing():
    model = make_model(2, [{0: 2.0, 1: 1.5}], ["L"], [4.0],
                       binary=[0], lb=[0.0, -math.inf])
    assert len(rewrite(model)) == 0


def test_to_pbc_absorbs_bounded_continuous_part():
    # 2 x1 + y <= 4 with y in [1, 3] -> 2 x1 <= 3
    model = make_model(2, [{0: 2.0, 1: 1.0}], ["L"], [4.0],
                       binary=[0], lb=[0.0, 1.0], ub=[1.0, 3.0])
    out = rewrite(model)
    assert out.rhs.tolist() == [3.0]
    assert out.lengths().tolist() == [1]


def test_rewrite_negates_ge_rows():
    # x1 + x2 >= 1 is -x1 - x2 <= -1, that is (1-x1) + (1-x2) <= 1
    model = make_model(2, [{0: 1.0, 1: 1.0}], ["G"], [1.0], binary=[0, 1])
    out = rewrite(model)
    assert out.rhs.tolist() == [1.0]
    assert terms(out, 0, [0, 1]) == [(Literal(0, True), 1.0),
                                     (Literal(1, True), 1.0)]


# --- classification ----------------------------------------------------------


def test_classify_set_packing():
    assert classes([1, 1, 1], 1)[0] == {"s_osp"}


def test_classify_scaled_set_packing():
    assert classes([2, 2, 2], 3)[0] == {"s_osp"}
    # rhs at 2a is no longer a packing row (two members fit)
    assert not classes([2, 2, 2], 4)[0] & {"s_osp", "s_isp"}


def test_classify_conflicting_knapsack():
    assert classes([1, 2, 3, 4], 5)[0] == {"s_ck"}


def test_classify_inert():
    assert classes([1, 2], 4) == (set(), [])


def test_classify_singleton():
    # a singleton whose coefficient exceeds the rhs fixes its literal to 0
    assert classes([3], 2) == (set(), [(0, 0)])


def test_pbc_rejects_unsorted_or_nonpositive_terms():
    with pytest.raises(ValueError):
        pbc_table([([2.0, 1.0], 3.0)])
    with pytest.raises(ValueError):
        pbc_table([([0.0], 1.0)])


# --- detect ----------------------------------------------------------------


def test_detect_moves_packing_row_out_of_model():
    model = make_model(2, [{0: 1.0, 1: 1.0}], ["L"], [1.0], binary=[0, 1])
    res = detect(model)
    assert len(res.s_osp) == 1
    assert res.model.num_rows == 0
    assert len(res.s_isp) == 0 and len(res.s_ck) == 0


def test_detect_classifies_rewritten_knapsack():
    # 2 x1 - 3 x2 <= 1 rewrites to 2 x1 + 3 (1-x2) <= 4; 3+2 > 4.
    model = make_model(2, [{0: 2.0, 1: -3.0}], ["L"], [1.0], binary=[0, 1])
    res = detect(model)
    assert len(res.s_ck) == 1
    assert res.model.num_rows == 1
    assert res.s_ck.rhs.tolist() == [4.0]
    assert terms(res.s_ck, 0, res.binaries) == [(Literal(0, False), 2.0),
                                                (Literal(1, True), 3.0)]


def test_detect_strengthening_preempts_forced_complement():
    # 2 x1 - 3 x2 <= -1 forces x2 >= 1/3, so x2 is fixed to 1 in the
    # strengthening pass and nothing is left to classify.
    model = make_model(2, [{0: 2.0, 1: -3.0}], ["L"], [-1.0], binary=[0, 1])
    res = detect(model)
    assert res.model.lb[1] == 1.0
    assert len(res.s_ck) == len(res.s_isp) == len(res.s_osp) == 0


def test_detect_discards_inert_rows():
    model = make_model(2, [{0: 1.0, 1: 2.0}], ["L"], [4.0], binary=[0, 1])
    res = detect(model)
    assert len(res.s_osp) == len(res.s_isp) == len(res.s_ck) == 0
    assert res.model.num_rows == 1  # retained, just not useful


def test_detect_keeps_inferred_packing_row():
    # mixed row whose binary part is a packing structure after rewriting
    model = make_model(3, [{0: 1.0, 1: 1.0, 2: 1.0}], ["L"], [1.5],
                       binary=[0, 1], lb=[0, 0, 0.5], ub=[1, 1, 0.5])
    res = detect(model)
    assert len(res.s_isp) == 1
    assert res.model.num_rows == 1


def test_detect_handles_ge_packing_rows():
    # -x1 - x2 >= -1 is x1 + x2 <= 1
    model = make_model(2, [{0: -1.0, 1: -1.0}], ["G"], [-1.0], binary=[0, 1])
    res = detect(model)
    assert len(res.s_osp) == 1
    assert res.model.num_rows == 0


def test_detect_splits_equality_rows():
    # x1 + x2 = 1 splits into x1 + x2 <= 1 and (1-x1) + (1-x2) <= 1;
    # both halves are packing rows over literals, and the row stays.
    model = make_model(2, [{0: 1.0, 1: 1.0}], ["E"], [1.0], binary=[0, 1])
    res = detect(model)
    assert res.model.num_rows == 1
    assert len(res.s_isp) == 2


def test_detect_preserves_binary_feasible_set():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(60):
        model = random_binary_model(rng, max_binaries=8)
        try:
            res = detect(model)
        except InfeasibleError:
            assert len(feasible_binary_points(model)) == 0
            continue
        before = feasible_binary_points(model)
        out = res.model
        for pt in before:
            assert np.all(pt >= out.lb - 1e-9) and np.all(pt <= out.ub + 1e-9)
            for i in range(out.num_rows):
                cols, vals = row_of(out, i)
                act = pt[cols] @ vals
                if out.senses[i] == "L":
                    assert act <= out.rhs[i] + 1e-9
                elif out.senses[i] == "G":
                    assert act >= out.rhs[i] - 1e-9
                else:
                    assert abs(act - out.rhs[i]) <= 1e-9
            checked += 1
    assert checked > 0


def test_detect_knapsack_sets_satisfy_conflict_condition():
    rng = np.random.default_rng(5)
    for _ in range(40):
        model = random_binary_model(rng)
        try:
            res = detect(model)
        except InfeasibleError:
            continue
        for i, rhs in enumerate(res.s_ck.rhs):
            coeffs = res.s_ck.coeffs[res.s_ck.indptr[i]:res.s_ck.indptr[i + 1]]
            assert coeffs[-1] + coeffs[-2] > rhs + 1e-9
        for sp in (res.s_osp, res.s_isp):
            for i, rhs in enumerate(sp.rhs):
                coeffs = sp.coeffs[sp.indptr[i]:sp.indptr[i + 1]]
                a = coeffs[0]
                assert max(coeffs) - a <= 1e-9
                assert a <= rhs + 1e-9 and rhs < 2 * a - 1e-9
