"""The array-pass detection against the row loop in `detect_reference`:
bit-identical bounds, kept rows, fixings and tables, and the same
`InfeasibleError` row and message; plus pinning cases that fail under a
design that reads the input bounds in every row, reports the first error
of the first level, or sums activities with `np.add.reduceat`."""
import math

import numpy as np
import pytest

import detect_reference as ref
from cgcuts import presolve
from cgcuts.presolve import InfeasibleError, _classify, _strengthened, detect
from conftest import binaries_of, make_model, node_of, row_of

# Column kinds of the fuzzed models.
BINARY, INTEGER, BOUNDED, NO_LOWER, NO_UPPER, FREE = range(6)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _ref_table(pbcs, binaries, rows):
    """The reference's constraints, each row mapped through `rows`."""
    return [
        ([node_of(binaries, lit) for lit, _ in p.terms],
         _bits([a for _, a in p.terms]), _bits([p.rhs])[0], rows[p.source_row])
        for p in pbcs
    ]


def _table(table):
    ptr = table.indptr.tolist()
    return [
        (table.nodes[a:b].tolist(), _bits(table.coeffs[a:b]), _bits([r])[0], s)
        for a, b, r, s in zip(ptr, ptr[1:], table.rhs.tolist(),
                              table.source_row.tolist())
    ]


def _model_key(m):
    return (m.row_names, m.senses.tolist(), _bits(m.rhs), _bits(m.lb), _bits(m.ub),
            [(c.tolist(), _bits(v)) for c, v in (row_of(m, i) for i in range(m.num_rows))])


def _outcome(fn, model, table):
    try:
        res = fn(model)
    except InfeasibleError as exc:
        return ("infeasible", exc.row, str(exc))
    return ("ok", _model_key(res.model), res.fixings,
            [table(getattr(res, name)) for name in ("s_osp", "s_isp", "s_ck")])


def assert_same_detection(model):
    """`detect` and `_classify` agree with the row loop bit for bit;
    returns the outcome of `detect`. The reference's `detect` counts rows
    after strengthening, which keeps the rows with two or more entries;
    `detect` reports input rows, so the reference's rows are mapped back."""
    def ref_tables(fn, rows):
        def run(m):
            res = fn(m)
            res.s_osp, res.s_isp, res.s_ck = (
                _ref_table(p, res.binaries, rows)
                for p in (res.s_osp, res.s_isp, res.s_ck))
            return res
        return run

    kept = np.flatnonzero(np.diff(model.indptr) >= 2).tolist()
    got = _outcome(detect, model, _table)
    assert got == _outcome(ref_tables(ref.detect, kept), model, lambda t: t)
    assert (_outcome(lambda m: _classify(m, np.arange(m.num_rows)), model, _table)
            == _outcome(ref_tables(ref.classify_rows, range(model.num_rows)),
                        model, lambda t: t))
    return got


def _value(rng, kind) -> float:
    """A fractional or integral coefficient."""
    if kind == "fraction":
        v = rng.uniform(-10, 10)
        return float(round(v, int(rng.integers(1, 6)))) or 0.5
    v = int(rng.integers(-6, 7))
    return float(v) if v else 1.0


def random_mip(rng):
    """Small MIP whose rows mix every column kind. Long fractional rows,
    EQ, singleton and empty rows, rows with one or two infinite
    contributions and general integers with fractional bounds all occur."""
    n = int(rng.integers(3, 26))
    kind = rng.choice(6, size=n, p=[0.4, 0.15, 0.2, 0.1, 0.1, 0.05])
    lb = np.zeros(n)
    ub = np.ones(n)
    for j in range(n):
        if kind[j] == INTEGER:  # fractional bounds are rounded inward
            lb[j] = -float(rng.integers(0, 3)) - rng.choice([0.0, 0.5, 0.25])
            ub[j] = float(rng.integers(1, 8)) + rng.choice([0.0, 0.5, 0.75])
        elif kind[j] == BOUNDED:
            lb[j] = round(rng.uniform(-5, 2), 2)
            ub[j] = lb[j] + round(rng.uniform(0.5, 20), 2)
        elif kind[j] == NO_LOWER:
            lb[j], ub[j] = -math.inf, round(rng.uniform(-2, 10), 2)
        elif kind[j] == NO_UPPER:
            lb[j], ub[j] = round(rng.uniform(-3, 3), 2), math.inf
        elif kind[j] == FREE:
            lb[j], ub[j] = -math.inf, math.inf
    point = np.clip(rng.uniform(-2, 2, size=n), lb, ub)
    point[kind == BINARY] = rng.integers(0, 2, size=int((kind == BINARY).sum()))
    rows, senses, rhs = [], [], []
    for _ in range(int(rng.integers(1, 13))):
        shape = rng.choice(["empty", "single", "short", "long"],
                           p=[0.05, 0.15, 0.5, 0.3])
        size = {"empty": 0, "single": 1, "short": int(rng.integers(2, 9)),
                "long": int(rng.integers(9, 17))}[shape]
        cols = rng.choice(n, size=min(size, n), replace=False)
        numbers = "fraction" if shape == "long" or rng.random() < 0.3 else "int"
        row = {int(j): _value(rng, numbers) for j in cols}
        sense = str(rng.choice(["L", "G", "E"], p=[0.45, 0.35, 0.2]))
        act = sum(a * point[j] for j, a in row.items())
        slack = 0.0 if sense == "E" else float(rng.choice([0.0, 0.5, 1.0, 3.0, 10.0]))
        b = act + slack if sense == "L" else act - slack
        if rng.random() < 0.1:  # sometimes infeasible
            b += float(rng.choice([-5.0, 5.0]))
        rows.append(row)
        senses.append(sense)
        rhs.append(b)
    integers = [j for j in range(n) if kind[j] in (BINARY, INTEGER)]
    return make_model(n, rows, senses, rhs, integers=integers, lb=lb, ub=ub)


def chain_mip(rng):
    """A chain of rows whose tightenings feed each other: row i reads
    column i, whose bound row i - 1 may just have moved, and bounds column
    i + 1, sometimes also a third column. Rows are LE, GE or EQ (the GE
    form of an EQ row runs after its LE form), singleton folds sit between
    the links, and sometimes a last row is cut just below what the
    tightened bounds allow: infeasible only after the tightenings."""
    m = int(rng.integers(2, 16))
    n = m + 1
    integer = rng.random(n) < 0.4
    lb = -rng.integers(0, 4, size=n).astype(float)
    ub = rng.integers(3, 30, size=n) + np.where(integer, 0.0, 0.5)
    point = np.where(integer, np.round(rng.uniform(lb, ub)), rng.uniform(lb, ub))
    rows, senses, rhs = [], [], []
    for i in range(m):
        if rng.random() < 0.25:  # a fold on column i, mid-chain
            rows.append({i: _value(rng, "int")})
        else:
            rows.append({i: _value(rng, "int"), i + 1: _value(rng, "fraction")})
            if rng.random() < 0.2:
                rows[-1][int(rng.integers(0, n))] = _value(rng, "int")
        sense = str(rng.choice(["L", "G", "E"], p=[0.5, 0.3, 0.2]))
        act = sum(a * point[j] for j, a in rows[-1].items())
        slack = 0.0 if sense == "E" else float(rng.choice([0.0, 0.5, 2.0]))
        senses.append(sense)
        rhs.append(act + slack if sense == "L" else act - slack)
    integers = np.flatnonzero(integer).tolist()
    model = make_model(n, rows, senses, rhs, integers=integers, lb=lb, ub=ub)
    if rng.random() < 0.4:
        try:
            tight = ref.strengthen_bounds_once(model)
        except InfeasibleError:
            return model
        j, k = rng.choice(n, size=2, replace=False).tolist()
        if tight.lb[j] > lb[j]:  # min activity now above the rhs
            rows.append({j: 1.0, k: 1.0})
            senses.append("L")
            rhs.append(lb[k] + (lb[j] + tight.lb[j]) / 2)
        elif tight.ub[j] < ub[j]:  # max activity now below the rhs
            rows.append({j: 1.0, k: 1.0})
            senses.append("G")
            rhs.append(ub[k] + (ub[j] + tight.ub[j]) / 2)
        model = make_model(n, rows, senses, rhs, integers=integers, lb=lb, ub=ub)
    return model


@pytest.fixture
def calls(monkeypatch):
    """The number of forms of each `presolve._evaluate` call."""
    counts = []
    evaluate = presolve._evaluate
    monkeypatch.setattr(presolve, "_evaluate",
                        lambda *args: counts.append(len(args[0])) or evaluate(*args))
    return counts


def test_fuzzed_chains_match_row_loop(calls):
    """Chains of tightenings through the speculative pass and the levels
    after it give the row loop's bounds, rows and errors."""
    rng = np.random.default_rng(31)
    hits = dict.fromkeys(["deep", "infeasible after a move", "fold moved", "ge moved"], 0)
    for _ in range(600):
        model = chain_mip(rng)
        calls.clear()
        got = assert_same_detection(model)
        levels = len(calls) - 1  # after the speculative pass
        hits["deep"] += levels >= 3
        hits["infeasible after a move"] += got[0] == "infeasible" and levels >= 1
        try:
            tight = ref.strengthen_bounds_once(model)
        except InfeasibleError:
            continue
        moved = (tight.lb != model.lb) | (tight.ub != model.ub)
        lens = np.diff(model.indptr)
        for i in range(model.num_rows):
            cols = row_of(model, i)[0]
            if moved[cols].any():
                hits["fold moved"] += lens[i] == 1
                hits["ge moved"] += model.senses[i] != "L" and lens[i] >= 2
    assert all(hits.values()), hits


def test_a_chain_without_tightening_settles_in_one_pass(calls):
    # 200 rows x_i + x_{i+1} <= 2 over binaries: every row shares a column
    # with the next, so a level schedule takes 200 rounds, but no bound
    # moves, so the speculative pass alone is final.
    model = make_model(201, [{i: 1.0, i + 1: 1.0} for i in range(200)], ["L"] * 200,
                       [2.0] * 200, binary=range(201))
    lb, ub, _ = _strengthened(model)
    assert calls == [200]
    assert _bits(lb) == _bits(model.lb) and _bits(ub) == _bits(model.ub)
    # a move in row 100 (x_100 = x_101 = 0) sends only the 99 rows after
    # it through the levels, one row each
    model.rhs[100] = 0.0
    calls.clear()
    assert assert_same_detection(model)[0] == "ok"
    assert calls == [200] + [1] * 99


@pytest.mark.parametrize("seed", range(40))
def test_fuzzed_detection_matches_row_loop(seed):
    rng = np.random.default_rng(5000 + seed)
    seen = set()
    for _ in range(25):
        model = random_mip(rng)
        got = assert_same_detection(model)
        seen.add(got[0])
    assert "ok" in seen


def test_fuzz_covers_the_listed_cases():
    """The fuzz models above hit every case the oracle is meant to cover."""
    rng = np.random.default_rng(5000)
    hits = dict.fromkeys(["infeasible", "fixing", "tightened", "ck", "isp",
                          "no pbc", "two infinite", "eq", "order matters",
                          "fractional integer bound"], 0)
    for _ in range(400):
        model = random_mip(rng)
        general = np.setdiff1d(model.integers, binaries_of(model))
        hits["fractional integer bound"] += bool(
            np.any(model.lb[general] % 1) or np.any(model.ub[general] % 1))
        try:
            res = ref.detect(model)
        except InfeasibleError:
            hits["infeasible"] += 1
            continue
        hits["fixing"] += bool(res.fixings)
        hits["tightened"] += bool(np.any(res.model.ub < model.ub)
                                  | np.any(res.model.lb > model.lb))
        hits["ck"] += bool(res.s_ck)
        hits["isp"] += bool(res.s_isp)
        hits["no pbc"] += any(
            ref._pbc_from_terms(c, v, 0.0, res.model, binaries_of(res.model), 0) is None
            for c, v in (row_of(res.model, i) for i in range(res.model.num_rows)))
        hits["eq"] += "E" in model.senses
        for cols, vals in (row_of(model, i) for i in range(model.num_rows)):
            low = np.where(vals > 0, vals * model.lb[cols], vals * model.ub[cols])
            hits["two infinite"] += int(np.isinf(low).sum() == 2)
            if len(cols) >= 9:
                hits["order matters"] += int(low.sum() != sum(low.tolist(), 0.0))
    assert all(hits.values()), hits


# --- pinning cases ------------------------------------------------------------


def test_tightening_reaches_the_next_row():
    # x0 binary, w integer in [0, 5], y, v continuous in [0, 10].
    # Row 0 (y + v <= 2) sets ub(y) = 2. Row 1 (2 x0 + 2 w - y <= 1) then
    # bounds w by (1 + 2) / 2, so w becomes binary and row 1 a packing
    # row over {x0, w}. Read with the input ub(y) = 10, w would stay
    # general and row 1 would be inert.
    model = make_model(
        4, [{2: 1.0, 3: 1.0}, {0: 2.0, 1: 2.0, 2: -1.0}], ["L", "L"], [2.0, 1.0],
        integers=[1], binary=[0], ub=[1.0, 5.0, 10.0, 10.0])
    res = detect(model)
    assert res.model.ub.tolist() == [1.0, 1.0, 2.0, 2.0]
    assert res.s_isp.source_row.tolist() == [1]
    assert res.s_isp.indptr.tolist() == [0, 2]
    assert sorted(res.s_isp.nodes.tolist()) == [0, 1]
    assert assert_same_detection(model)[0] == "ok"


def test_source_row_is_the_input_row():
    # Strengthening drops the singleton row c1, so the knapsack c2 is row 0
    # of the strengthened rows; its provenance is still input row 1.
    model = make_model(3, [{0: 1.0}, {0: 2.0, 1: 3.0, 2: 4.0}], ["L", "L"],
                       [1.0, 5.0], binary=range(3))
    res = detect(model)
    assert res.s_ck.source_row.tolist() == [1]
    assert _classify(model, np.arange(2)).s_ck.source_row.tolist() == [1]
    assert assert_same_detection(model)[0] == "ok"


def test_first_infeasible_row_wins_over_an_earlier_level():
    # Row 1 shares y with row 0, so it runs a level after row 2, which is
    # infeasible too; the error still names row 1, as the row loop does.
    model = make_model(
        5, [{0: 1.0, 1: 1.0}, {1: 1.0, 2: 1.0}, {3: 1.0, 4: 1.0}],
        ["L", "L", "L"], [5.0, -1.0, -1.0])
    with pytest.raises(InfeasibleError) as exc:
        _strengthened(model)
    assert exc.value.row == 1
    assert str(exc.value) == "row 1 is infeasible"
    assert assert_same_detection(model) == ("infeasible", 1, "row 1 is infeasible")


def test_activity_is_a_pairwise_sum():
    # Twelve fractional terms whose sum depends on the order: the tightened
    # bounds follow NumPy's .sum(), which np.add.reduceat does not match.
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(0.1, 10, size=12) * rng.uniform(0.1, 2, size=12)
    lb = rng.uniform(0.1, 2, size=12)
    contrib = coeffs * lb
    assert np.add.reduceat(contrib, [0])[0] != contrib.sum()
    b = float(contrib.sum()) + 5.0
    model = make_model(12, [dict(enumerate(coeffs))], ["L"], [b],
                       lb=lb, ub=np.full(12, 100.0))
    ub = _strengthened(model)[1]
    expected = (b - (contrib.sum() - contrib)) / coeffs
    by_reduceat = (b - (np.add.reduceat(contrib, [0])[0] - contrib)) / coeffs
    assert _bits(ub) == _bits(expected)
    assert _bits(ub) != _bits(by_reduceat)
    assert assert_same_detection(model)[0] == "ok"
