"""MPS parsing, writing and cut-pool serialization."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import mps_reference
from cgcuts.cli import main
from cgcuts.literals import Literal, VarMap
from cgcuts.model_io import (
    MpsError,
    export_cut_pool,
    parse_mps,
    parse_mps_file,
    write_augmented_mps,
    write_mps,
)
from cgcuts.presolve import detect

from conftest import cut_pool, make_model, model_of_rows

PACKING_MPS = """\
NAME tiny
ROWS
 N  obj
 L  c1
COLUMNS
    M1  'MARKER'  'INTORG'
    x1  obj  1  c1  1
    x2  obj  1  c1  1
    M2  'MARKER'  'INTEND'
RHS
    RHS  c1  1
BOUNDS
 UP BND  x1  1
 UP BND  x2  1
ENDATA
"""


def test_parse_smallest_packing_instance():
    model = parse_mps(PACKING_MPS)
    assert model.num_rows == 1
    assert model.num_cols == 2
    assert model.nnz == 2
    assert model.binaries.tolist() == [0, 1]
    assert model.senses == ["L"]
    assert model.rhs[0] == 1.0


def test_parse_sense_passthrough():
    model = parse_mps(PACKING_MPS.replace(" L  c1", " G  c1"))
    assert model.senses == ["G"]
    le = parse_mps(PACKING_MPS)
    assert model.signature()[2][0][1:] == le.signature()[2][0][1:]


THREE_ROW_MPS = """\
NAME hand
ROWS
 N  cost
 L  cap
 G  cover
 E  bal
COLUMNS
    M1  'MARKER'  'INTORG'
    x1  cost  2  cap  3
    x1  cover  1
    M2  'MARKER'  'INTEND'
    x2  cost  -1  cap  1.5  bal  1
    x3  cover  2  bal  -1
    x4  cap  4
RHS
    RHS  cap  10  cover  1
BOUNDS
 UP BND  x1  1
 UP BND  x2  6
 MI BND  x3
 FX BND  x4  2
ENDATA
"""


def test_parse_hand_checked_file():
    # Expected tuple worked out by hand from the file text.
    model = parse_mps(THREE_ROW_MPS)
    assert (model.num_rows, model.num_cols, model.nnz) == (3, 4, 7)
    assert model.col_names == ["x1", "x2", "x3", "x4"]
    assert model.senses == ["L", "G", "E"]
    assert model.rhs.tolist() == [10.0, 1.0, 0.0]
    assert model.obj.tolist() == [2.0, -1.0, 0.0, 0.0]
    assert model.lb.tolist() == [0.0, 0.0, -math.inf, 2.0]
    assert model.ub.tolist() == [1.0, 6.0, math.inf, 2.0]
    assert model.integers.tolist() == [0]
    assert model.binaries.tolist() == [0]
    cols, vals = model.row(0)
    assert cols.tolist() == [0, 1, 3]
    assert vals.tolist() == [3.0, 1.5, 4.0]


def test_parse_bv_bound_marks_binary():
    text = PACKING_MPS.replace(" UP BND  x1  1", " BV BND  x1")
    model = parse_mps(text)
    assert model.binaries.tolist() == [0, 1]


def test_parse_ranges_expand_to_paired_rows():
    text = """\
NAME r
ROWS
 N  obj
 L  c1
COLUMNS
    x1  obj  1  c1  2
RHS
    RHS  c1  8
RANGES
    RNG  c1  3
ENDATA
"""
    model = parse_mps(text)
    assert model.num_rows == 2
    assert model.senses == ["L", "G"]
    assert model.rhs.tolist() == [8.0, 5.0]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MpsError, match="unsupported section"):
        parse_mps("SOS\n s1 x1 1\n")
    with pytest.raises(MpsError, match="duplicate row"):
        parse_mps("ROWS\n L  c1\n L  c1\n")
    with pytest.raises(MpsError, match="line 4"):
        parse_mps("ROWS\n L  c1\nCOLUMNS\n    x1  c1  abc\n")
    with pytest.raises(MpsError, match="unknown row"):
        parse_mps("ROWS\n L  c1\nCOLUMNS\n    x1  nope  1\n")


def test_round_trip_is_a_fixed_point():
    for text in (PACKING_MPS, THREE_ROW_MPS):
        once = parse_mps(text)
        twice = parse_mps(write_mps(once))
        assert twice.signature() == once.signature()
        thrice = parse_mps(write_mps(twice))
        assert thrice.signature() == twice.signature()


def _pool(records, n_cols=3):
    """Pool of (nodes, tag, is a constraint) records over n_cols binaries."""
    return cut_pool(list(records), VarMap(range(n_cols)))


def test_augmented_row_for_plain_clique():
    model = parse_mps(PACKING_MPS)
    pool = _pool([((0, 1), "org_long", True)], n_cols=2)
    out = parse_mps(write_augmented_mps(model, pool))
    assert out.num_rows == 2
    cols, vals = out.row(1)
    assert cols.tolist() == [0, 1]
    assert vals.tolist() == [1.0, 1.0]
    assert out.senses[1] == "L"
    assert out.rhs[1] == 1.0


def test_augmented_row_for_complemented_clique():
    # {x1, not-x2} becomes x1 - x2 <= 0
    model = parse_mps(PACKING_MPS)
    pool = _pool([((0, 3), "org_long", True)], n_cols=2)
    out = parse_mps(write_augmented_mps(model, pool))
    cols, vals = out.row(1)
    assert cols.tolist() == [0, 1]
    assert vals.tolist() == [1.0, -1.0]
    assert out.rhs[1] == 0.0


def test_augmented_with_empty_pool_is_identity():
    model = parse_mps(THREE_ROW_MPS)
    out = parse_mps(write_augmented_mps(model, _pool([], n_cols=4)))
    assert out.signature() == model.signature()


def test_augmented_adds_one_row_per_constraint_clique():
    model = parse_mps(PACKING_MPS)
    records = [
        ((0, 1), "org_long", True),
        ((0, 2), "isp_long", True),
        ((1, 2), "org_other", False),
    ]
    out = parse_mps(write_augmented_mps(model, _pool(records, n_cols=2)))
    assert out.num_rows == model.num_rows + 2


def test_augmented_rejects_non_binary_columns():
    model = parse_mps(THREE_ROW_MPS)  # x2 is continuous
    pool = cut_pool([((0, 1), "org_long", True)], VarMap([0, 1]))
    with pytest.raises(MpsError, match="non-binary"):
        write_augmented_mps(model, pool)


def test_integers_are_one_sorted_array_that_detection_shares():
    model = make_model(4, [{0: 3.0, 1: 2.0, 3: 2.0}], ["L"], [4.0], binary=[0, 1])
    model = dataclasses.replace(model, integers=[3, 1, 3, 0])
    assert model.integers.dtype == np.int64
    assert model.integers.tolist() == [0, 1, 3]
    assert model.binaries.tolist() == [0, 1]
    assert detect(model).model.integers is model.integers


@pytest.mark.parametrize("integers, bad", [({0, 1, -1}, -1), ({7}, 7)])
def test_model_rejects_integer_ids_outside_its_columns(integers, bad):
    # Column -1 would read as the last column, and 7 fail in strengthening.
    with pytest.raises(ValueError, match=f"integer column {bad} out of range"):
        make_model(3, [{0: 1.0, 1: 1.0}], ["L"], [1.0], integers=integers,
                   ub=[1.0, 1.0, 1.0])


def test_varmap_is_a_view_over_the_sorted_columns():
    for cols in ([2, 5, 9], np.array([2, 5, 9])):
        varmap = VarMap(cols)
        assert varmap.cols.dtype == np.int64 and varmap.cols.tolist() == [2, 5, 9]
        assert len(varmap) == varmap.n_b == 3
        assert [varmap.node(Literal(j)) for j in (2, 5, 9)] == [0, 1, 2]
        assert varmap.node(Literal(9, True)) == 5
        assert varmap.literal(4) == Literal(5, True) and varmap.literal(0) == Literal(2)
        assert [varmap.signed_index(v) for v in range(6)] == [3, 6, 10, -3, -6, -10]
    for missing in (0, 3, 10):
        with pytest.raises(ValueError, match="not in the variable map"):
            varmap.node(Literal(missing))
    with pytest.raises(ValueError, match="out of range"):
        varmap.literal(6)


@pytest.mark.parametrize("cols", [[0, 1, 1], [0, 2, 1]])
def test_varmap_rejects_duplicate_or_unsorted_columns(cols):
    with pytest.raises(ValueError, match="ascending and distinct"):
        VarMap(cols)


def test_export_line_format():
    pool = _pool([((0, 5), "org_other", False)])
    assert export_cut_pool(pool) == "org_other 1 -3\n"


def test_export_rejects_nodes_outside_the_varmap():
    pool = cut_pool([((0, 4), "org_other", False)], VarMap([0, 1]))
    with pytest.raises(ValueError, match="out of range"):
        export_cut_pool(pool)


def test_export_orders_by_tag_then_literals():
    records = [
        ((0, 1), "other_long", False),
        ((0, 1), "osp_other", False),
        ((0, 2), "osp_other", False),
    ]
    out = export_cut_pool(_pool(records))
    assert out.splitlines() == [
        "osp_other 1 2",
        "osp_other 1 3",
        "other_long 1 2",
    ]


def test_export_skips_constraints_and_is_deterministic():
    records = [
        ((1, 2), "org_long", True),
        ((0, 2), "org_other", False),
    ]
    a = export_cut_pool(_pool(records))
    b = export_cut_pool(_pool(reversed(records)))
    assert a == b == "org_other 1 3\n"


def test_objsense_max_round_trips():
    text = PACKING_MPS.replace("NAME tiny", "NAME tiny\nOBJSENSE\n    MAX")
    model = parse_mps(text)
    assert not model.minimize
    assert parse_mps(write_mps(model)).signature() == model.signature()


def test_fuzzed_models_round_trip(rng_seed=7, trials=40):
    from conftest import random_binary_model

    rng = np.random.default_rng(rng_seed)
    for _ in range(trials):
        model = random_binary_model(rng)
        again = parse_mps(write_mps(model))
        assert again.signature() == model.signature()


NONFINITE = {
    "COLUMNS": (PACKING_MPS.replace("x2  obj  1  c1  1", "x2  obj  1  c1  nan"), 8, "'nan'"),
    "RHS": (PACKING_MPS.replace("RHS  c1  1", "RHS  c1  inf"), 11, "'inf'"),
    "RANGES": (PACKING_MPS.replace("BOUNDS", "RANGES\n    RNG  c1  1e400\nBOUNDS"), 13,
               "'1e400'"),
}


@pytest.mark.parametrize("section", sorted(NONFINITE))
def test_non_finite_values_are_rejected(section):
    text, line, token = NONFINITE[section]
    with pytest.raises(MpsError, match=f"non-finite value {token}") as exc:
        parse_mps(text)
    assert exc.value.line == line


def test_nan_bound_is_rejected_and_infinite_bounds_are_kept():
    with pytest.raises(MpsError, match="NaN bound 'NaN'") as exc:
        parse_mps(PACKING_MPS.replace(" UP BND  x2  1", " UP BND  x2  NaN"))
    assert exc.value.line == 14
    model = parse_mps(PACKING_MPS.replace(" UP BND  x1  1", " LO BND  x1  -inf")
                      .replace(" UP BND  x2  1", " UP BND  x2  1e400"))
    assert model.lb.tolist() == [-math.inf, 0.0]
    assert model.ub.tolist() == [math.inf, math.inf]


#: x1 fixed at +inf by one LO line, x2 at -inf by MI then UP.
INF_FIXED_MPS = PACKING_MPS.replace(
    " UP BND  x1  1\n UP BND  x2  1\n",
    " LO BND  x1  1e400\n MI BND  x2\n UP BND  x2  -1e400\n",
)


def test_columns_fixed_at_infinity_round_trip():
    model = parse_mps(INF_FIXED_MPS)
    assert model.lb.tolist() == model.ub.tolist() == [math.inf, -math.inf]
    text = write_mps(model)
    assert " FX BND  x1  inf\n FX BND  x2  -inf\n" in text
    assert parse_mps(text).signature() == model.signature()
    assert mps_reference.write_mps(model) == text


def test_presolve_of_columns_fixed_at_infinity_exits_0(tmp_path):
    src = tmp_path / "inf.mps"
    src.write_text(INF_FIXED_MPS)
    assert main(["presolve", str(src), "--out-model", str(tmp_path / "a.mps"),
                 "--out-cuts", str(tmp_path / "a.cuts")]) == 0
    assert "FX BND  x1  inf" in (tmp_path / "a.mps").read_text()


def test_crossing_bounds_name_the_last_bound_line():
    # LO 5 then UP 3 on x1: the error names x1 and the UP line, 14.
    text = PACKING_MPS.replace(" UP BND  x1  1\n", " LO BND  x1  5\n UP BND  x1  3\n")
    with pytest.raises(MpsError) as exc:
        parse_mps(text)
    assert str(exc.value) == "line 14: column x1 has lb > ub"
    assert exc.value.line == 14
    # An UP line below the default lower bound crosses too.
    with pytest.raises(MpsError, match="column x2 has lb > ub") as exc:
        parse_mps(PACKING_MPS.replace(" UP BND  x2  1", " UP BND  x2  -1"))
    assert exc.value.line == 14


def test_unbounded_integer_column_is_a_general_integer():
    # An INTORG column without bounds reads as lb = 0, ub = inf: integer,
    # but not binary.
    model = parse_mps(PACKING_MPS.replace(" UP BND  x2  1\n", ""))
    assert model.integers.tolist() == [0, 1]
    assert (model.lb[1], model.ub[1]) == (0.0, math.inf)
    assert model.binaries.tolist() == [0]


def _wide_model(n: int, m: int, per_row: int, seed: int):
    """A MIP of n columns (binary, general integer and continuous, in runs)
    and m rows of `per_row` nonzeros, with a pool of clique rows over its
    binaries."""
    rng = np.random.default_rng(seed)
    kind = np.repeat(rng.integers(0, 3, size=n // 50 + 1), 50)[:n]
    cols = np.sort(rng.integers(0, n, size=(m, per_row)), axis=1)
    cols = [np.unique(c) for c in cols]
    model = model_of_rows(
        [(c, rng.integers(-9, 10, size=len(c)) / 4 + 0.125) for c in cols],
        col_names=[f"x{j}" for j in range(n)],
        row_names=[f"r{i}" for i in range(m)],
        senses=["L", "G", "E"] * (m // 3) + ["L"] * (m % 3),
        rhs=rng.integers(-5, 20, size=m).astype(float),
        obj=rng.integers(0, 3, size=n).astype(float),
        lb=np.where(kind == 2, -1.0, 0.0),
        ub=np.choose(kind, [1.0, 20.0, 50.5]),
        integers={int(j) for j in np.flatnonzero(kind < 2)},
    )
    varmap = VarMap(model.binaries)
    records = [
        (tuple(sorted(int(v) for v in rng.choice(2 * varmap.n_b, 6, replace=False))),
         "org_other", True)
        for _ in range(m // 4)
    ]
    return model, cut_pool(records, varmap)


def test_augmented_model_is_written_in_memory_proportional_to_its_text():
    # Formatting every line before joining them held all line strings and
    # per-entry Python integers at once: 8.9 times the text's length here.
    model, pool = _wide_model(20_000, 4_000, 12, 5)
    tracemalloc.start()
    try:
        text = write_augmented_mps(model, pool)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 2**20
    assert peak < 6 * len(text), peak / len(text)


def test_model_is_parsed_in_memory_proportional_to_its_text():
    # Splitting the whole text into lines held one str per line: 7.3 times
    # the text's length here. Slices of lines hold 5.7.
    model, _ = _wide_model(20_000, 4_000, 12, 5)
    text = write_mps(model)
    tracemalloc.start()
    try:
        parsed = parse_mps(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed.signature() == model.signature()
    assert len(text) > 2**20
    assert peak < 6.5 * len(text), peak / len(text)


def test_parse_mps_file_reads_utf8_with_text_mode_newlines(tmp_path):
    text = PACKING_MPS.replace("x1", "\u03be1")
    src = tmp_path / "crlf.mps"
    src.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert parse_mps_file(src).col_names == ["\u03be1", "x2"]


def test_parse_mps_file_rejects_unreadable_input_with_its_path(tmp_path):
    missing = tmp_path / "missing.mps"
    bad = tmp_path / "bad.mps"
    # The bad byte comes after more text than one read buffer holds.
    bad.write_bytes(("* note\r\n" * 2000 + PACKING_MPS.replace("x2  obj", "x\xff2  obj", 1))
                    .encode("latin-1"))
    expected = {
        missing: (None, "cannot read the file: No such file or directory"),
        tmp_path: (None, "cannot read the file: Is a directory"),
        bad: (2008, "line 2008: byte 0xff is not UTF-8"),
    }
    for path, (line, message) in expected.items():
        with pytest.raises(MpsError) as exc:
            parse_mps_file(path)
        assert (exc.value.path, exc.value.line, str(exc.value)) == (path, line, message)
