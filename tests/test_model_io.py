"""MPS parsing, writing and cut-pool serialization."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import mps_reference
from cgcuts.cli import main
from cgcuts.model_io import (
    MpsError,
    export_cut_pool,
    parse_mps,
    parse_mps_file,
    write_augmented_mps,
    write_mps,
)
from cgcuts.presolve import detect

from conftest import binaries_of, cut_pool, make_model, model_of_rows, row_of, signature

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
    assert binaries_of(model).tolist() == [0, 1]
    assert model.senses.tolist() == ["L"]
    assert model.rhs[0] == 1.0


def test_parse_sense_passthrough():
    model = parse_mps(PACKING_MPS.replace(" L  c1", " G  c1"))
    assert model.senses.tolist() == ["G"]
    le = parse_mps(PACKING_MPS)
    assert signature(model)[2][0][1:] == signature(le)[2][0][1:]


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
    assert model.senses.tolist() == ["L", "G", "E"]
    assert model.rhs.tolist() == [10.0, 1.0, 0.0]
    assert model.obj.tolist() == [2.0, -1.0, 0.0, 0.0]
    assert model.lb.tolist() == [0.0, 0.0, -math.inf, 2.0]
    assert model.ub.tolist() == [1.0, 6.0, math.inf, 2.0]
    assert model.integers.tolist() == [0]
    assert binaries_of(model).tolist() == [0]
    cols, vals = row_of(model, 0)
    assert cols.tolist() == [0, 1, 3]
    assert vals.tolist() == [3.0, 1.5, 4.0]


def test_parse_bv_bound_marks_binary():
    text = PACKING_MPS.replace(" UP BND  x1  1", " BV BND  x1")
    model = parse_mps(text)
    assert binaries_of(model).tolist() == [0, 1]


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
    assert model.senses.tolist() == ["L", "G"]
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
        assert signature(twice) == signature(once)
        thrice = parse_mps(write_mps(twice))
        assert signature(thrice) == signature(twice)


def _pool(records, n_cols=3):
    """Pool of (nodes, tag, is a constraint) records over n_cols binaries."""
    return cut_pool(list(records), range(n_cols))


def test_augmented_row_for_plain_clique():
    model = parse_mps(PACKING_MPS)
    pool = _pool([((0, 1), "org_long", True)], n_cols=2)
    out = parse_mps(write_augmented_mps(model, pool))
    assert out.num_rows == 2
    cols, vals = row_of(out, 1)
    assert cols.tolist() == [0, 1]
    assert vals.tolist() == [1.0, 1.0]
    assert out.senses[1] == "L"
    assert out.rhs[1] == 1.0


def test_augmented_row_for_complemented_clique():
    # {x1, not-x2} becomes x1 - x2 <= 0
    model = parse_mps(PACKING_MPS)
    pool = _pool([((0, 3), "org_long", True)], n_cols=2)
    out = parse_mps(write_augmented_mps(model, pool))
    cols, vals = row_of(out, 1)
    assert cols.tolist() == [0, 1]
    assert vals.tolist() == [1.0, -1.0]
    assert out.rhs[1] == 0.0


def test_augmented_with_empty_pool_is_identity():
    model = parse_mps(THREE_ROW_MPS)
    out = parse_mps(write_augmented_mps(model, _pool([], n_cols=4)))
    assert signature(out) == signature(model)


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
    pool = cut_pool([((0, 1), "org_long", True)], [0, 1])
    with pytest.raises(MpsError, match="non-binary"):
        write_augmented_mps(model, pool)


def test_integers_are_one_sorted_array_that_detection_shares():
    model = make_model(4, [{0: 3.0, 1: 2.0, 3: 2.0}], ["L"], [4.0], binary=[0, 1])
    model = dataclasses.replace(model, integers=[3, 1, 3, 0])
    assert model.integers.dtype == np.int64
    assert model.integers.tolist() == [0, 1, 3]
    assert binaries_of(model).tolist() == [0, 1]
    assert detect(model).model.integers is model.integers


def test_detection_shares_the_rows_when_it_drops_none():
    # Two conflicting knapsacks: strengthening and classification keep both.
    model = make_model(3, [{0: 3.0, 1: 2.0, 2: 2.0}, {0: 1.0, 1: 1.0, 2: 4.0}], ["L", "G"],
                       [4.0, 1.0], binary=[0, 1, 2])
    out = detect(model)
    assert out.model.num_rows == 2 and len(out.s_ck) == 1
    assert out.model.indptr is model.indptr
    assert out.model.cols is model.cols
    assert out.model.vals is model.vals
    # An osp row leaves the model, so its rows are copied.
    dropped = detect(dataclasses.replace(model, vals=np.ones(6), rhs=np.ones(2)))
    assert dropped.model.num_rows == 1 and dropped.model.cols is not model.cols


@pytest.mark.parametrize("sense", ["X", "l", "LE"])
def test_model_rejects_a_sense_other_than_l_g_or_e(sense):
    # "LE" would read as "L" once narrowed to one character.
    with pytest.raises(ValueError, match=f"row 'c2' has sense '{sense}', not L, G or E"):
        make_model(2, [{0: 1.0, 1: 1.0}] * 2, ["L", sense], [1.0, 1.0], binary=[0, 1])


@pytest.mark.parametrize("field, value, want", [
    ("row_names", ["c1"], 2), ("senses", ["L"], 2), ("rhs", [1.0] * 3, 2),
    ("obj", [0.0] * 3, 2), ("lb", [0.0], 2), ("ub", [], 2),
    ("cols", [0, 1, 0], 4), ("vals", [1.0] * 5, 4),
])
def test_model_rejects_a_field_of_the_wrong_length(field, value, want):
    # Two rows over two columns with four nonzeros: a short field would
    # raise an IndexError only once `detect` or a writer reads past its end.
    model = make_model(2, [{0: 1.0, 1: 1.0}] * 2, ["L", "L"], [1.0, 1.0], binary=[0, 1])
    value = value if field in ("row_names", "senses") else np.asarray(value)
    with pytest.raises(ValueError, match=f"^{field} holds {len(value)} entries, not {want}$"):
        dataclasses.replace(model, **{field: value})


@pytest.mark.parametrize("indptr", [[], [1, 2, 4], [0, 3, 2]])
def test_model_rejects_an_indptr_that_is_empty_off_zero_or_decreasing(indptr):
    # An empty indptr raised an IndexError from its last entry, and the
    # others would read rows from the wrong nonzeros.
    model = make_model(2, [{0: 1.0, 1: 1.0}] * 2, ["L", "L"], [1.0, 1.0], binary=[0, 1])
    with pytest.raises(ValueError, match="^indptr must start at 0 and not decrease$"):
        dataclasses.replace(model, indptr=np.asarray(indptr, dtype=np.int64))


def test_model_with_fewer_senses_than_rows_is_rejected_when_built():
    with pytest.raises(ValueError, match="^senses holds 1 entries, not 2$"):
        make_model(2, [{0: 1.0, 1: 1.0}] * 2, ["L"], [1.0, 1.0], binary=[0, 1])


@pytest.mark.parametrize("integers, bad", [({0, 1, -1}, -1), ({7}, 7)])
def test_model_rejects_integer_ids_outside_its_columns(integers, bad):
    # Column -1 would read as the last column, and 7 fail in strengthening.
    with pytest.raises(ValueError, match=f"integer column {bad} out of range"):
        make_model(3, [{0: 1.0, 1: 1.0}], ["L"], [1.0], integers=integers,
                   ub=[1.0, 1.0, 1.0])


def test_writers_map_node_j_to_binary_column_j():
    model = make_model(10, [], [], [], binary=[2, 5, 9])
    records = [((0, 1, 2, 3, 4, 5), "org_other", False), ((1, 3), "org_long", True)]
    pool = cut_pool(records, [2, 5, 9])
    assert export_cut_pool(pool) == "org_other 3 6 10 -3 -6 -10\n"
    out = parse_mps(write_augmented_mps(model, pool))
    cols, vals = row_of(out, 0)
    assert cols.tolist() == [2, 5] and vals.tolist() == [-1.0, 1.0] and out.rhs[0] == 0.0


def test_export_line_format():
    pool = _pool([((0, 5), "org_other", False)])
    assert export_cut_pool(pool) == "org_other 1 -3\n"


@pytest.mark.parametrize("constraint", [True, False], ids=["augmented", "cuts"])
def test_writers_reject_nodes_outside_the_binary_columns(constraint):
    # The pool's binary columns are x1 and x2: nodes 0..3. The augmented
    # writer writes the constraints and export_cut_pool the user cuts.
    model = parse_mps(THREE_ROW_MPS)  # x2 is continuous

    def write(nodes):
        pool = cut_pool([(nodes, "org_other", constraint)], [0, 1])
        return write_augmented_mps(model, pool) if constraint else export_cut_pool(pool)

    for nodes in ((0, 4), (1, 9)):
        with pytest.raises(ValueError, match=r"clique node out of range for n_b=2"):
            write(nodes)
    if constraint:
        with pytest.raises(MpsError, match="clique references non-binary column 'x2'"):
            write((0, 3))
    else:
        assert write((0, 3)) == "org_other 1 -2\n"


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
    assert signature(parse_mps(write_mps(model))) == signature(model)


def test_fuzzed_models_round_trip(rng_seed=7, trials=40):
    from conftest import random_binary_model

    rng = np.random.default_rng(rng_seed)
    for _ in range(trials):
        model = random_binary_model(rng)
        again = parse_mps(write_mps(model))
        assert signature(again) == signature(model)


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
    assert signature(parse_mps(text)) == signature(model)
    assert mps_reference.write_mps(model) == text


def test_presolve_of_columns_fixed_at_infinity_exits_0(tmp_path):
    src = tmp_path / "inf.mps"
    src.write_text(INF_FIXED_MPS)
    assert main(["presolve", str(src), "--out-model", str(tmp_path / "a.mps"),
                 "--out-cuts", str(tmp_path / "a.cuts")]) == 0
    assert "FX BND  x1  inf" in (tmp_path / "a.mps").read_text()


def test_presolve_rejects_a_blank_rhs_set_name(tmp_path, capsys):
    # Fields are read whitespace-separated, not by fixed column: a
    # fixed-format RHS line that leaves its set name blank holds only the
    # row and the value, so it is malformed input at its line, 11.
    src = tmp_path / "blank.mps"
    src.write_text(PACKING_MPS.replace("    RHS  c1  1\n", "        c1  1\n"))
    out = tmp_path / "a.mps"
    assert main(["presolve", str(src), "--out-model", str(out),
                 "--out-cuts", str(tmp_path / "a.cuts")]) == 2
    assert capsys.readouterr().err == (
        f"{src}: line 11: RHS line needs set name and row/value pairs\n")
    assert not out.exists()


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
    assert binaries_of(model).tolist() == [0]


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
    records = [
        (tuple(sorted(int(v) for v in rng.choice(2 * len(binaries_of(model)), 6,
                                                 replace=False))),
         "org_other", True)
        for _ in range(m // 4)
    ]
    return model, cut_pool(records, binaries_of(model))


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
    assert signature(parsed) == signature(model)
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
