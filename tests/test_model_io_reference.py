"""The array-pass MPS reader and writers against the line-at-a-time
reference in `mps_reference`: equal models, byte-identical text, and the
same `MpsError` message and line for malformed input."""
import re

import numpy as np
import pytest

import mps_reference as ref
from cgcuts import model_io
from cgcuts.model_io import (
    TAGS,
    MpsError,
    export_cut_pool,
    parse_mps,
    write_augmented_mps,
    write_mps,
)
from conftest import binaries_of, cut_pool, random_binary_model, signature

BOUND_TAGS = ("LO", "UP", "FX", "FR", "MI", "PL", "BV", "LI", "UI")


def _num(rng) -> str:
    """A coefficient in one of the spellings MPS files use."""
    kind = int(rng.integers(0, 8))
    if kind == 0:
        return "0"
    if kind == 1:
        return f"{rng.integers(1, 40) / 4:g}"  # fractional
    if kind == 2:
        return f"{rng.integers(1, 9)}.{rng.integers(0, 10)}D{rng.integers(-1, 3)}"
    if kind == 3:
        return f"-{rng.integers(1, 9)}d0"
    if kind == 4:
        return f"{rng.uniform(-50, 50)!r}"
    return str(int(rng.integers(-9, 10)))


def random_mps(rng, n_cols: int, n_rows: int) -> str:
    """Seeded MPS text that uses every feature the reader supports: RANGES
    on L/G/E rows, every bound tag, extra free rows, objective-only
    columns, duplicate and zero entries, D exponents, OBJSENSE, integer
    markers, multi-pair lines, comments and blank lines."""
    out = [f"NAME  FUZZ{rng.integers(0, 100)}"]
    sense = int(rng.integers(0, 4))
    if sense == 1:
        out += ["OBJSENSE", "    MAX"]
    elif sense == 2:
        out += ["OBJSENSE MAX"]
    elif sense == 3:
        out += ["OBJSENSE", "    MIN"]
    out.append("ROWS")
    out.append(" N  COST")
    rows, free = [], []
    for i in range(n_rows):
        rows.append(f"R{i}")
        out.append(f" {'LGE'[int(rng.integers(0, 3))]}  R{i}")
        if i < 20 and rng.random() < 0.1:
            free.append(f"F{i}")
            out.append(f" N  F{i}")
    out.append("COLUMNS")
    in_int = False
    for j in range(n_cols):
        if rng.random() < 0.15:
            in_int = not in_int
            kind = "'INTORG'" if in_int else "'INTEND'"
            out.append(f"    M{j}  'MARKER'  {kind}")
        if rng.random() < 0.02:  # comments shaped like data lines
            out.append(["* a comment line", "* COST 1", "*X0  COST  2"][int(rng.integers(0, 3))])
        if rng.random() < 0.02:
            out.append("")
        pairs = []
        if rng.random() < 0.7:
            pairs.append(("COST", _num(rng)))
        if rng.random() > 0.1:  # else: a column only in the objective
            size = min(n_rows, int(rng.integers(1, 4)))
            for r in rng.choice(n_rows, size=size, replace=False):
                pairs.append((rows[r], _num(rng)))
        if free and rng.random() < 0.2:
            pairs.append((free[int(rng.integers(0, len(free)))], _num(rng)))
        if pairs and rng.random() < 0.1:
            pairs.append(pairs[0])  # a duplicate that sums
        if pairs and rng.random() < 0.05:  # sums whose rounding depends on order
            pairs += [(pairs[0][0], f"{rng.uniform(-1, 1)!r}") for _ in range(3)]
        if pairs and rng.random() < 0.05:
            r, v = pairs[-1]
            pairs.append((r, v[1:] if v.startswith("-") else "-" + v))  # sums to 0
        if not pairs:
            pairs.append(("COST", "0"))
        while pairs:
            take = 2 if len(pairs) > 1 and rng.random() < 0.3 else 1
            cells = "  ".join(f"{r}  {v}" for r, v in pairs[:take])
            out.append(f"    X{j}  {cells}")
            pairs = pairs[take:]
    if in_int:
        out.append("    MEND  'MARKER'  'INTEND'")
    out.append("RHS")
    for r in rng.choice(n_rows, size=n_rows // 2, replace=False):
        out.append(f"    RHS  {rows[r]}  {_num(rng)}")
        if rng.random() < 0.02:
            out.append(f"*RHS  {rows[r]}  5")
    out.append(f"    RHS  COST  {_num(rng)}")
    if free:
        out.append(f"    RHS  {free[0]}  1  {rows[0]}  {_num(rng)}")
    if rng.random() < 0.8:
        out.append("RANGES")
        for r in rng.choice(n_rows, size=max(1, n_rows // 4), replace=False):
            out.append(f"    RNG  {rows[r]}  {rng.integers(-6, 7)}")
    out.append("BOUNDS")
    bounded = rng.choice(n_cols, size=n_cols // 2, replace=False)
    for j in bounded:
        tag = BOUND_TAGS[int(rng.integers(0, len(BOUND_TAGS)))]
        if tag in ("FR", "MI", "PL", "BV"):
            out.append(f" {tag} BND  X{j}")
        elif tag in ("LO", "LI"):
            out.append(f" {tag} BND  X{j}  {-int(rng.integers(0, 4))}")
        else:  # UP, UI, FX
            out.append(f" {tag} BND  X{j}  {int(rng.integers(1, 6))}")
        if rng.random() < 0.02:
            out.append(f"*UP BND  X{j}  0")
    # A later line for the same column wins; these keep lb <= ub.
    for j in bounded[: len(bounded) // 3]:
        out.append(f" UP BND  X{j}  7" if rng.random() < 0.5 else f" LO BND  X{j}  -1")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def random_pool(rng, model):
    """(records, binaries): records over the model's binary columns,
    complemented literals included."""
    binaries = binaries_of(model)
    n_b = len(binaries)
    records = []
    for _ in range(int(rng.integers(0, 12)) if n_b else 0):
        size = int(rng.integers(1, min(2 * n_b, 6) + 1))
        nodes = tuple(sorted(int(v) for v in rng.choice(2 * n_b, size, replace=False)))
        records.append((nodes, TAGS[int(rng.integers(0, len(TAGS)))], rng.random() < 0.5))
    return records, binaries


def assert_same_model(new, old):
    assert signature(new) == signature(old)
    assert new.col_names == old.col_names
    assert new.row_names == old.row_names
    assert (new.name, new.obj_name) == (old.name, old.obj_name)


def assert_same_text(model, records, binaries):
    pool = cut_pool(records, binaries)
    assert write_mps(model) == ref.write_mps(model)
    assert write_augmented_mps(model, pool) == ref.write_augmented_mps(model, records, binaries)
    assert export_cut_pool(pool) == ref.export_cut_pool(records, binaries)


@pytest.mark.parametrize("seed", range(60))
def test_fuzzed_text_matches_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    text = random_mps(rng, n_cols=int(rng.integers(1, 40)), n_rows=int(rng.integers(1, 12)))
    expected = ref.parse_mps(text)
    model = parse_mps(text)
    assert_same_model(model, expected)
    assert_same_text(model, *random_pool(rng, model))


def test_fuzzed_text_matches_reference_in_small_slices(monkeypatch):
    # The writers format a few lines at a time, so every section and the
    # integer markers cross slice boundaries; a cut-pool slice holds one
    # line, or the whole lines that fit in 4 pieces.
    monkeypatch.setattr(model_io, "_SLICE_LINES", 3)
    monkeypatch.setattr(model_io, "_SLICE_PIECES", 4)
    for seed in range(40):
        rng = np.random.default_rng(1500 + seed)
        text = random_mps(rng, n_cols=int(rng.integers(1, 40)), n_rows=int(rng.integers(1, 12)))
        model = parse_mps(text)
        assert_same_text(model, *random_pool(rng, model))


@pytest.mark.parametrize("seed", range(2))
def test_fuzzed_text_over_many_chunks(seed):
    """A COLUMNS section longer than one chunk, with lines of every shape."""
    rng = np.random.default_rng(2000 + seed)
    text = random_mps(rng, n_cols=6000, n_rows=900)
    expected = ref.parse_mps(text)
    model = parse_mps(text)
    assert_same_model(model, expected)
    assert_same_text(model, *random_pool(rng, model))


def test_built_models_write_like_reference():
    rng = np.random.default_rng(11)
    for _ in range(30):
        model = random_binary_model(rng)
        assert_same_text(model, *random_pool(rng, model))


def test_later_bound_line_wins():
    """Valued and valueless bound lines of mixed tags, several per column:
    the last line that sets a side wins."""
    n = 300
    out = ["NAME b", "ROWS", " N  obj", " L  c1", "COLUMNS"]
    out += [f"    x{j}  c1  1" for j in range(n)]
    out += ["BOUNDS"]
    for j in range(n):
        out += [f" LO BND  x{j}  -{j % 3}", f" UP BND  x{j}  {j % 4 + 1}"]
        out += [f" FX BND  x{j}  2", f" UI BND  x{j}  9"] if j % 5 == 0 else []
        out += [f" LI BND  x{j}  -7"] if j % 7 == 0 else []
    for j in range(n):
        out += [f" BV BND  x{j}", f" PL BND  x{j}"] if j % 2 else [f" MI BND  x{j}"]
        out += [f" FR BND  x{j}"] if j % 9 == 0 else []
    text = "\n".join(out + ["ENDATA"]) + "\n"
    model = parse_mps(text)
    assert_same_model(model, ref.parse_mps(text))
    assert write_mps(model) == ref.write_mps(model)


BASE = """\
NAME bad
ROWS
 N  obj
 L  c1
 G  c2
COLUMNS
    M1  'MARKER'  'INTORG'
    x1  obj  1  c1  2
    x2  c1  1  c2  1
    M2  'MARKER'  'INTEND'
    y1  c2  3
RHS
    RHS  c1  4  c2  1
RANGES
    RNG  c1  2
BOUNDS
 UP BND  x1  1
 BV BND  x2
 LO BND  y1  -1
ENDATA
"""


def _big(lines_per_section: int = 5000) -> str:
    """A valid model with long COLUMNS and BOUNDS sections; COLUMNS spans
    two chunks."""
    out = ["NAME big", "ROWS", " N  obj", " L  c1", "COLUMNS"]
    out += [f"    x{j}  c1  {j % 7 + 1}" for j in range(lines_per_section)]
    out += ["RHS", "    RHS  c1  10", "BOUNDS"]
    out += [f" BV BND  x{j}" for j in range(lines_per_section // 2)]
    out += [f" UP BND  x{j}  3" for j in range(lines_per_section // 2, lines_per_section)]
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def _edit(text: str, line: int, new: str) -> str:
    lines = text.splitlines()
    lines[line - 1] = new
    return "\n".join(lines) + "\n"


BIG = _big()
BIG_COL = BIG.splitlines().index("    x4500  c1  7") + 1
BIG_BND = BIG.splitlines().index(" UP BND  x2600  3") + 1

MALFORMED = {
    "unknown column in BOUNDS": BASE.replace(" BV BND  x2", " BV BND  zz"),
    "unknown column with a value": BASE.replace(" LO BND  y1  -1", " LO BND  zz  -1"),
    "bad numeric in COLUMNS": BASE.replace("x2  c1  1", "x2  c1  abc"),
    "bad numeric in the second pair": BASE.replace("c2  1\n    M2", "c2  1.2.3\n    M2"),
    "bad Fortran exponent": BASE.replace("x2  c1  1", "x2  c1  1.5Dx"),
    "unknown row in COLUMNS": BASE.replace("y1  c2  3", "y1  c9  3"),
    "unknown row before a bad value": BASE.replace("x2  c1  1  c2  1", "x2  c9  1  c2  abc"),
    "bad value before an unknown row": BASE.replace("x2  c1  1  c2  1", "x2  c1  abc  c9  1"),
    "bad value a line above an unknown row": BASE.replace("x1  obj  1", "x1  obj  zz").replace(
        "x2  c1  1", "x2  c9  1"),
    "unknown row and bad value in one pair": BASE.replace("x2  c1  1", "x2  c9  abc"),
    "RHS unknown row and bad value in one pair": BASE.replace("RHS  c1  4", "RHS  c7  four"),
    "RANGES unknown row and bad value in one pair": BASE.replace("RNG  c1  2", "RNG  c7  two"),
    "marker without INTORG/INTEND": BASE.replace("'INTEND'", "'SOMETHING'"),
    "COLUMNS line with an even token count": BASE.replace("y1  c2  3", "y1  c2  3  c1"),
    "COLUMNS line too short": BASE.replace("y1  c2  3", "y1  c2"),
    "unknown bound type": BASE.replace(" BV BND  x2", " XX BND  x2"),
    "bound without a column": BASE.replace(" BV BND  x2", " BV BND"),
    "bound without a value": BASE.replace(" LO BND  y1  -1", " LO BND  y1"),
    "bad numeric bound": BASE.replace(" LO BND  y1  -1", " LO BND  y1  low"),
    "RHS unknown row": BASE.replace("RHS  c1  4", "RHS  c7  4"),
    "RHS bad numeric": BASE.replace("RHS  c1  4", "RHS  c1  four"),
    "RHS line with an even token count": BASE.replace("    RHS  c1  4  c2  1", "    RHS  c1  4  c2"),
    "RANGES on the objective": BASE.replace("RNG  c1  2", "RNG  obj  2"),
    "RANGES bad numeric": BASE.replace("RNG  c1  2", "RNG  c1  two"),
    "RANGES line too short": BASE.replace("RNG  c1  2", "RNG  c1"),
    "duplicate row": BASE.replace(" G  c2", " G  c1"),
    "duplicate objective name": BASE.replace(" G  c2", " N  obj"),
    "unknown row type": BASE.replace(" G  c2", " Q  c2"),
    "ROWS line too short": BASE.replace(" G  c2", " G"),
    "data line outside any section": "NAME x\n  stray data\n",
    "data line before any header": "  stray\nROWS\n",
    "unsupported section": BASE.replace("RANGES", "SOS"),
    "second OBJSENSE data line": "OBJSENSE\n    MAX\n    MIN\n",
    "OBJSENSE data after inline sense": "OBJSENSE MAX\n    MIN\n",
    "no MPS content": "* only a comment\n\n",
    "duplicate names after RANGES": BASE.replace(" G  c2", " G  c1_RNG").replace(
        "c2", "c1_RNG"),
    "bad numeric deep in COLUMNS": _edit(BIG, BIG_COL, "    x4500  c1  3x"),
    "unknown row deep in COLUMNS": _edit(BIG, BIG_COL, "    x4500  c8  3"),
    "comment then error deep in COLUMNS": _edit(
        _edit(BIG, BIG_COL - 3, "* note"), BIG_COL, "    x4500  c1  --"),
    "unknown column after a BV/UP boundary": _edit(BIG, BIG_BND, " UP BND  q2600  3"),
    "bad bound after a BV/UP boundary": _edit(BIG, BIG_BND, " UP BND  x2600  3..0"),
    "non-finite coefficient": BASE.replace("x2  c1  1", "x2  c1  inf"),
    "NaN coefficient in the second pair": BASE.replace("c2  1\n    M2", "c2  nan\n    M2"),
    "non-finite objective coefficient": BASE.replace("x1  obj  1", "x1  obj  -Infinity"),
    "RHS non-finite": BASE.replace("RHS  c1  4", "RHS  c1  1e999"),
    "RANGES NaN": BASE.replace("RNG  c1  2", "RNG  c1  nan"),
    "NaN bound": BASE.replace(" LO BND  y1  -1", " LO BND  y1  NaN"),
    "crossing bounds": BASE.replace(" LO BND  y1  -1", " LO BND  y1  5\n UP BND  y1  2"),
    "crossing bounds above later bound lines": BASE.replace(" UP BND  x1  1", " UP BND  x1  -1"),
    "crossing bounds of two columns": BASE.replace(" UP BND  x1  1", " UP BND  x1  -1").replace(
        " BV BND  x2", " UP BND  x2  -2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_fails_like_reference(case):
    text = MALFORMED[case]
    with pytest.raises(MpsError) as expected:
        ref.parse_mps(text)
    with pytest.raises(MpsError) as got:
        parse_mps(text)
    assert str(got.value) == str(expected.value)
    assert got.value.line == expected.value.line


def test_malformed_table_reports_the_expected_lines():
    # A few rows checked by hand, so the table does not only compare two
    # implementations with each other.
    def line_of(case):
        with pytest.raises(MpsError) as exc:
            parse_mps(MALFORMED[case])
        return exc.value.line

    assert line_of("unknown column in BOUNDS") == 18
    assert line_of("bad value a line above an unknown row") == 8
    assert line_of("bad numeric deep in COLUMNS") == BIG_COL
    assert line_of("unknown column after a BV/UP boundary") == BIG_BND
    assert line_of("no MPS content") is None
    assert line_of("crossing bounds") == 20
    assert line_of("crossing bounds above later bound lines") == 17


def same_outcome(text):
    """`parse_mps` gives the reference's model, or its message and line."""
    try:
        expected = ref.parse_mps(text)
    except MpsError as exc:
        with pytest.raises(MpsError) as got:
            parse_mps(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        assert_same_model(parse_mps(text), expected)


@pytest.mark.parametrize("chunk", [2, 3, 4, 5])
def test_fuzzed_text_matches_reference_in_small_chunks(monkeypatch, chunk):
    # Every section, the integer markers, comments and repeated bounds
    # cross slice boundaries.
    monkeypatch.setattr(model_io, "_CHUNK", chunk)
    for seed in range(15):
        rng = np.random.default_rng(3000 + 100 * chunk + seed)
        text = random_mps(rng, n_cols=int(rng.integers(1, 40)), n_rows=int(rng.integers(1, 12)))
        assert_same_model(parse_mps(text), ref.parse_mps(text))


@pytest.mark.parametrize("chunk", [2, 5])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_fails_like_reference_in_small_chunks(monkeypatch, case, chunk):
    monkeypatch.setattr(model_io, "_CHUNK", chunk)
    test_malformed_input_fails_like_reference(case)


@pytest.mark.parametrize("chunk", [3, 4096])
def test_column_lines_out_of_order_match_reference(monkeypatch, chunk):
    # A column's lines need not be consecutive: it gets its id at its first.
    monkeypatch.setattr(model_io, "_CHUNK", chunk)
    cols = np.random.default_rng(5).integers(0, 9, size=60)
    text = "\n".join(["NAME mix", "ROWS", " N  obj", " L  c1", " G  c2", "COLUMNS"]
                     + [f"    x{k}  c{1 + k % 2}  {k + 1}" for k in cols] + ["ENDATA", ""])
    assert_same_model(parse_mps(text), ref.parse_mps(text))


#: Every line break of `str.splitlines` and a sample of the whitespace of
#: `str.split`, ASCII and not.
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" ", "\t", "\x1f", "\xa0", "\u1680", "\u2000", "\u200a", "\u202f", "\u205f", "\u3000"]


def respell(text: str, rng) -> str:
    """The text with random line breaks and whitespace, and non-ASCII
    names. Indented lines still start with a space or a tab; headers, blank
    and comment lines may start with other whitespace."""
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    text = re.sub(r"\b([XR])(\d+)", lambda m: "ξŘ"[m.group(1) == "R"] + m.group(2) + "é", text)
    out = []
    for raw in text.splitlines():
        body = raw.lstrip(" ")
        lead = pick([" ", "\t", " \u3000", "\t\x1f"]) if body != raw else pick(["", "", "\xa0", "\u2003 "])
        out.append(lead + re.sub(" +", lambda m: pick(SPACES) + pick(["", " "]), body) + pick(BREAKS))
        if rng.random() < 0.05:
            out.append(pick(["", "\u3000", "\xa0* note", " \x1f"]) + pick(BREAKS))
    return "".join(out)


@pytest.mark.parametrize("chunk", [3, 4096])
def test_respelled_text_matches_reference(monkeypatch, chunk):
    monkeypatch.setattr(model_io, "_CHUNK", chunk)
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        text = respell(random_mps(rng, n_cols=int(rng.integers(1, 30)), n_rows=8), rng)
        assert not text.isascii()
        assert_same_model(parse_mps(text), ref.parse_mps(text))
    for case in sorted(MALFORMED)[:20]:
        same_outcome(respell(MALFORMED[case], np.random.default_rng(len(case))))


def test_every_line_break_and_whitespace_reads_like_reference():
    """Each character that `str.splitlines` breaks at or `str.split` splits
    at, as every line break, as every separator, and leading the lines."""
    odd = [c for c in map(chr, range(0x3001)) if c.isspace() or len(f"a{c}b".splitlines()) > 1]
    assert len(odd) == 29
    for c in odd:
        for text in (BASE.replace("\n", c), BASE.replace("  ", c), BASE.replace("\n ", "\n" + c),
                     BASE.replace("\n", c + "\n"), ("ROWS" + c + " N  obj\n").replace("N", c + "L")):
            same_outcome(text)


#: A model whose COLUMNS, RHS and BOUNDS sections are 14, 12 and 14 lines.
EDGE = "\n".join(
    ["NAME edge", "ROWS", " N  obj"] + [f" L  c{i}" for i in range(12)]
    + ["COLUMNS"] + [f"    x{j}  c{j % 12}  {j + 1}  obj  1" for j in range(14)]
    + ["RHS"] + [f"    RHS  c{i}  {i}" for i in range(12)]
    + ["BOUNDS"] + [f" UP BND  x{j}  {j + 2}" for j in range(14)] + ["ENDATA", ""])

#: Per section: malformed lines for its data line `j`.
EDGE_BAD = {
    "COLUMNS": [lambda j: f"    x{j}  c1  zz  obj  1", lambda j: f"    x{j}  c1  1  c99  1",
                lambda j: f"    x{j}  c1", lambda j: "    M  'MARKER'  'INT'",
                lambda j: f"    x{j}  c1  1  obj  inf"],
    "RHS": [lambda j: "    RHS  c1  1  c2  1..", lambda j: "    RHS  c99  1", lambda j: "    RHS",
            lambda j: "    RHS  c1  nan"],
    "BOUNDS": [lambda j: f" UP BND  x{j}  up", lambda j: f" UP BND  q{j}  1",
               lambda j: f" UQ BND  x{j}  1", lambda j: f" LO BND  x{j}",
               lambda j: f" UP BND  x{j}  nan", lambda j: f" UP BND  x{j}  -3"],
}


def edge_cases():
    """EDGE with malformed lines on the first and last lines of 4-line
    slices, alone and two at a time across a slice boundary."""
    lines = EDGE.splitlines()
    for section, bad in EDGE_BAD.items():
        head = lines.index(section)
        for edits in ([4], [5], [8], [4, 5], [5, 8], [1, 12]):
            for k in range(len(bad)):
                text = lines.copy()
                for e, j in enumerate(edits):
                    text[head + j] = bad[(k + e) % len(bad)](j - 1)
                yield f"{section}-{edits}-{k}", "\n".join(text)


def test_malformed_lines_at_slice_edges_fail_like_reference(monkeypatch):
    monkeypatch.setattr(model_io, "_CHUNK", 4)
    cases = dict(edge_cases())
    assert len(cases) == 6 * (5 + 4 + 6)
    for text in cases.values():
        with pytest.raises(MpsError):
            ref.parse_mps(text)
        same_outcome(text)
