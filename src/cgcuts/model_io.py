"""MPS model input/output and cut-pool serialization.

Free- and fixed-format MPS files are accepted; RANGES rows are expanded
into paired <= / >= rows at parse time. Coefficients are 64-bit floats and
model equality is exact bit equality on the parsed tuple (no tolerance at
the I/O layer).
"""
from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .literals import VarMap

SENSE_LE = "L"
SENSE_GE = "G"
SENSE_EQ = "E"

#: Origin tags in their canonical (export) order.
TAGS = (
    "osp_long",
    "osp_other",
    "isp_long",
    "isp_other",
    "org_long",
    "org_other",
    "other_long",
    "other_other",
)

DISP_CONSTRAINT = "model_constraint"
DISP_USER_CUT = "user_cut"

_INF = math.inf


class MpsError(ValueError):
    """Raised on malformed MPS input or an unwritable model/pool.

    `path` is the input file of an error raised by `parse_mps_file`, and
    None for the errors of `parse_mps` and of the writers.
    """

    path = None

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class MipModel:
    """Sparse-row MIP: min c'x s.t. Ax {<=,>=,=} b, l <= x <= u, x_I integer."""

    col_names: list[str]
    row_names: list[str]
    rows: list[tuple[np.ndarray, np.ndarray]]  # (col indices, nonzero coeffs)
    senses: list[str]  # SENSE_LE / SENSE_GE / SENSE_EQ per row
    rhs: np.ndarray
    obj: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integers: set[int]
    name: str = "MODEL"
    obj_name: str = "OBJ"
    minimize: bool = True

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.col_names)

    @property
    def nnz(self) -> int:
        return sum(len(cols) for cols, _ in self.rows)

    @property
    def binaries(self) -> set[int]:
        """Columns j with j integer, l_j = 0 and u_j = 1."""
        return {j for j in self.integers if self.lb[j] == 0.0 and self.ub[j] == 1.0}

    def copy(self) -> "MipModel":
        return MipModel(
            col_names=list(self.col_names),
            row_names=list(self.row_names),
            rows=[(c.copy(), v.copy()) for c, v in self.rows],
            senses=list(self.senses),
            rhs=self.rhs.copy(),
            obj=self.obj.copy(),
            lb=self.lb.copy(),
            ub=self.ub.copy(),
            integers=set(self.integers),
            name=self.name,
            obj_name=self.obj_name,
            minimize=self.minimize,
        )

    def signature(self):
        """Name-independent numeric tuple; equal signatures = equal models."""
        row_sig = tuple(
            (self.senses[i], float(self.rhs[i]))
            + tuple(sorted(zip(map(int, c), map(float, v))))
            for i, (c, v) in enumerate(self.rows)
        )
        return (
            self.num_rows,
            self.num_cols,
            row_sig,
            tuple(map(float, self.obj)),
            tuple(map(float, self.lb)),
            tuple(map(float, self.ub)),
            frozenset(self.integers),
            self.minimize,
        )

    def validate(self) -> None:
        if np.any(self.lb > self.ub):
            bad = int(np.argmax(self.lb > self.ub))
            raise ValueError(f"column {self.col_names[bad]} has lb > ub")


@dataclass(frozen=True, order=True)
class CutRecord:
    """One clique of the pool: sorted graph nodes, origin tag, disposition."""

    nodes: tuple[int, ...]
    tag: str
    disposition: str


@dataclass
class CutPool:
    records: list[CutRecord]
    varmap: VarMap

    def by_disposition(self, disposition: str) -> list[CutRecord]:
        return [r for r in self.records if r.disposition == disposition]


# ---------------------------------------------------------------------------
# Parsing


_KNOWN_SECTIONS = {
    "NAME",
    "OBJSENSE",
    "ROWS",
    "COLUMNS",
    "RHS",
    "RANGES",
    "BOUNDS",
    "ENDATA",
}

#: Row ids of the objective and of further free (N) rows; constraint rows
#: are numbered 0, 1, ... in ROWS order.
_OBJ = -1
_FREE = -2

#: Lines per chunk of COLUMNS.
_CHUNK = 4096

#: Bound tag -> (lower, upper, integer): the bound each side gets (None:
#: unchanged, _VAL: the line's value) and whether the column turns integer.
_VAL = "value"
_BOUND_SET = {
    "LO": (_VAL, None, False),
    "UP": (None, _VAL, False),
    "FX": (_VAL, _VAL, False),
    "FR": (-_INF, _INF, False),
    "MI": (-_INF, None, False),
    "PL": (None, _INF, False),
    "BV": (0.0, 1.0, True),
    "LI": (_VAL, None, True),
    "UI": (None, _VAL, True),
}


def _number(tok: str, ln: int) -> float:
    try:
        return float(tok.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise MpsError(f"bad numeric field {tok!r}", ln) from None


def _finite(tok: str, ln: int) -> float:
    val = _number(tok, ln)
    if not math.isfinite(val):
        raise MpsError(f"non-finite value {tok!r}", ln)
    return val


def _values(toks: list[str], lns: list[int]) -> np.ndarray:
    """Finite float64 values of the tokens, as `_finite` reads them; raises
    at the first bad one, with its line from `lns`."""
    try:
        vals = np.array(toks, dtype=np.float64)
    except ValueError:
        # A Fortran exponent (1.5D3) is the only spelling that float()
        # rejects and `_number` accepts.
        fixed = [
            t.replace("D", "E").replace("d", "e") if "D" in t or "d" in t else t
            for t in toks
        ]
        try:
            vals = np.array(fixed, dtype=np.float64)
        except ValueError:
            vals = None
    if vals is None or not np.isfinite(vals).all():
        for tok, ln in zip(toks, lns):
            _finite(tok, ln)
    return vals


def _content(lines: list[str], lo: int, hi: int):
    """(line number, tokens) of the data lines among lines[lo:hi], leaving
    out blank and comment lines."""
    for ln, raw in enumerate(lines[lo:hi], lo + 1):
        tokens = raw.split()
        if tokens and tokens[0][0] != "*":
            yield ln, tokens


class _Reader:
    """The state of one parse, filled section by section in file order."""

    def __init__(self):
        self.name = "MODEL"
        self.minimize = True
        self.obj_name = None
        self.row_order: list[str] = []
        self.row_sense: list[str] = []
        self.row_id: dict[str, int] = {}  # name -> row id, _OBJ or _FREE
        self.col_order: list[str] = []
        self.col_idx: dict[str, int] = {}
        self.integers: set[int] = set()
        # Keyed by row id; an objective constant lands on _OBJ, never read.
        self.rhs_val: dict[int, float] = {}
        self.range_val: dict[int, float] = {}
        self.lb: dict[int, float] = {}
        self.ub: dict[int, float] = {}
        self.bound_spans: list[tuple[int, int]] = []  # BOUNDS line ranges
        # COLUMNS entries in file order: column, row id and value.
        self.ent_cols = array("q")
        self.ent_rows = array("q")
        self.ent_vals: list[np.ndarray] = []

    def rows(self, lines, lo, hi):
        row_id = self.row_id
        for ln, tokens in _content(lines, lo, hi):
            if len(tokens) < 2:
                raise MpsError("ROWS line needs a type and a name", ln)
            rtype, rname = tokens[0].upper(), tokens[1]
            if rname in row_id:
                raise MpsError(f"duplicate row name {rname!r}", ln)
            if rtype == "N":
                if self.obj_name is None:
                    self.obj_name = rname
                    row_id[rname] = _OBJ
                else:
                    row_id[rname] = _FREE  # extra free rows: coefficients skipped
            elif rtype in ("L", "G", "E"):
                row_id[rname] = len(self.row_order)
                self.row_order.append(rname)
                self.row_sense.append(rtype)
            else:
                raise MpsError(f"unknown row type {rtype!r}", ln)

    def columns(self, lines, lo, hi):
        """Read COLUMNS `_CHUNK` lines at a time, so the tokens of the whole
        section are never held at once; each chunk's values become float64
        in one call. A bad line raises only after the values of the chunk's
        earlier lines are checked, so the first bad line is the one named."""
        col_idx, col_order, row_id = self.col_idx, self.col_order, self.row_id
        integer = False
        for start in range(lo, hi, _CHUNK):
            cols: list[int] = []
            rids: list[int] = []
            toks: list[str] = []
            lns: list[int] = []

            def fail(msg: str, ln: int):
                _values(toks, lns)
                raise MpsError(msg, ln)

            for ln, tokens in _content(lines, start, min(start + _CHUNK, hi)):
                if "'MARKER'" in tokens:
                    if "'INTORG'" in tokens:
                        integer = True
                    elif "'INTEND'" in tokens:
                        integer = False
                    else:
                        fail("MARKER line without INTORG/INTEND", ln)
                    continue
                n = len(tokens)
                if n < 3 or n % 2 == 0:
                    fail("COLUMNS line needs col followed by row/value pairs", ln)
                cname = tokens[0]
                j = col_idx.get(cname)
                if j is None:
                    j = col_idx[cname] = len(col_order)
                    col_order.append(cname)
                if integer:
                    self.integers.add(j)
                for p in range(1, n, 2):
                    r = row_id.get(tokens[p])
                    toks.append(tokens[p + 1])
                    lns.append(ln)
                    if r is None:
                        fail(f"unknown row {tokens[p]!r}", ln)
                    cols.append(j)
                    rids.append(r)
            self.ent_vals.append(_values(toks, lns))
            self.ent_cols += array("q", cols)
            self.ent_rows += array("q", rids)

    def rhs(self, lines, lo, hi):
        for ln, tokens in _content(lines, lo, hi):
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MpsError("RHS line needs set name and row/value pairs", ln)
            for rname, vtok in zip(tokens[1::2], tokens[2::2]):
                val = _finite(vtok, ln)
                r = self.row_id.get(rname)
                if r is None:
                    raise MpsError(f"unknown row {rname!r}", ln)
                self.rhs_val[r] = val

    def ranges(self, lines, lo, hi):
        for ln, tokens in _content(lines, lo, hi):
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MpsError("RANGES line needs set name and row/value pairs", ln)
            for rname, vtok in zip(tokens[1::2], tokens[2::2]):
                r = self.row_id.get(rname, _FREE)
                if r < 0:
                    raise MpsError(f"unknown row {rname!r}", ln)
                self.range_val[r] = _finite(vtok, ln)

    def bounds(self, lines, lo, hi):
        for ln, tokens in _content(lines, lo, hi):
            tag = tokens[0].upper()
            if tag not in _BOUND_SET:
                raise MpsError(f"unknown bound type {tag!r}", ln)
            lower, upper, integer = _BOUND_SET[tag]
            valued = _VAL in (lower, upper)
            if not valued and len(tokens) < 3:
                raise MpsError("bound line needs a column name", ln)
            if valued and len(tokens) < 4:
                raise MpsError("bound line needs a column name and a value", ln)
            j = self.col_idx.get(tokens[2])
            if j is None:
                raise MpsError(f"unknown column {tokens[2]!r}", ln)
            if valued:
                val = _number(tokens[3], ln)
                if math.isnan(val):
                    raise MpsError(f"NaN bound {tokens[3]!r}", ln)
            if lower is not None:
                self.lb[j] = val if lower is _VAL else lower
            if upper is not None:
                self.ub[j] = val if upper is _VAL else upper
            if integer:
                self.integers.add(j)
        self.bound_spans.append((lo, hi))

    # Assembly --------------------------------------------------------------

    def sparse_rows(self, n: int):
        """(objective, per-row (cols, vals)): duplicate (col, row) entries
        summed in file order, explicit zeros dropped, each row sorted by
        column."""
        m = len(self.row_order)
        rid = np.array(self.ent_rows, dtype=np.int64)
        keep = rid != _FREE
        vals = np.concatenate([np.empty(0)] + self.ent_vals)[keep]
        # One key per (col, row), the objective first within a column.
        key = np.array(self.ent_cols, dtype=np.int64)[keep] * (m + 1) + (rid[keep] + 1)
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        sums = vals[first] + 0.0  # as 0.0 + v: -0.0 becomes 0.0
        sizes = np.diff(first, append=len(key))
        for g in np.flatnonzero(sizes > 1).tolist():
            total = 0.0
            for v in vals[first[g]:first[g] + sizes[g]].tolist():
                total += v
            sums[g] = total
        col, row = np.divmod(key[first], m + 1)
        row -= 1
        obj = np.zeros(n)
        is_obj = row == _OBJ
        obj[col[is_obj]] = sums[is_obj]
        nz = (row >= 0) & (sums != 0.0)
        col, row, sums = col[nz], row[nz], sums[nz]
        order = np.lexsort((col, row))
        col, sums = col[order], sums[order]
        ptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=m))]).tolist()
        return obj, [(col[a:b], sums[a:b]) for a, b in zip(ptr[:-1], ptr[1:])]


def parse_mps(text: str) -> MipModel:
    """Parse an MPS character stream into a MipModel.

    Section headers start in the first column and data lines are indented;
    the sections are read in file order. COLUMNS is read `_CHUNK` lines
    at a time, each chunk's values converted in one call. Repeated
    (col, row) entries are summed in file order and zero sums dropped; the
    rows come from one sort of all entries.

    Bounds default to [0, inf), also for an integer column (INTORG marker):
    without bounds it reads as lb = 0, ub = inf, a general integer and not
    a binary. Coefficients, right-hand sides and ranges must be finite and
    bounds must not be NaN; infinite bounds are allowed. A column whose
    bounds cross is rejected at its last BOUNDS line.
    """
    rd = _Reader()
    lines = text.splitlines()
    # Headers: not indented, not blank and not a comment.
    heads = [
        i
        for i, raw in enumerate(lines)
        if raw[:1] not in " \t" and raw.lstrip()[:1] not in "*"
    ]
    section = None
    saw_endata = False
    for h, lo in enumerate([-1] + heads):
        hi = heads[h] if h < len(heads) else len(lines)
        pending_objsense = False
        if lo >= 0:
            tokens = lines[lo].split()
            head = tokens[0].upper()
            if head not in _KNOWN_SECTIONS:
                raise MpsError(f"unsupported section {head!r}", lo + 1)
            if head == "ENDATA":
                saw_endata = True
                break
            if head == "NAME":
                if len(tokens) > 1:
                    rd.name = tokens[1]
                section = None
            else:
                section = head
            if section == "OBJSENSE":
                if len(tokens) > 1:
                    rd.minimize = tokens[1].upper().startswith("MIN")
                else:
                    pending_objsense = True
        if section in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
            getattr(rd, section.lower())(lines, lo + 1, hi)
            continue
        for ln, tokens in _content(lines, lo + 1, hi):
            if section is None:
                raise MpsError("data line outside any section", ln)
            if not pending_objsense:
                raise MpsError(f"unsupported section {section!r}", ln)
            rd.minimize = tokens[0].upper().startswith("MIN")
            pending_objsense = False

    if not saw_endata and section is None and not rd.row_order and not rd.col_order:
        raise MpsError("no MPS content found")

    n = len(rd.col_order)
    lbs = np.zeros(n)
    ubs = np.full(n, _INF)
    lbs[list(rd.lb)] = list(rd.lb.values())
    ubs[list(rd.ub)] = list(rd.ub.values())
    crossed = np.flatnonzero(lbs > ubs)
    if len(crossed):
        name = rd.col_order[int(crossed[0])]
        line = max(ln for lo, hi in rd.bound_spans
                   for ln, tokens in _content(lines, lo, hi) if tokens[2] == name)
        raise MpsError(f"column {name} has lb > ub", line)

    del lines  # the text's lines are not needed while the rows are built
    obj, base_rows = rd.sparse_rows(n)

    # Rows in ROWS order; a RANGES entry adds a paired row.
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    senses: list[str] = []
    rhs: list[float] = []
    names: list[str] = []

    def add_row(rname, sense, row, b):
        names.append(rname)
        senses.append(sense)
        rows.append(row)
        rhs.append(b)

    for i, rname in enumerate(rd.row_order):
        sense, row = rd.row_sense[i], base_rows[i]
        b = rd.rhs_val.get(i, 0.0)
        r = rd.range_val.get(i)
        if r is None:
            add_row(rname, sense, row, b)
            continue
        twin = (row[0].copy(), row[1].copy())
        if sense == SENSE_LE:
            add_row(rname, sense, row, b)
            add_row(rname + "_RNG", SENSE_GE, twin, b - abs(r))
        elif sense == SENSE_GE:
            add_row(rname, sense, row, b)
            add_row(rname + "_RNG", SENSE_LE, twin, b + abs(r))
        else:  # E: becomes a two-sided range
            lo, hi = (b, b + r) if r >= 0 else (b + r, b)
            add_row(rname, SENSE_LE, row, hi)
            add_row(rname + "_RNG", SENSE_GE, twin, lo)

    if len(set(names)) != len(names):
        raise MpsError("duplicate row names after RANGES expansion")

    model = MipModel(
        col_names=rd.col_order,
        row_names=names,
        rows=rows,
        senses=senses,
        rhs=np.array(rhs, dtype=np.float64),
        obj=obj,
        lb=lbs,
        ub=ubs,
        integers=rd.integers,
        name=rd.name,
        obj_name=rd.obj_name or "OBJ",
        minimize=rd.minimize,
    )
    return model


def parse_mps_file(path) -> MipModel:
    with open(path, "r") as fh:
        text = fh.read()
    try:
        return parse_mps(text)
    except MpsError as exc:
        exc.path = path
        raise


# ---------------------------------------------------------------------------
# Writing


#: Lines formatted per slice of the writer: each slice's line strings are
#: joined and dropped before the next slice is formatted.
_SLICE_LINES = 1 << 13


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _texts(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """`_fmt` of each distinct value, made once, and the index of each
    value's text."""
    uniq, inv = np.unique(values, return_inverse=True)
    return [_fmt(v) for v in uniq.tolist()], inv


def _pick(strings: list[str], idx: np.ndarray):
    """The strings at positions `idx`, lazily."""
    return map(strings.__getitem__, idx.tolist())


def _sliced(count: int, lines) -> list[str]:
    """The lines `lines(lo, hi)` of range(count), made `_SLICE_LINES` at a
    time and joined per slice."""
    return ["\n".join(lines(lo, min(lo + _SLICE_LINES, count)))
            for lo in range(0, count, _SLICE_LINES)]


def _flat(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cols, vals, row index) of every nonzero, in row order."""
    if not rows:
        return np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64)
    cols = np.concatenate([c for c, _ in rows]).astype(np.int64, copy=False)
    vals = np.concatenate([v for _, v in rows]).astype(np.float64, copy=False)
    row_of = np.repeat(np.arange(len(rows)), [len(c) for c, _ in rows])
    return cols, vals, row_of


def _bound_lines(names: list[str], lb: np.ndarray, ub: np.ndarray) -> list[str]:
    """BOUNDS lines of the columns whose bounds are not [0, inf), by column:
    FX, FR, or MI/LO followed by UP; joined per slice."""
    lo = np.asarray(lb, dtype=np.float64)
    hi = np.asarray(ub, dtype=np.float64)
    shown = ~((lo == 0.0) & (hi == _INF))
    fx = shown & (lo == hi)
    fr = shown & ~fx & (lo == -_INF) & (hi == _INF)
    rest = shown & ~fx & ~fr
    kinds = (
        ("FX", fx, lo, 0),
        ("FR", fr, None, 0),
        ("MI", rest & (lo == -_INF), None, 0),
        ("LO", rest & (lo != -_INF) & (lo != 0.0), lo, 0),
        ("UP", rest & (hi != _INF), hi, 1),
    )
    keys, kind, valued = [], [], []
    for t, (_, mask, vals, slot) in enumerate(kinds):
        js = np.flatnonzero(mask)
        keys.append(2 * js + slot)
        kind.append(np.full(len(js), t))
        valued.append(np.full(len(js), vals is not None))
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    col = keys // 2
    kind = np.concatenate(kind)[order]
    valued = np.concatenate(valued)[order]
    # UP lines (slot 1) show the upper bound, FX and LO the lower; a line
    # without a value takes the empty text after the values' texts.
    text, inv = _texts(np.where(keys % 2 == 1, hi[col], lo[col])[valued])
    val = np.full(len(col), len(text))
    val[valued] = inv
    text = [f"  {s}" for s in text] + [""]
    heads = [f" {tag} BND  " for tag, *_ in kinds]
    return _sliced(len(col), lambda a, b: [
        f"{h}{c}{s}"
        for h, c, s in zip(_pick(heads, kind[a:b]), _pick(names, col[a:b]),
                           _pick(text, val[a:b]))
    ])


def _is_int(model: MipModel, cols: np.ndarray) -> np.ndarray:
    """Whether each column is in `model.integers`."""
    ints = np.fromiter(model.integers, np.int64, len(model.integers))
    return np.isin(cols, ints)


def _write(model: MipModel, names, senses, rhs, cols, vals, row_of) -> str:
    """Free-format MPS of `model`'s columns with the given rows, whose
    nonzeros are (cols, vals, row_of) in row order.

    The sections are made from index arrays, `_SLICE_LINES` lines at a
    time, so that beside the text only one slice of line strings is alive.
    """
    n, m = model.num_cols, len(names)
    out = [f"NAME {model.name}"]
    if not model.minimize:
        out.append("OBJSENSE")
        out.append("    MAX")
    out.append("ROWS")
    out.append(f" N  {model.obj_name}")
    out += _sliced(m, lambda a, b: [
        f" {s}  {r}" for s, r in zip(senses[a:b], names[a:b])
    ])

    # Per column: its objective entry (when nonzero or the column has no
    # other), then its row entries in row order. One stable sort by column
    # of [objective entries, row entries] gives that order.
    count = np.bincount(cols, minlength=n)
    obj = np.asarray(model.obj, dtype=np.float64)
    obj_cols = np.flatnonzero((obj != 0.0) | (count == 0))
    count[obj_cols] += 1
    col = np.concatenate([obj_cols, cols])
    order = np.argsort(col, kind="stable")
    col = col[order]
    row = np.concatenate([np.full(len(obj_cols), m), row_of])[order]
    text, val = _texts(np.concatenate([obj[obj_cols], vals])[order])
    del order
    # Marker lines take the entry layout with names of their own: INTORG
    # before each column where integrality switches on, INTEND where it
    # switches off and after the last column when that is integer.
    is_int = _is_int(model, np.arange(n))
    switch = np.flatnonzero(np.diff(is_int, append=False, prepend=False))
    marker = np.arange(len(switch))
    at = np.concatenate([[0], np.cumsum(count)])[switch]
    col = np.insert(col, at, n + marker)
    row = np.insert(row, at, m + 1)
    val = np.insert(val, at, len(text) + marker % 2)
    cn = list(model.col_names) + [f"M{t}" for t in range(1, len(switch) + 1)]
    rn = list(names) + [model.obj_name, "'MARKER'"]
    text += ["'INTORG'", "'INTEND'"]
    out.append("COLUMNS")
    out += _sliced(len(col), lambda a, b: [
        f"    {c}  {r}  {s}"
        for c, r, s in zip(_pick(cn, col[a:b]), _pick(rn, row[a:b]),
                           _pick(text, val[a:b]))
    ])
    del col, row, val

    out.append("RHS")
    rhs = np.asarray(rhs, dtype=np.float64)
    nz = np.flatnonzero(rhs != 0.0)
    text, val = _texts(rhs[nz])
    out += _sliced(len(nz), lambda a, b: [
        f"    RHS  {r}  {s}"
        for r, s in zip(_pick(names, nz[a:b]), _pick(text, val[a:b]))
    ])

    bound_lines = _bound_lines(model.col_names, model.lb, model.ub)
    if bound_lines:
        out.append("BOUNDS")
        out += bound_lines
    out.append("ENDATA")
    out.append("")  # the closing newline, without a copy of the text
    return "\n".join(out)


def write_mps(model: MipModel) -> str:
    """Serialize a model as free-format MPS (round-trips through parse_mps)."""
    return _write(model, model.row_names, model.senses, model.rhs, *_flat(model.rows))


def _ordered(pool: CutPool, disposition: str) -> list[CutRecord]:
    """The pool's records of one disposition, by tag (TAGS order) then nodes."""
    tag_rank = {t: i for i, t in enumerate(TAGS)}
    return sorted(
        pool.by_disposition(disposition),
        key=lambda r: (tag_rank.get(r.tag, len(TAGS)), r.nodes),
    )


def _clique_rows(records: list[CutRecord], varmap: VarMap, model: MipModel):
    """Every clique as the row sum x+ - sum x- <= 1 - q, in one batch:
    (cols, coeffs, clique index) of all nonzeros, each row sorted by
    (col, coeff), and the right-hand sides."""
    lens = [len(r.nodes) for r in records]
    nodes = np.fromiter(
        chain.from_iterable(r.nodes for r in records), np.int64, sum(lens)
    )
    n_b = varmap.n_b
    vcols = np.asarray(varmap.cols, dtype=np.int64)
    binary = _is_int(model, vcols) & ~(model.lb[vcols] < 0.0) & ~(model.ub[vcols] > 1.0)
    comp = nodes >= n_b
    pos = np.where(comp, nodes - n_b, nodes)
    ok = (nodes >= 0) & (nodes < 2 * n_b)
    ok[ok] = binary[pos[ok]]
    if not ok.all():
        lit = varmap.literal(int(nodes[np.argmin(ok)]))  # raises when out of range
        raise MpsError(f"clique references non-binary column {model.col_names[lit.col]!r}")
    cols = vcols[pos]
    vals = np.where(comp, -1.0, 1.0)
    rec = np.repeat(np.arange(len(records)), lens)
    order = np.lexsort((vals, cols, rec))
    rhs = 1.0 - np.bincount(rec, weights=comp, minlength=len(records))
    return cols[order], vals[order], rec[order], rhs


def write_augmented_mps(model: MipModel, pool: CutPool) -> str:
    """Original rows plus one <= row per model_constraint clique, named
    CLQ000001, CLQ000002, ... (prefixed with X while the name is taken)."""
    constraints = _ordered(pool, DISP_CONSTRAINT)
    clq_cols, clq_vals, clq_rec, clq_rhs = _clique_rows(constraints, pool.varmap, model)
    names = list(model.row_names)
    taken = set(names)
    for i in range(1, len(constraints) + 1):
        rname = f"CLQ{i:06d}"
        while rname in taken:
            rname = "X" + rname
        taken.add(rname)
        names.append(rname)
    del taken
    # Rebound one at a time, so that no array is held twice.
    cols, vals, row_of = _flat(model.rows)
    cols = np.concatenate([cols, clq_cols])
    vals = np.concatenate([vals, clq_vals])
    row_of = np.concatenate([row_of, clq_rec + model.num_rows])
    return _write(
        model,
        names,
        list(model.senses) + [SENSE_LE] * len(constraints),
        np.concatenate([model.rhs, clq_rhs]),
        cols,
        vals,
        row_of,
    )


def export_cut_pool(pool: CutPool) -> str:
    """One line per user cut: `<tag> <signed-index>+`, deterministic order."""
    # Each node's signed 1-based column index as text, made once.
    label = functools.cache(lambda node: str(pool.varmap.signed_index(node)))
    lines = [f"{r.tag} {' '.join(map(label, r.nodes))}" for r in _ordered(pool, DISP_USER_CUT)]
    if lines:
        lines.append("")  # the closing newline, without a copy of the text
    return "\n".join(lines)
