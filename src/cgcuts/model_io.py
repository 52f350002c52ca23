"""MPS model input/output and cut-pool serialization.

The reader splits each line into whitespace-separated fields, as free MPS
does, not by fixed columns: names hold no spaces, and every RHS, RANGES
and BOUNDS line names its set. A fixed-format file that meets both reads
the same; one that leaves a set name blank is rejected at that line.
RANGES rows are expanded into paired <= / >= rows at parse time. Coefficients are 64-bit floats and
model equality is exact bit equality on the parsed tuple (no tolerance at
the I/O layer).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from itertools import compress, repeat
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .cliques import CliqueTable

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
    """MIP min c'x s.t. Ax {<=,>=,=} b, l <= x <= u, x_I integer.

    A is held once, in compressed sparse row form: row i has the columns
    `cols[indptr[i]:indptr[i + 1]]` (int64, ascending) with the nonzero
    coefficients `vals` at the same positions (float64). `row(i)` gives
    both as views. `senses` holds each row's sense as one "<U1" array;
    any iterable of senses is normalized to it, and a sense other than
    SENSE_LE, SENSE_GE or SENSE_EQ raises a `ValueError`, as do an
    `indptr` that is empty, does not start at 0 or decreases, and a field
    without one entry per row, column or nonzero. `integers` is I as one
    sorted int64 array of distinct column ids; any iterable of ids is
    normalized to it, one outside [0, num_cols) raises a `ValueError`, and
    an array already in that form is kept, so models that share I share it.
    """

    col_names: list[str]
    row_names: list[str]
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    obj: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integers: np.ndarray
    name: str = "MODEL"
    obj_name: str = "OBJ"
    minimize: bool = True

    def __post_init__(self):
        senses = self.senses
        self.senses = senses = np.asarray(senses if isinstance(senses, np.ndarray)
                                          else list(senses), dtype=str)
        ptr = self.indptr
        if not len(ptr) or ptr[0] != 0 or np.any(ptr[1:] < ptr[:-1]):
            raise ValueError("indptr must start at 0 and not decrease")
        m, n, nnz = self.num_rows, self.num_cols, int(ptr[-1])
        for name, want in zip(("row_names", "senses", "rhs", "obj", "lb", "ub", "cols", "vals"),
                              (m, m, m, n, n, n, nnz, nnz)):
            if len(getattr(self, name)) != want:
                raise ValueError(f"{name} holds {len(getattr(self, name))} entries, not {want}")
        # Checked before narrowing to "<U1", which would read "LE" as "L".
        bad = np.flatnonzero((senses != SENSE_LE) & (senses != SENSE_GE) & (senses != SENSE_EQ))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"row {self.row_names[i]!r} has sense {str(senses[i])!r}, "
                             "not L, G or E")
        self.senses = senses.astype("<U1", copy=False)
        ints = self.integers
        if not isinstance(ints, np.ndarray):
            ints = np.fromiter(ints, np.int64)
        self.integers = ints = ints.astype(np.int64, copy=False)
        if len(ints) and not 0 <= ints.min() <= ints.max() < self.num_cols:
            bad = ints[(ints < 0) | (ints >= self.num_cols)][0]
            raise ValueError(f"integer column {bad} out of range for {self.num_cols} columns")
        if np.any(ints[1:] <= ints[:-1]):  # unsorted or repeated
            self.integers = np.flatnonzero(self.integer_mask())

    def take_rows(self, rows: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> MipModel:
        """This model with only the rows `rows` (ascending and distinct) and
        the bounds `lb`, `ub`. It shares every other array and list; when
        every row is kept, also `indptr`, `cols` and `vals`."""
        indptr, cols, vals = self.indptr, self.cols, self.vals
        if len(rows) < self.num_rows:
            pos = _ranges(indptr[rows], indptr[rows + 1])
            indptr, cols, vals = _indptr(np.diff(indptr)[rows]), cols[pos], vals[pos]
        names = self.row_names
        return replace(self, row_names=[names[i] for i in rows.tolist()], indptr=indptr,
                       cols=cols, vals=vals, senses=self.senses[rows], rhs=self.rhs[rows],
                       lb=lb, ub=ub)

    def integer_mask(self) -> np.ndarray:
        """Per column, whether it is integer."""
        mask = np.zeros(self.num_cols, dtype=bool)
        mask[self.integers] = True
        return mask

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_cols(self) -> int:
        return len(self.col_names)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


def binary_cols(integers: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """The columns of the sorted array `integers` whose bounds `lb`, `ub`
    are [0, 1], ascending."""
    return integers[(lb[integers] == 0.0) & (ub[integers] == 1.0)]


@dataclass
class CutPool:
    """The clique pool, sorted by (tag, members) as `CliqueTable.order`
    sorts it, and per clique whether it is a model constraint (else a user
    cut), over the nodes of `binaries`: detection's sorted int64 array of
    the binary columns (see `DetectionResult`), which the writers read as
    it is."""

    table: CliqueTable
    constraint: np.ndarray
    binaries: np.ndarray


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
#: are numbered 0, 1, ... in ROWS order. No row has the id _UNKNOWN.
_OBJ = -1
_FREE = -2
_UNKNOWN = -3

#: Lines per slice: a section is read this many lines at a time.
_CHUNK = 4096

_ROW_TYPES = {"N": 0, "L": 1, "G": 1, "E": 1}  # 1: a constraint

#: Bound tag -> code; the last three (BV, LI, UI) make a column integer.
#: Per code, the (lower, upper) bound a line sets where _SETS holds, NaN
#: standing for the line's value.
_BOUND_CODE = {t: c for c, t in enumerate(("LO", "UP", "FX", "FR", "MI", "PL", "BV", "LI", "UI"))}
_BOUND = np.array([[math.nan, 0], [0, math.nan], [math.nan, math.nan], [-_INF, _INF],
                   [-_INF, 0], [0, _INF], [0, 1], [math.nan, 0], [0, math.nan]])
_SETS = np.array([[1, 0], [0, 1], [1, 1], [1, 1], [1, 0], [0, 1], [1, 1], [1, 0], [0, 1]], bool)
_VALUED = np.isnan(_BOUND).any(axis=1)

#: The line breaks of `str.splitlines` and the whitespace of `str.split`
#: besides newline, space and tab, which `_plain` rewrites.
_ODD_ASCII = "\r\x0b\x0c\x1c\x1d\x1e\x1f"
_BREAK = "\r\n|[\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]"
_LEADING = r"(?m)^[^\S \t\n][^\S\n]*"
_SPACE = r"[^\S \t\n]"


def _indptr(lens: np.ndarray) -> np.ndarray:
    ptr = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    return ptr


def code_type(bound: int) -> type:
    """`np.int32` when integer codes below `bound` fit in it (bound at most
    2**31 - 1), else `np.int64`."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """`arange(starts[i], stops[i])` for every i, one after the other."""
    lens = stops - starts
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(stops - ends, lens) + np.arange(total)


def stable_order(key: np.ndarray) -> np.ndarray:
    """`np.argsort(key, kind="stable")` of non-negative int keys, as one
    `np.sort` of the distinct keys key * len + position (several times
    faster, as NumPy sorts plain int64 with SIMD)."""
    n = len(key)
    if n and int(key.max()) >= np.iinfo(np.int64).max // n:
        return np.argsort(key, kind="stable")
    return np.sort(key.astype(np.int64) * n + np.arange(n)) % n


def _plain(text: str) -> str:
    """The text with the lines of `str.splitlines` and the tokens of
    `str.split`, but only newline, space and tab as whitespace. A line led
    by other whitespace is not indented, so all its leading whitespace goes."""
    if text.isascii() and not any(map(text.__contains__, _ODD_ASCII)):
        return text
    return re.sub(_SPACE, " ", re.sub(_LEADING, "", re.sub(_BREAK, "\n", text)))


def _floats(toks: np.ndarray, finite: bool = True):
    """(float64 values, error) of an object array of tokens, D exponents
    included. `error` is None, or (index, message) of the first token that
    is no number, or not finite (NaN when not `finite`)."""
    try:
        vals = np.array(toks, dtype=np.float64)
    except ValueError:  # a Fortran exponent (1.5D3), or no number
        vals = []
        for tok in toks.tolist():
            try:
                vals.append(float(tok.replace("D", "E").replace("d", "e")))
            except ValueError:
                break
        vals = np.array(vals)
    odd = np.flatnonzero(~np.isfinite(vals) if finite else np.isnan(vals))
    i = odd[0] if len(odd) else len(vals)
    what = "bad numeric field" if not len(odd) else "non-finite value" if finite else "NaN bound"
    return vals, (i, f"{what} {toks[i]!r}") if i < len(toks) else None


def _raise_first(errors: list) -> None:
    """Raise the first in file order of (line, place in the line, message)."""
    if errors:
        line, _, message = min(errors)
        raise MpsError(message, int(line))


def _runs(names: np.ndarray):
    """(first name, length) of each run of equal names: the names of a
    column, or of a bound tag, come in runs and are looked up once a run."""
    run = np.ones(len(names), bool)
    run[1:] = names[1:] != names[:-1]
    run = np.flatnonzero(run)
    return names[run].tolist(), np.diff(run, append=len(names))


class _Lines:
    """An MPS text as UTF-8 bytes and the offset where each line starts:
    line i is data[starts[i]:starts[i + 1]], and `heads` are the lines not
    indented, not blank and no comment."""

    def __init__(self, text: str):
        self.data = _plain(text).encode()
        self.bytes = np.frombuffer(self.data, np.uint8)
        ends = np.flatnonzero(self.bytes == 10) + 1
        if self.data and not self.data.endswith(b"\n"):
            ends = np.append(ends, len(self.data))
        self.starts = np.concatenate(([0], ends))
        c = self.bytes[self.starts[:-1]]
        self.heads = np.flatnonzero((c != 32) & (c != 9) & (c != 10) & (c != 42)).tolist()

    def slices(self, lo: int, hi: int):
        """Lines lo..hi-1, `_CHUNK` at a time: all tokens as an object array,
        and per content line (not blank, no comment) its number, token count
        and first token's index, found in one pass over the slice's bytes."""
        for a in range(lo, hi, _CHUNK):
            z = min(a + _CHUNK, hi)
            p, q = self.starts[a], self.starts[z]
            b = self.bytes[p:q]
            space = (b == 32) | (b == 9) | (b == 10)
            first = ~space
            first[1:] &= space[:-1]
            n = np.add.reduceat(first.view(np.int8), self.starts[a:z] - p, dtype=np.int32)
            off = np.cumsum(n) - n
            keep = n > 0
            if self.data.find(b"*", p, q) >= 0:  # a comment starts with *
                keep[keep] = b[np.flatnonzero(first)[off[keep]]] != 42
            at = np.flatnonzero(keep)
            toks = self.data[p:q].decode().split()
            yield np.fromiter(toks, object, len(toks)), at + (a + 1), n[at], off[at]

    def having(self, needle: bytes, line: np.ndarray) -> np.ndarray:
        """Which of the lines numbered `line` (ascending) contain `needle`."""
        hits = []
        if len(line):
            at, end = self.starts[line[0] - 1], self.starts[line[-1]]
            while (at := self.data.find(needle, at, end)) >= 0:
                hits.append(at)
                at += 1
        if not hits:
            return np.zeros(len(line), bool)
        return np.isin(line, np.searchsorted(self.starts, hits, "right"))


class _Reader:
    """The state of one parse, filled section by section in file order.

    A section method reads one slice of lines: names become ids in one dict
    lookup per token, values float64 in one call, and each check is a mask
    over the slice's lines or pairs. The first failing check in file order
    raises, and within a line the first in a line-at-a-time reader's order.
    """

    def __init__(self):
        self.name = "MODEL"
        self.minimize = True
        self.obj_name = None
        self.row_order: list[str] = []
        self.row_sense: list[str] = []
        self.row_id: dict[str, int] = {}  # name -> row id, _OBJ or _FREE
        self.col_idx: dict[str, int] = {}  # name -> column id, in id order
        self.integers = [np.empty(0, np.int64)]  # per slice, integer column ids
        self.integer = False  # between INTORG and INTEND markers
        # Keyed by row id; an objective constant lands on _OBJ, never read.
        self.rhs_val: dict[int, float] = {}
        self.range_val: dict[int, float] = {}
        # Per slice: each BOUNDS line's column, tag code, value and line, and
        # each COLUMNS entry's column, row id and value.
        self.bnd = [(np.empty(0, np.int64),) * 2 + (np.empty(0), np.empty(0, np.int64))]
        self.entries = [(np.empty(0, np.int64),) * 2 + (np.empty(0),)]

    def rows(self, tok, line, n, off):
        errors = []
        if (n < 2).any():
            errors.append((line[(n < 2).argmax()], 0, "ROWS line needs a type and a name"))
        line, off = line[n >= 2], off[n >= 2]
        types = list(map(str.upper, tok[off].tolist()))
        names = tok[off + 1].tolist()
        con = np.fromiter(map(_ROW_TYPES.get, types, repeat(-1)), np.int64, len(names))
        if len(set(names)) < len(names) or not self.row_id.keys().isdisjoint(names):
            seen = set(self.row_id)  # find the first name seen before
            i = next(i for i, r in enumerate(names) if r in seen or seen.add(r))
            errors.append((line[i], 1, f"duplicate row name {names[i]!r}"))
        if (con < 0).any():
            errors.append((line[con.argmin()], 2, f"unknown row type {types[con.argmin()]!r}"))
        _raise_first(errors)
        ids = np.where(con == 1, len(self.row_order) + np.cumsum(con) - 1, _FREE)
        if self.obj_name is None and not con.all():
            self.obj_name = names[con.argmin()]
            ids[con.argmin()] = _OBJ
        self.row_id.update(zip(names, ids.tolist()))
        self.row_order += compress(names, con.tolist())
        self.row_sense += compress(types, con.tolist())

    def _pairs(self, tok, line, n, off, message, errors, ranges=False):
        """Read lines that are a name and row/value pairs: (the lines read,
        pairs per line, row id and value per pair). Raises the first in file
        order of `errors`, a line without pairs or with an unpaired token
        (`message`), an unknown row and a bad value; within a pair the value
        is checked first, but in RANGES the row."""
        odd = (n < 3) | (n % 2 == 0)
        if odd.any():
            errors.append((line[odd.argmax()], -1, message))
        good = np.flatnonzero(~odd)
        npair = (n[good] - 1) // 2
        ends = np.cumsum(npair)
        pair = np.arange(npair.sum()) - np.repeat(ends - npair, npair)
        at = np.repeat(off[good] + 1, npair) + 2 * pair
        names = tok[at].tolist()
        rids = np.fromiter(map(self.row_id.get, names, repeat(_UNKNOWN)), np.int64, len(names))
        vals, bad = _floats(tok[at + 1])

        def place(e, row):  # (line, place in the line) of pair e's row or value
            return line[good[np.searchsorted(ends, e, "right")]], 2 * pair[e] + (row != ranges)

        unknown = rids < (0 if ranges else _FREE)
        if unknown.any():
            errors.append((*place(unknown.argmax(), True), f"unknown row {names[unknown.argmax()]!r}"))
        if bad:
            errors.append((*place(bad[0], False), bad[1]))
        _raise_first(errors)
        return good, npair, rids, vals

    def columns(self, tok, line, n, off, marker):
        """A column gets its id at its first line. A line with a 'MARKER'
        token switches integrality on (INTORG) or off (INTEND); `marker`
        tells which lines have 'MARKER' in their text."""
        errors, flips, states = [], [], [self.integer]
        for i in np.flatnonzero(marker).tolist():
            toks = tok[off[i]:off[i] + n[i]].tolist()
            if "'MARKER'" not in toks:
                marker[i] = False
            elif "'INTORG'" in toks or "'INTEND'" in toks:
                self.integer = "'INTORG'" in toks
                flips.append(i)
                states.append(self.integer)
            else:
                errors.append((line[i], -1, "MARKER line without INTORG/INTEND"))
                break
        at = np.flatnonzero(~marker)
        good, npair, rids, vals = self._pairs(
            tok, line[at], n[at], off[at], "COLUMNS line needs col followed by row/value pairs",
            errors)
        at = at[good]
        ids = self._col_ids(tok[off[at]])
        ints = ids[np.array(states)[np.searchsorted(flips, at, "right")]]
        self.integers.append(ints[np.diff(ints, prepend=-1) != 0])
        self.entries.append((np.repeat(ids, npair), rids, vals))

    def _col_ids(self, names: np.ndarray) -> np.ndarray:
        """Each name's column id; a new name gets the next id."""
        first, length = _runs(names)
        number, idx = self.col_idx.setdefault, self.col_idx
        ids = np.fromiter((number(name, len(idx)) for name in first), np.int64, len(first))
        return np.repeat(ids, length)

    def rhs(self, tok, line, n, off, ranges=False):
        section = "RANGES" if ranges else "RHS"
        _, _, rids, vals = self._pairs(
            tok, line, n, off, f"{section} line needs set name and row/value pairs", [], ranges)
        (self.range_val if ranges else self.rhs_val).update(zip(rids.tolist(), vals.tolist()))

    def ranges(self, tok, line, n, off):
        self.rhs(tok, line, n, off, ranges=True)

    def bounds(self, tok, line, n, off):
        """A tag, a set name, a column and, for a tag that takes one, a value,
        checked in that order. A NaN bound is rejected, an infinite kept."""
        first, length = _runs(tok[off])
        code = np.repeat(np.fromiter(map(_BOUND_CODE.get, map(str.upper, first), repeat(-1)),
                                     np.int64, len(first)), length)
        valued = (code >= 0) & _VALUED[code]
        at = np.flatnonzero((code >= 0) & (n >= 3 + valued))
        col = np.full(len(line), -1)
        col[at] = np.fromiter(map(self.col_idx.get, tok[off[at] + 2].tolist(), repeat(-1)),
                              np.int64, len(at))
        at = np.flatnonzero(valued & (col >= 0))
        vals, bad = _floats(tok[off[at] + 3], finite=False)
        errors = [(line[at[bad[0]]], 0, bad[1])] if bad else []
        if (col < 0).any():
            i = (col < 0).argmax()
            if code[i] < 0:
                msg = f"unknown bound type {tok[off[i]].upper()!r}"
            elif n[i] < 3 + valued[i]:
                msg = "bound line needs a column name" + " and a value" * int(valued[i])
            else:
                msg = f"unknown column {tok[off[i] + 2]!r}"
            errors.append((line[i], 0, msg))
        _raise_first(errors)
        val = np.full(len(line), math.nan)
        val[at] = vals
        self.integers.append(col[code >= _BOUND_CODE["BV"]])
        self.bnd.append((col, code, val, line))

    # Assembly --------------------------------------------------------------

    def bound_arrays(self, n: int):
        """(lb, ub): [0, inf), or the bound of the last BOUNDS line that sets
        the side. A column whose bounds cross raises at its last BOUNDS
        line."""
        bounds = np.zeros(n), np.full(n, _INF)
        col, code, val, line = (np.concatenate(a)[::-1] for a in zip(*self.bnd))
        self.bnd = None
        for side, bound in enumerate(bounds):
            sets = _SETS[code, side]
            _, last = np.unique(col[sets], return_index=True)  # first of the reversed
            b = np.where(np.isnan(_BOUND[code, side]), val, _BOUND[code, side])[sets]
            bound[col[sets][last]] = b[last]
        crossed = np.flatnonzero(bounds[0] > bounds[1])
        if len(crossed):
            j = int(crossed[0])
            raise MpsError(f"column {list(self.col_idx)[j]} has lb > ub", int(line[col == j].max()))
        return bounds

    def csr(self, n: int):
        """(objective, indptr, cols, vals) of the rows in ROWS order:
        duplicate (col, row) entries summed in file order, explicit zeros
        dropped, each row sorted by column."""
        m = len(self.row_order)
        col, rid, vals = map(np.concatenate, zip(*self.entries))
        self.entries = None  # so that the entries are held once
        keep = rid != _FREE
        vals = vals[keep]
        # One key per (col, row), the objective first within a column.
        key = col[keep] * (m + 1) + (rid[keep] + 1)
        del col, rid, keep
        order = stable_order(key)
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
        order = stable_order(row)  # the entries are by column
        return obj, _indptr(np.bincount(row, minlength=m)), col[order], sums[order]

    def ranged(self, indptr, cols, vals):
        """The rows with their RANGES twins: a ranged L row gets a G twin
        |r| below, a G row an L twin |r| above, and an E row becomes the L
        row and G twin of [b, b + r] (r >= 0) or [b + r, b]. Returns the
        names, senses, rhs, indptr, cols and vals of all rows, each twin
        right after its row."""
        m = len(self.row_order)
        rhs, rng = np.zeros(m), np.full(m, math.nan)
        for out, given in ((rhs, self.rhs_val), (rng, self.range_val)):
            ids = np.fromiter(given, np.int64, len(given))
            out[ids[ids >= 0]] = np.fromiter(given.values(), float, len(ids))[ids >= 0]
        src = np.repeat(np.arange(m), 1 + ~np.isnan(rng))
        twin = np.diff(src, prepend=-1) == 0
        s, b, r = np.array(self.row_sense, dtype="<U1")[src], rhs[src], rng[src]
        eq, up = (s == SENSE_EQ) & ~np.isnan(r), r >= 0
        rhs = np.where(twin, np.where(eq, np.where(up, b, b + r), np.where(
            s == SENSE_LE, b - abs(r), b + abs(r))), np.where(eq, np.where(up, b + r, b), b))
        sense = np.where(twin, np.where(s == SENSE_GE, SENSE_LE, SENSE_GE), np.where(eq, SENSE_LE, s))
        names = np.array(self.row_order, dtype=object)[src]
        names[twin] = [f"{name}_RNG" for name in names[twin].tolist()]
        if len(src) > m:
            pos = _ranges(indptr[src], indptr[src + 1])
            indptr, cols, vals = _indptr(np.diff(indptr)[src]), cols[pos], vals[pos]
        return names.tolist(), sense, rhs, indptr, cols, vals


def parse_mps(text: str) -> MipModel:
    """Parse an MPS character stream into a MipModel.

    Section headers start in the first column and data lines are indented.
    One pass over the text's bytes finds the lines and headers; the sections
    are read in file order, `_CHUNK` lines at a time (`_Lines`, `_Reader`).
    Beside the text and the model, memory holds the text's bytes, one
    slice's tokens and the entries read so far. The first malformed line in
    file order raises, with a line-at-a-time reader's message and line.
    Repeated (col, row) entries are summed in file order and zero sums
    dropped; the rows come from one sort of all entries.

    Bounds default to [0, inf), also for an integer column (INTORG marker):
    without bounds it reads as lb = 0, ub = inf, a general integer and not
    a binary. The last BOUNDS line that sets a side wins. Coefficients,
    right-hand sides and ranges must be finite and bounds must not be NaN;
    infinite bounds are allowed. A column whose bounds cross is rejected at
    its last BOUNDS line.
    """
    rd = _Reader()
    lines = _Lines(text)
    heads = lines.heads
    section = None
    saw_endata = pending_objsense = False
    for h, lo in enumerate([-1] + heads):
        hi = heads[h] if h < len(heads) else len(lines.starts) - 1
        if lo >= 0:
            tokens = lines.data[lines.starts[lo]:lines.starts[lo + 1]].decode().split()
            head = tokens[0].upper()
            if head not in _KNOWN_SECTIONS:
                raise MpsError(f"unsupported section {head!r}", lo + 1)
            if head == "ENDATA":
                saw_endata = True
                break
            section = None if head == "NAME" else head
            if head == "NAME" and len(tokens) > 1:
                rd.name = tokens[1]
            if head == "OBJSENSE" and len(tokens) > 1:
                rd.minimize = tokens[1].upper().startswith("MIN")
            pending_objsense = head == "OBJSENSE" and len(tokens) == 1
            rd.integer = False
        for tok, line, n, off in lines.slices(lo + 1, hi):
            if section == "COLUMNS":
                rd.columns(tok, line, n, off, lines.having(b"'MARKER'", line))
            elif section in ("ROWS", "RHS", "RANGES", "BOUNDS"):
                getattr(rd, section.lower())(tok, line, n, off)
            else:
                for ln, first in zip(line.tolist(), tok[off].tolist()):
                    if section is None:
                        raise MpsError("data line outside any section", ln)
                    if not pending_objsense:
                        raise MpsError(f"unsupported section {section!r}", ln)
                    rd.minimize = first.upper().startswith("MIN")
                    pending_objsense = False

    if not saw_endata and section is None and not rd.row_order and not rd.col_idx:
        raise MpsError("no MPS content found")

    del lines  # the text's bytes are not needed while the rows are built
    n = len(rd.col_idx)
    lbs, ubs = rd.bound_arrays(n)
    obj, *csr = rd.csr(n)
    names, senses, rhs, indptr, cols, vals = rd.ranged(*csr)
    del csr
    if len(set(names)) != len(names):
        raise MpsError("duplicate row names after RANGES expansion")
    return MipModel(
        col_names=list(rd.col_idx),
        row_names=names,
        indptr=indptr,
        cols=cols,
        vals=vals,
        senses=senses,
        rhs=rhs,
        obj=obj,
        lb=lbs,
        ub=ubs,
        integers=np.concatenate(rd.integers),
        name=rd.name,
        obj_name=rd.obj_name or "OBJ",
        minimize=rd.minimize,
    )


def parse_mps_file(path) -> MipModel:
    """Parse the MPS file at `path`, read as UTF-8 with universal newlines.
    Every error is an `MpsError` with `path` set, also for a file that
    cannot be read (the OS error) or a byte that is not UTF-8 (its line)."""
    try:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise MpsError(f"cannot read the file: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:  # read() decodes the whole file at once
            line = len((exc.object[:exc.start].decode() + ".").splitlines())
            raise MpsError(f"byte {exc.object[exc.start]:#04x} is not UTF-8", line) from None
        return parse_mps(text)
    except MpsError as exc:
        exc.path = path
        raise


# ---------------------------------------------------------------------------
# Writing


#: Pieces formatted per slice of the writers: each slice's pieces are
#: joined and dropped before the next slice is made. A slice holds whole
#: lines, at least one.
_SLICE_PIECES = 1 << 15


def _fmt(v: float) -> str:
    if abs(v) < 1e15 and v == int(v):
        return str(int(v))
    return repr(float(v))


def _texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_fmt` of each distinct value, made once, as an object array, and
    the index of each value's text."""
    uniq, inv = np.unique(values, return_inverse=True)
    return np.array([_fmt(v) for v in uniq.tolist()], dtype=object), inv


def _lines(count: int, *parts) -> list[str]:
    """`count` lines, each its pieces and a newline, joined once per slice
    of `_SLICE_PIECES` pieces. A part is a text shared by every line, or
    (object array of texts, each line's index into it)."""
    width = len(parts) + 1
    rows = max(_SLICE_PIECES // width, 1)
    out = []
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        pieces = np.empty(width * (hi - lo), dtype=object)
        for p, part in enumerate(parts):
            pieces[p::width] = part if isinstance(part, str) else part[0][part[1][lo:hi]]
        pieces[width - 1::width] = "\n"
        out.append("".join(pieces.tolist()))
    return out


def _bound_lines(names: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> list[str]:
    """BOUNDS lines of the columns whose bounds are not [0, inf), by column:
    FX, FR, or MI/LO followed by UP; joined per slice."""
    lo = np.asarray(lb, dtype=np.float64)
    hi = np.asarray(ub, dtype=np.float64)
    shown = ~((lo == 0.0) & (hi == _INF))
    fx = shown & (lo == hi)
    fr = shown & ~fx & (lo == -_INF) & (hi == _INF)
    rest = shown & ~fx & ~fr
    first = np.select([fx, fr, rest & (lo == -_INF), rest & (lo != 0.0)], [0, 1, 2, 3], -1)
    # Line 2j is column j's FX, FR, MI or LO line and 2j + 1 its UP line.
    at = np.flatnonzero(np.stack([first >= 0, rest & (hi != _INF)], axis=1).ravel())
    col, up = at // 2, at % 2 == 1
    kind = np.where(up, 4, first[col])
    # FX and LO show the lower bound, UP the upper; a line without a value
    # takes the empty text after the values' texts.
    valued = (kind == 0) | (kind >= 3)
    text, inv = _texts(np.where(up, hi[col], lo[col])[valued])
    val = np.full(len(col), len(text))
    val[valued] = inv
    text = np.array([f"  {s}" for s in text.tolist()] + [""], dtype=object)
    heads = np.array([f" {t} BND  " for t in ("FX", "FR", "MI", "LO", "UP")], dtype=object)
    return _lines(len(col), (heads, kind), (names, col), (text, val))


def write_mps(model: MipModel) -> str:
    """Serialize a model as free-format MPS (round-trips through parse_mps).

    Each section's lines are pieces picked by index arrays from the texts
    of the names and of the distinct values, `_SLICE_PIECES` pieces at a
    time, so that beside the text only one slice of pieces is alive.
    """
    n, m, names = model.num_cols, model.num_rows, model.row_names
    out = [f"NAME {model.name}\n"]
    if not model.minimize:
        out.append("OBJSENSE\n    MAX\n")
    out.append(f"ROWS\n N  {model.obj_name}\n")
    every = np.arange(m)
    out += _lines(m, " ", (model.senses.astype(object), every), "  ",
                  (np.array(names, dtype=object), every))

    # Per column: its objective entry (when nonzero or the column has no
    # other), then its row entries in row order. One stable sort by column
    # of [objective entries, row entries] gives that order.
    count = np.bincount(model.cols, minlength=n)
    obj = np.asarray(model.obj, dtype=np.float64)
    obj_cols = np.flatnonzero((obj != 0.0) | (count == 0))
    count[obj_cols] += 1
    col = np.concatenate([obj_cols, model.cols])
    order = stable_order(col)
    col = col[order]
    row = np.repeat(np.append(m, every), np.append(len(obj_cols), np.diff(model.indptr)))[order]
    text, val = _texts(np.concatenate([obj[obj_cols], model.vals])[order])
    del order
    # Marker lines take the entry layout with names of their own: INTORG
    # before each column where integrality switches on, INTEND where it
    # switches off and after the last column when that is integer.
    is_int = model.integer_mask()
    switch = np.flatnonzero(np.diff(is_int, append=False, prepend=False))
    marker = np.arange(len(switch))
    at = np.concatenate([[0], np.cumsum(count)])[switch]
    col = np.insert(col, at, n + marker)
    row = np.insert(row, at, m + 1)
    val = np.insert(val, at, len(text) + marker % 2)
    cn = np.array([f"    {c}  " for c in model.col_names]
                  + [f"    M{t}  " for t in range(1, len(switch) + 1)], dtype=object)
    rn = np.array([f"{r}  " for r in names] + [f"{model.obj_name}  ", "'MARKER'  "],
                  dtype=object)
    text = np.append(text, ["'INTORG'", "'INTEND'"])
    out.append("COLUMNS\n")
    out += _lines(len(col), (cn, col), (rn, row), (text, val))
    del col, row, val, cn

    out.append("RHS\n")
    rhs = np.asarray(model.rhs, dtype=np.float64)
    nz = np.flatnonzero(rhs != 0.0)
    text, val = _texts(rhs[nz])
    out += _lines(len(nz), "    RHS  ", (rn, nz), (text, val))

    bound_lines = _bound_lines(np.array(model.col_names, dtype=object), model.lb, model.ub)
    if bound_lines:
        out.append("BOUNDS\n")
        out += bound_lines
    out.append("ENDATA\n")
    return "".join(out)


def _check_nodes(nodes: np.ndarray, n_b: int) -> None:
    """Raise a `ValueError` if a clique node is outside [0, 2 n_b)."""
    if len(nodes) and not 0 <= nodes.min() <= nodes.max() < 2 * n_b:
        raise ValueError(f"clique node out of range for n_b={n_b}")


def _clique_rows(table: CliqueTable, vcols: np.ndarray, model: MipModel):
    """Every clique over the nodes of the binary columns `vcols` as the row
    sum x+ - sum x- <= 1 - q, in one batch: (cols, coeffs) of all nonzeros,
    each row sorted by (col, coeff), the row lengths and the right-hand
    sides."""
    lens, nodes = table.flat()
    n_b = len(vcols)
    _check_nodes(nodes, n_b)
    binary = model.integer_mask()[vcols] & ~(model.lb[vcols] < 0.0) & ~(model.ub[vcols] > 1.0)
    comp = nodes >= n_b
    pos = np.where(comp, nodes - n_b, nodes)
    cols = vcols[pos]
    ok = binary[pos]
    if not ok.all():
        raise MpsError(f"clique references non-binary column "
                       f"{model.col_names[cols[np.argmin(ok)]]!r}")
    vals = np.where(comp, -1.0, 1.0)
    rec = np.repeat(np.arange(len(lens)), lens)
    order = np.lexsort((vals, cols, rec))
    rhs = 1.0 - np.bincount(rec, weights=comp, minlength=len(lens))
    return cols[order], vals[order], lens, rhs


def write_augmented_mps(model: MipModel, pool: CutPool) -> str:
    """`write_mps` of the model plus one <= row per constraint clique of the
    pool, named CLQ000001, ... (prefixed with X while the name is taken)."""
    constraints = np.count_nonzero(pool.constraint)
    clq_cols, clq_vals, clq_lens, clq_rhs = _clique_rows(
        pool.table.take(np.flatnonzero(pool.constraint)), pool.binaries, model)
    names = list(model.row_names)
    taken = set(names)
    for i in range(1, constraints + 1):
        rname = f"CLQ{i:06d}"
        while rname in taken:
            rname = "X" + rname
        taken.add(rname)
        names.append(rname)
    del taken
    return write_mps(replace(
        model, row_names=names, rhs=np.concatenate([model.rhs, clq_rhs]),
        indptr=np.concatenate([model.indptr, model.nnz + np.cumsum(clq_lens)]),
        cols=np.concatenate([model.cols, clq_cols]), vals=np.concatenate([model.vals, clq_vals]),
        senses=np.concatenate([model.senses, np.full(constraints, SENSE_LE)])))


def export_cut_pool(pool: CutPool) -> str:
    """One line per user cut: `<tag> <signed-index>+`, deterministic order.

    A line's pieces are its tag's head and its members' signed 1-based
    column indices, each followed by a space or, the last, a newline. Each
    text is made once and picked by int32 index arrays, in slices of whole
    lines of at most `_SLICE_PIECES` pieces (one line when a line has
    more), so that a pool of long cuts never holds all of its pieces at
    once; the slices are joined into one text.
    """
    cuts = pool.table.take(np.flatnonzero(~pool.constraint))
    lens, nodes = cuts.flat()
    n_b = len(pool.binaries)
    _check_nodes(nodes, n_b)
    seen = np.zeros(2 * n_b, dtype=bool)
    seen[nodes] = True
    used = np.flatnonzero(seen)
    col = pool.binaries + 1
    signed = np.concatenate([col, -col])[used].tolist()
    # The heads "<tag> ", then "<tag> \n" for a line without members, and
    # each literal in use with a space, then with a newline.
    text = np.array([f"{t} " for t in TAGS] + [f"{t} \n" for t in TAGS]
                    + [f"{w} " for w in signed] + [f"{w}\n" for w in signed],
                    dtype=object)
    ptr = _indptr(lens + 1)  # line c is pieces ptr[c]:ptr[c + 1], its head first
    rank = np.cumsum(seen, dtype=np.int32) - 1
    idx = np.insert(rank[nodes] + 2 * len(TAGS), _indptr(lens)[:-1],
                    cuts.tag + len(TAGS) * (lens == 0))
    idx[ptr[1:][lens > 0] - 1] += len(used)
    out, lo = [], 0
    while lo < len(lens):  # whole lines, at least one, per slice
        hi = max(int(np.searchsorted(ptr, ptr[lo] + _SLICE_PIECES, side="right")) - 1, lo + 1)
        out.append("".join(text[idx[ptr[lo]:ptr[hi]]].tolist()))
        lo = hi
    return "".join(out)
