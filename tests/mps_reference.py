"""Line-at-a-time MPS reader and writers: the reference for `cgcuts.model_io`.

These are the straightforward per-line, per-nonzero and per-node versions
of `parse_mps`, `write_mps`, `write_augmented_mps` and `export_cut_pool`.
A pool is a list of (sorted nodes, tag name, is a constraint) records in
any order, which the writers sort themselves.
The array-pass versions in `cgcuts.model_io` must give equal models, the
same `MpsError` messages and line numbers, and byte-identical text.
"""
from __future__ import annotations

import math

import numpy as np

from cgcuts.model_io import SENSE_GE, SENSE_LE, TAGS, MipModel, MpsError

from conftest import literal_of, model_of_rows, row_of, signed_index

_INF = math.inf

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

_BOUND_TAGS = {"LO", "UP", "FX", "FR", "MI", "PL", "BV", "LI", "UI"}


def parse_mps(text: str) -> MipModel:
    """Parse an MPS character stream into a MipModel."""
    name = "MODEL"
    minimize = True
    obj_name = None
    row_order: list[str] = []
    row_sense: dict[str, str] = {}
    free_rows: set[str] = set()
    col_order: list[str] = []
    col_idx: dict[str, int] = {}
    entries: dict[tuple[int, str], float] = {}  # (col, row) -> coeff
    obj_coeff: dict[int, float] = {}
    rhs_val: dict[str, float] = {}
    range_val: dict[str, float] = {}
    integers: set[int] = set()
    lb: dict[int, float] = {}
    ub: dict[int, float] = {}
    explicit_lb: set[int] = set()
    bound_line: dict[int, int] = {}  # col -> its last BOUNDS line

    section = None
    in_integer = False
    saw_endata = False

    def err(msg: str, ln: int):
        raise MpsError(msg, ln)

    def number(tok: str, ln: int, finite: bool = True) -> float:
        """The value of `tok`: finite, or for a bound not NaN."""
        try:
            val = float(tok.replace("D", "E").replace("d", "e"))
        except ValueError:
            err(f"bad numeric field {tok!r}", ln)
        if math.isnan(val) or (finite and math.isinf(val)):
            err(f"{'non-finite value' if finite else 'NaN bound'} {tok!r}", ln)
        return val

    def get_col(tok: str, ln: int) -> int:
        if tok not in col_idx:
            err(f"unknown column {tok!r}", ln)
        return col_idx[tok]

    lines = text.splitlines()
    ln = 0
    pending_objsense = False
    for raw in lines:
        ln += 1
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if raw[0] not in (" ", "\t"):
            tokens = raw.split()
            head = tokens[0].upper()
            if head not in _KNOWN_SECTIONS:
                err(f"unsupported section {head!r}", ln)
            if head == "NAME":
                if len(tokens) > 1:
                    name = tokens[1]
                section = None
                continue
            if head == "ENDATA":
                saw_endata = True
                break
            section = head
            pending_objsense = section == "OBJSENSE"
            if section == "OBJSENSE" and len(tokens) > 1:
                minimize = tokens[1].upper().startswith("MIN")
                pending_objsense = False
            in_integer = False
            continue

        tokens = raw.split()
        if section is None:
            err("data line outside any section", ln)
        if pending_objsense:
            minimize = tokens[0].upper().startswith("MIN")
            pending_objsense = False
            continue

        if section == "ROWS":
            if len(tokens) < 2:
                err("ROWS line needs a type and a name", ln)
            rtype, rname = tokens[0].upper(), tokens[1]
            if rname in row_sense or rname in free_rows or rname == obj_name:
                err(f"duplicate row name {rname!r}", ln)
            if rtype == "N":
                if obj_name is None:
                    obj_name = rname
                else:
                    free_rows.add(rname)  # extra free rows: coefficients skipped
            elif rtype in ("L", "G", "E"):
                row_sense[rname] = rtype
                row_order.append(rname)
            else:
                err(f"unknown row type {rtype!r}", ln)

        elif section == "COLUMNS":
            if "'MARKER'" in tokens:
                if "'INTORG'" in tokens:
                    in_integer = True
                elif "'INTEND'" in tokens:
                    in_integer = False
                else:
                    err("MARKER line without INTORG/INTEND", ln)
                continue
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                err("COLUMNS line needs col followed by row/value pairs", ln)
            cname = tokens[0]
            if cname not in col_idx:
                col_idx[cname] = len(col_order)
                col_order.append(cname)
            j = col_idx[cname]
            if in_integer:
                integers.add(j)
            for rname, vtok in zip(tokens[1::2], tokens[2::2]):
                val = number(vtok, ln)
                if rname == obj_name:
                    obj_coeff[j] = obj_coeff.get(j, 0.0) + val
                elif rname in free_rows:
                    continue
                elif rname in row_sense:
                    key = (j, rname)
                    entries[key] = entries.get(key, 0.0) + val
                else:
                    err(f"unknown row {rname!r}", ln)

        elif section == "RHS":
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                err("RHS line needs set name and row/value pairs", ln)
            for rname, vtok in zip(tokens[1::2], tokens[2::2]):
                val = number(vtok, ln)
                if rname in row_sense:
                    rhs_val[rname] = val
                elif rname == obj_name or rname in free_rows:
                    continue  # objective constant, ignored
                else:
                    err(f"unknown row {rname!r}", ln)

        elif section == "RANGES":
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                err("RANGES line needs set name and row/value pairs", ln)
            for rname, vtok in zip(tokens[1::2], tokens[2::2]):
                if rname not in row_sense:
                    err(f"unknown row {rname!r}", ln)
                range_val[rname] = number(vtok, ln)

        elif section == "BOUNDS":
            tag = tokens[0].upper()
            if tag not in _BOUND_TAGS:
                err(f"unknown bound type {tag!r}", ln)
            if tag in ("FR", "MI", "PL", "BV"):
                if len(tokens) < 3:
                    err("bound line needs a column name", ln)
                j = get_col(tokens[2], ln)
                bound_line[j] = ln
                if tag == "FR":
                    lb[j], ub[j] = -_INF, _INF
                elif tag == "MI":
                    lb[j] = -_INF
                elif tag == "PL":
                    ub[j] = _INF
                else:  # BV
                    integers.add(j)
                    lb[j], ub[j] = 0.0, 1.0
                if tag in ("FR", "MI"):
                    explicit_lb.add(j)
            else:
                if len(tokens) < 4:
                    err("bound line needs a column name and a value", ln)
                j = get_col(tokens[2], ln)
                val = number(tokens[3], ln, finite=False)
                bound_line[j] = ln
                if tag in ("LO", "LI"):
                    lb[j] = val
                    explicit_lb.add(j)
                    if tag == "LI":
                        integers.add(j)
                elif tag in ("UP", "UI"):
                    ub[j] = val
                    if tag == "UI":
                        integers.add(j)
                else:  # FX
                    lb[j] = ub[j] = val
                    explicit_lb.add(j)

        else:  # pragma: no cover - sections exhausted above
            err(f"unsupported section {section!r}", ln)

    if not saw_endata and section is None and not row_order and not col_order:
        raise MpsError("no MPS content found")

    n = len(col_order)
    obj = np.zeros(n)
    for j, v in obj_coeff.items():
        obj[j] = v
    lbs = np.zeros(n)
    ubs = np.full(n, _INF)
    for j, v in lb.items():
        lbs[j] = v
    for j, v in ub.items():
        ubs[j] = v
    crossed = [j for j in range(n) if lbs[j] > ubs[j]]
    if crossed:
        err(f"column {col_order[crossed[0]]} has lb > ub", bound_line[crossed[0]])

    # Assemble sparse rows in ROWS order, dropping explicit zeros.
    per_row: dict[str, list[tuple[int, float]]] = {r: [] for r in row_order}
    for (j, rname), val in entries.items():
        if val != 0.0:
            per_row[rname].append((j, val))

    rows: list[tuple[np.ndarray, np.ndarray]] = []
    senses: list[str] = []
    rhs_list: list[float] = []
    names: list[str] = []

    def add_row(rname: str, sense: str, pairs, b: float):
        pairs = sorted(pairs)
        cols = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs], dtype=np.float64)
        rows.append((cols, vals))
        senses.append(sense)
        rhs_list.append(b)
        names.append(rname)

    for rname in row_order:
        sense = row_sense[rname]
        b = rhs_val.get(rname, 0.0)
        pairs = per_row[rname]
        add_row(rname, sense, pairs, b)
        if rname in range_val:
            r = range_val[rname]
            if sense == SENSE_LE:
                add_row(rname + "_RNG", SENSE_GE, pairs, b - abs(r))
            elif sense == SENSE_GE:
                add_row(rname + "_RNG", SENSE_LE, pairs, b + abs(r))
            else:  # E: becomes a two-sided range
                lo, hi = (b, b + r) if r >= 0 else (b + r, b)
                senses[-1] = SENSE_LE
                rhs_list[-1] = hi
                add_row(rname + "_RNG", SENSE_GE, pairs, lo)

    if len(set(names)) != len(names):
        raise MpsError("duplicate row names after RANGES expansion")

    return model_of_rows(
        rows,
        col_names=col_order,
        row_names=names,
        senses=senses,
        rhs=np.array(rhs_list, dtype=np.float64),
        obj=obj,
        lb=lbs,
        ub=ubs,
        integers=integers,
        name=name,
        obj_name=obj_name or "OBJ",
        minimize=minimize,
    )


def _fmt(v: float) -> str:
    if abs(v) < 1e15 and v == int(v):
        return str(int(v))
    return repr(float(v))


def write_mps(model: MipModel) -> str:
    """Serialize a model as free-format MPS (round-trips through parse_mps)."""
    out = [f"NAME {model.name}"]
    if not model.minimize:
        out.append("OBJSENSE")
        out.append("    MAX")
    out.append("ROWS")
    out.append(f" N  {model.obj_name}")
    for i, rname in enumerate(model.row_names):
        out.append(f" {model.senses[i]}  {rname}")

    # Row entries grouped per column.
    per_col: dict[int, list[tuple[str, float]]] = {j: [] for j in range(model.num_cols)}
    for i in range(model.num_rows):
        cols, vals = row_of(model, i)
        rname = model.row_names[i]
        for j, v in zip(cols, vals):
            per_col[int(j)].append((rname, float(v)))

    out.append("COLUMNS")
    in_int = False
    marker_id = 0
    for j, cname in enumerate(model.col_names):
        is_int = j in model.integers
        if is_int != in_int:
            marker_id += 1
            kind = "'INTORG'" if is_int else "'INTEND'"
            out.append(f"    M{marker_id}  'MARKER'  {kind}")
            in_int = is_int
        wrote = False
        if model.obj[j] != 0.0 or not per_col[j]:
            out.append(f"    {cname}  {model.obj_name}  {_fmt(model.obj[j])}")
            wrote = True
        for rname, v in per_col[j]:
            out.append(f"    {cname}  {rname}  {_fmt(v)}")
            wrote = True
        assert wrote
    if in_int:
        marker_id += 1
        out.append(f"    M{marker_id}  'MARKER'  'INTEND'")

    out.append("RHS")
    for i, rname in enumerate(model.row_names):
        if model.rhs[i] != 0.0:
            out.append(f"    RHS  {rname}  {_fmt(model.rhs[i])}")

    bound_lines = []
    for j, cname in enumerate(model.col_names):
        lo, hi = float(model.lb[j]), float(model.ub[j])
        if lo == 0.0 and hi == _INF:
            continue
        if lo == hi:
            bound_lines.append(f" FX BND  {cname}  {_fmt(lo)}")
            continue
        if lo == -_INF and hi == _INF:
            bound_lines.append(f" FR BND  {cname}")
            continue
        if lo == -_INF:
            bound_lines.append(f" MI BND  {cname}")
        elif lo != 0.0:
            bound_lines.append(f" LO BND  {cname}  {_fmt(lo)}")
        if hi != _INF:
            bound_lines.append(f" UP BND  {cname}  {_fmt(hi)}")
    if bound_lines:
        out.append("BOUNDS")
        out.extend(bound_lines)
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def _clique_row(nodes, binaries, model: MipModel):
    """Turn a clique into (cols, coeffs, rhs): sum x+ - sum x- <= 1 - q."""
    pairs = []
    q = 0
    for node in nodes:
        lit = literal_of(binaries, node)
        j = lit.col
        if j not in model.integers or model.lb[j] < 0.0 or model.ub[j] > 1.0:
            raise MpsError(
                f"clique references non-binary column {model.col_names[j]!r}"
            )
        if lit.complemented:
            pairs.append((j, -1.0))
            q += 1
        else:
            pairs.append((j, 1.0))
    pairs.sort()
    cols = np.array([p[0] for p in pairs], dtype=np.int64)
    vals = np.array([p[1] for p in pairs], dtype=np.float64)
    return cols, vals, 1.0 - q


def _sorted(records, constraint: bool):
    """The (nodes, tag) of one disposition's records, by tag (TAGS order)
    then nodes."""
    return sorted(((TAGS.index(tag), nodes) for nodes, tag, con in records
                   if con == constraint))


def write_augmented_mps(model: MipModel, records, binaries) -> str:
    """Original rows plus one <= row per constraint clique."""
    names, senses = list(model.row_names), model.senses.tolist()
    rows = [row_of(model, i) for i in range(model.num_rows)]
    taken = set(names)
    rhs = []
    for i, (_, nodes) in enumerate(_sorted(records, True)):
        cols, vals, b = _clique_row(nodes, binaries, model)
        rname = f"CLQ{i + 1:06d}"
        while rname in taken:
            rname = "X" + rname
        taken.add(rname)
        rows.append((cols, vals))
        senses.append(SENSE_LE)
        names.append(rname)
        rhs.append(b)
    return write_mps(model_of_rows(
        rows, like=model, row_names=names, senses=senses,
        rhs=np.concatenate([model.rhs, np.array(rhs, dtype=np.float64)])))


def export_cut_pool(records, binaries) -> str:
    """One line per user cut: `<tag> <signed-index>+`, deterministic order."""
    lines = []
    for tag, nodes in _sorted(records, False):
        signed = " ".join(str(signed_index(binaries, n)) for n in nodes)
        lines.append(f"{TAGS[tag]} {signed}")
    return "\n".join(lines) + ("\n" if lines else "")
