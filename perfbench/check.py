"""Output checker: every row and bound of the augmented model and every
user cut must hold at each planted point of the generated model.

The augmented MPS is read here by a reader of its own, not by the package,
so a fault in the package's MPS I/O cannot hide a fault in its output.
"""
from __future__ import annotations

import numpy as np

TOL = 1e-6


def _read_mps(text: str, col_index: dict[str, int]):
    """Rows, entries, rhs and bounds of a free-format MPS file."""
    senses: dict[str, str] = {}
    obj = None
    ent_row, ent_col, ent_val = [], [], []
    rhs: dict[str, float] = {}
    n = len(col_index)
    lo = np.zeros(n)
    hi = np.full(n, np.inf)
    section = None
    for line in text.splitlines():
        if not line.strip():
            continue
        tok = line.split()
        if line[0] not in " \t":
            section = tok[0]
            continue
        if section == "ROWS":
            if tok[0] == "N":
                obj = obj or tok[1]
            else:
                senses[tok[1]] = tok[0]
        elif section == "COLUMNS":
            if "'MARKER'" in tok:
                continue
            j = col_index[tok[0]]
            for r, v in zip(tok[1::2], tok[2::2]):
                if r in senses:
                    ent_row.append(r)
                    ent_col.append(j)
                    ent_val.append(float(v))
        elif section == "RHS":
            for r, v in zip(tok[1::2], tok[2::2]):
                rhs[r] = float(v)
        elif section == "BOUNDS":
            kind, j = tok[0], col_index[tok[2]]
            v = float(tok[3]) if len(tok) > 3 else None
            if kind in ("LO", "LI"):
                lo[j] = v
            elif kind in ("UP", "UI"):
                hi[j] = v
            elif kind == "FX":
                lo[j] = hi[j] = v
            elif kind == "FR":
                lo[j], hi[j] = -np.inf, np.inf
            elif kind == "MI":
                lo[j] = -np.inf
            elif kind == "PL":
                hi[j] = np.inf
            elif kind == "BV":
                lo[j], hi[j] = 0.0, 1.0
        elif section == "RANGES":
            raise ValueError("RANGES in an augmented model is not expected")
    return senses, (ent_row, ent_col, ent_val), rhs, lo, hi


def check_outputs(model_text: str, cuts_text: str, points: np.ndarray,
                  col_names: list[str], input_rows: set[str]) -> dict:
    """Count violations of the augmented model and the cut pool at every
    planted point, and the rows and cuts the pipeline emitted."""
    col_index = {c: j for j, c in enumerate(col_names)}
    senses, (er, ec, ev), rhs, lo, hi = _read_mps(model_text, col_index)
    names = list(senses)
    row_of = {r: i for i, r in enumerate(names)}
    act = np.zeros((len(points), len(names)))
    rows = np.array([row_of[r] for r in er], dtype=np.int64)
    for p, x in enumerate(points):
        np.add.at(act[p], rows, np.asarray(ev) * x[np.asarray(ec, dtype=np.int64)])
    b = np.array([rhs.get(r, 0.0) for r in names])
    sense = np.array([senses[r] for r in names])
    over = np.where(sense == "G", b - act, act - b)
    over = np.where(sense == "E", np.abs(act - b), over)
    row_bad = (over > TOL).any(axis=0)
    bound_bad = ((points < lo - TOL) | (points > hi + TOL)).any(axis=0)

    cut_bad = 0
    cut_tags: dict[str, int] = {}
    lines = cuts_text.splitlines()
    for line in lines:
        tag, *lits = line.split()
        cut_tags[tag] = cut_tags.get(tag, 0) + 1
        idx = np.array([int(s) for s in lits])
        cols = np.abs(idx) - 1
        vals = np.where(idx > 0, points[:, cols], 1.0 - points[:, cols])
        if (vals.sum(axis=1) > 1.0 + TOL).any():
            cut_bad += 1
    added = [r for r in names if r not in input_rows]
    return {
        "violated_rows": int(row_bad.sum()),
        "violated_added_rows": int(sum(row_bad[row_of[r]] for r in added)),
        "violated_bounds": int(bound_bad.sum()),
        "violated_cuts": cut_bad,
        "model_rows": len(names),
        "added_rows": len(added),
        "user_cuts": len(lines),
        "cut_tags": cut_tags,
    }


def violations(report: dict) -> int:
    return (report["violated_rows"] + report["violated_bounds"]
            + report["violated_cuts"])
