"""Cut triage: route the clique pool into model constraints or user cuts.

The pool is one `CliqueTable` sorted by (tag, members), so each tag is a
run of rows. Its osp_long cliques replace the removed set-packing rows; the
org_long, isp_long and other_long runs are admitted, in that order, under
nonzero-ratio rules, each from its start while the row-doubling budget
lasts; everything else, and the overflow past the budget, goes to the lazy
user-cut pool.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliques import ISP, ORG, OSP, OTHER, CliqueTable
from .model_io import TAGS, MipModel


@dataclass
class TriagePlan:
    constraint: np.ndarray  # per pool clique: a model constraint, else a user cut

    def constraint_rows(self) -> int:
        return int(np.count_nonzero(self.constraint))

    @property
    def as_user_cuts(self) -> np.ndarray:
        return np.flatnonzero(~self.constraint)


def triage(pool: CliqueTable, model: MipModel) -> TriagePlan:
    """Apply the triage heuristic to the pool, sorted by (tag, members).

    Replacements for removed original set-packing rows are always emitted.
    The long runs are admitted set-by-set when their nonzero count stays
    within the model's NNZ (other_long counting the nonzeros already
    admitted); cliques past the row-doubling budget are demoted to user
    cuts in pool order.
    """
    tag = pool.tag
    if len(tag) and tag[-1] >= len(TAGS):
        raise ValueError(f"unknown pool tags: {sorted(set(tag[tag >= len(TAGS)].tolist()))}")
    size = pool.sizes()
    bounds = np.searchsorted(tag, np.arange(len(TAGS) + 1)).tolist()
    constraint = tag == OSP
    # Row budget: the post-detect rows plus the one-for-one replacements may
    # at most double.
    rows_now = model.num_rows + bounds[OSP + 1] - bounds[OSP]
    max_total_rows = 2 * rows_now
    clq_nnz = 0
    for t in (ORG, ISP, OTHER):
        lo, hi = bounds[t], bounds[t + 1]
        if (clq_nnz if t == OTHER else 0) + int(size[lo:hi].sum()) > model.nnz:
            continue
        admitted = min(hi - lo, max_total_rows - rows_now)
        constraint[lo:lo + admitted] = True
        rows_now += admitted
        clq_nnz += int(size[lo:lo + admitted].sum())
    return TriagePlan(constraint)
