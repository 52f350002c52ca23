"""Cut triage: route clique pools into model constraints or user cuts.

Longest-clique pools are admitted as constraints under nonzero-ratio rules;
everything else, plus any overflow past the row-doubling budget, goes to
the lazy user-cut pool.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .cliques import Clique, clique_order
from .model_io import TAGS, MipModel

_OTHER_TAGS = ("osp_other", "isp_other", "org_other", "other_other")
_RULE_TAGS = ("org_long", "isp_long", "other_long")


@dataclass
class TriagePlan:
    replacements: list[Clique]
    as_constraints: list[tuple[Clique, str]]
    as_user_cuts: list[tuple[Clique, str]]
    clq_nnz: int
    model_nnz: int
    budget_demotions: int = 0

    def constraint_rows(self) -> int:
        return len(self.replacements) + len(self.as_constraints)


def _set_nnz(cliques) -> int:
    return sum(len(q.nodes) for q in cliques)


def triage(pools: dict[str, list[Clique]], model: MipModel) -> TriagePlan:
    """Apply the triage heuristic to the eight tagged pools.

    Replacements for removed original set-packing rows are always emitted.
    The long pools are admitted set-by-set when their nonzero count stays
    within the model's NNZ; individual cliques past the row-doubling budget
    are demoted to user cuts in sequence order.
    """
    unknown = set(pools) - set(TAGS)
    if unknown:
        raise ValueError(f"unknown pool tags: {sorted(unknown)}")
    post_rows = model.num_rows
    nnz = model.nnz
    replacements = sorted(pools.get("osp_long", []), key=clique_order)
    as_constraints: list[tuple[Clique, str]] = []
    as_user_cuts: list[tuple[Clique, str]] = []
    # Row budget: the post-detect rows plus the one-for-one replacements may
    # at most double.
    max_total_rows = 2 * (post_rows + len(replacements))
    rows_now = post_rows + len(replacements)
    clq_nnz = 0
    demotions = 0

    for tag in _OTHER_TAGS:
        for q in sorted(pools.get(tag, []), key=clique_order):
            as_user_cuts.append((q, tag))

    for tag in _RULE_TAGS:
        pool = sorted(pools.get(tag, []), key=clique_order)
        size = _set_nnz(pool)
        if tag == "other_long":
            admit = clq_nnz + size <= nnz
        else:
            admit = size <= nnz
        for q in pool:
            if admit and rows_now + 1 <= max_total_rows:
                as_constraints.append((q, tag))
                rows_now += 1
                clq_nnz += len(q.nodes)
            else:
                if admit:
                    demotions += 1
                as_user_cuts.append((q, tag))

    return TriagePlan(
        replacements=replacements,
        as_constraints=as_constraints,
        as_user_cuts=as_user_cuts,
        clq_nnz=clq_nnz,
        model_nnz=nnz,
        budget_demotions=demotions,
    )
