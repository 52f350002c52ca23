"""Routing cliques into model constraints versus the user-cut pool."""
import numpy as np
import pytest

from cgcuts.model_io import TAGS
from cgcuts.triage import triage
from conftest import clq_nnz, make_model, plain_table, replacements, routed, tag_pool


def cliques_of_size(count, size, offset=0):
    return [
        tuple(range(offset + i * size, offset + (i + 1) * size))
        for i in range(count)
    ]


def model_with(nnz, rows):
    """All-binary model with the requested row count and nonzero total."""
    per_row = nnz // rows
    extra = nnz - per_row * rows
    row_dicts = []
    for i in range(rows):
        t = per_row + (1 if i < extra else 0)
        row_dicts.append({j: 1.0 for j in range(t)})
    n_cols = max(len(r) for r in row_dicts)
    m = make_model(n_cols, row_dicts, ["L"] * rows, [5.0] * rows,
                   binary=range(n_cols))
    assert m.nnz == nnz and m.num_rows == rows
    return m


def empty_pools(**pools):
    return tag_pool(pools)


def test_worked_ratio_example():
    # NNZ=40, rows=10; pool nonzeros 30 / 20 / 5.
    model = model_with(nnz=40, rows=10)
    pools = empty_pools(
        org_long=cliques_of_size(6, 5),
        isp_long=cliques_of_size(4, 5, offset=100),
        other_long=cliques_of_size(1, 5, offset=200),
    )
    plan = triage(pools, model)
    added_tags, cut_tags = routed(plan, pools)
    assert added_tags.count("org_long") == 6
    assert added_tags.count("isp_long") == 4
    assert cut_tags == ["other_long"]
    assert clq_nnz(plan, pools) == 50


def test_empty_pools_give_empty_plan():
    model = model_with(nnz=10, rows=2)
    pools = empty_pools()
    plan = triage(pools, model)
    assert replacements(pools) == 0
    assert plan.constraint_rows() == 0 and len(plan.as_user_cuts) == 0
    assert clq_nnz(plan, pools) == 0


def test_ratio_boundary_is_inclusive():
    model = model_with(nnz=10, rows=5)
    plan = triage(empty_pools(org_long=cliques_of_size(2, 5)), model)
    assert plan.constraint_rows() == 2  # 10/10 == 1 still passes
    over = triage(empty_pools(org_long=cliques_of_size(2, 6)), model)
    assert over.constraint_rows() == 0
    assert len(over.as_user_cuts) == 2


def test_row_doubling_budget_demotes_overflow():
    model = model_with(nnz=30, rows=3)
    plan = triage(empty_pools(org_long=cliques_of_size(5, 2)), model)
    assert plan.constraint_rows() == 3  # budget: 2 * 3 rows total
    assert plan.as_user_cuts.tolist() == [3, 4]  # the overflow, in pool order


def test_replacements_are_exempt_from_the_budget():
    model = model_with(nnz=30, rows=2)
    pools = empty_pools(
        osp_long=cliques_of_size(6, 2),
        org_long=cliques_of_size(6, 2, offset=50),
    )
    plan = triage(pools, model)
    assert replacements(pools) == 6
    # budget is 2 * (2 rows + 6 replacements) = 16 total rows
    assert plan.constraint_rows() == 12


def test_other_tags_always_become_user_cuts():
    model = model_with(nnz=100, rows=4)
    pools = empty_pools(
        osp_other=cliques_of_size(2, 3),
        isp_other=cliques_of_size(1, 3, offset=10),
        org_other=cliques_of_size(1, 3, offset=20),
        other_other=cliques_of_size(1, 3, offset=30),
    )
    plan = triage(pools, model)
    assert plan.constraint_rows() == 0
    assert sorted(routed(plan, pools)[1]) == sorted(
        ["osp_other"] * 2 + ["isp_other", "org_other", "other_other"]
    )


def test_other_long_rule_includes_accumulated_nnz():
    model = model_with(nnz=12, rows=6)
    pools = empty_pools(
        org_long=cliques_of_size(2, 4),
        other_long=cliques_of_size(1, 5, offset=40),
    )
    plan = triage(pools, model)
    # org_long: 8 <= 12 passes; other_long: 8 + 5 > 12 fails
    assert routed(plan, pools) == (["org_long"] * 2, ["other_long"])


def test_unknown_tag_rejected():
    model = model_with(nnz=10, rows=2)
    with pytest.raises(ValueError, match="unknown pool tags"):
        triage(plain_table([(0, 1)], len(TAGS)), model)


def test_every_clique_lands_in_exactly_one_bucket():
    rng = np.random.default_rng(53)
    for _ in range(50):
        model = model_with(
            nnz=int(rng.integers(5, 60)), rows=int(rng.integers(1, 8))
        )
        pools = {}
        total = 0
        for tag in TAGS:
            count = int(rng.integers(0, 5))
            size = int(rng.integers(2, 6))
            pools[tag] = cliques_of_size(count, size, offset=total * 10)
            total += count
        pool = tag_pool(pools)
        plan = triage(pool, model)
        assert len(plan.constraint) == total
        assert plan.constraint_rows() + len(plan.as_user_cuts) == total
        # the doubling budget is never exceeded
        post = model.num_rows + replacements(pool)
        assert post + plan.constraint_rows() - replacements(pool) <= 2 * post
