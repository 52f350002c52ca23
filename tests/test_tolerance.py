"""The comparison tolerance scales with the magnitudes compared: a row whose
decimal coefficients sum exactly to its rhs claims no conflict, packing,
fixing or infeasibility however large they are, while a row above its rhs
by a relative margin still yields its conflict."""
from hypothesis import given, settings
from hypothesis import strategies as st

import detect_reference as ref
from cgcuts.pipeline import run_pipeline_model
from cgcuts.presolve import detect
from conftest import knapsack_indices, make_model


def pair_row(a, b, rhs, fixed=False):
    """a x + b y <= rhs over the binaries x, y, or over integers fixed at 1,
    which strengthening tests and rewriting moves into the rhs."""
    if fixed:
        return make_model(2, [{0: a, 1: b}], ["L"], [rhs], integers=[0, 1],
                          lb=[1.0, 1.0], ub=[1.0, 1.0])
    return make_model(2, [{0: a, 1: b}], ["L"], [rhs], binary=[0, 1])


def claims(model):
    """(conflicting knapsacks, packings, fixings) that `detect` finds, and
    the same from the row-loop reference."""
    got = detect(model)
    want = ref.detect(model)
    found = (len(got.s_ck), len(got.s_isp) + len(got.s_osp), len(got.fixings))
    assert found == (len(want.s_ck), len(want.s_isp) + len(want.s_osp),
                     len(want.fixings))
    return found


def test_exact_decimal_sum_at_large_magnitude_is_not_a_conflict():
    # 217005476.7 + 677493712.7 is 894499189.4000001 in floats: one ulp
    # above the rhs, which an absolute 1e-9 slack took for a conflict and
    # cut off the feasible point x = y = 1 with x + y <= 1.
    a, b, rhs = 217005476.7, 677493712.7, 894499189.4
    assert a + b > rhs + 1e-9
    model = pair_row(a, b, rhs)
    assert claims(model) == (0, 0, 0)
    assert knapsack_indices([a, b], rhs) == (None, [])
    _, pool, plan, _ = run_pipeline_model(model)
    assert len(pool.table) == 0 and plan.constraint_rows() == 0
    # with both fixed at 1, the activity equals the rhs: not infeasible
    assert claims(pair_row(a, b, rhs, fixed=True)) == (0, 0, 0)


tenths = st.integers(min_value=1_000_000_000, max_value=9_000_000_000)


@settings(max_examples=200, deadline=None)
@given(a=tenths, b=tenths)
def test_large_decimal_rows_claim_a_conflict_only_above_the_rhs(a, b):
    lo, hi = sorted((a / 10, b / 10))
    rhs = (a + b) / 10  # the exact decimal sum, rounded once
    assert claims(pair_row(lo, hi, rhs)) == (0, 0, 0)
    assert knapsack_indices([lo, hi], rhs) == (None, [])
    assert claims(pair_row(lo, hi, rhs, fixed=True)) == (0, 0, 0)
    below = rhs * (1 - 1e-6)
    ck, packing, fixings = claims(pair_row(lo, hi, below))
    assert ck + packing == 1 and fixings == 0  # a packing when lo == hi
    assert knapsack_indices([lo, hi], below) == (0, [])
