"""Synthetic benchmark generator and runtime aggregation."""
import math

import numpy as np
import pytest

from cgcuts import bench, parallel
from cgcuts.bench import (
    BenchConfig,
    BenchReport,
    generate_cliques,
    run_bench,
    shifted_geomean,
    warn_if_slow,
)
from cgcuts.cliques import CliqueTable
from cgcuts.model_io import CutPool
from cgcuts.parallel import available_cores, clamp_threads
from cgcuts.pipeline import Limits, run_pipeline_model
from cgcuts.presolve import detect
from conftest import cliques_of


def test_shifted_geomean_reference_value():
    assert shifted_geomean([0.5, 2.0], shift=1.0) == pytest.approx(
        math.sqrt(1.5 * 3.0) - 1.0
    )
    assert shifted_geomean([0.5, 2.0], shift=1.0) == pytest.approx(
        1.1213203435596424
    )


def test_shifted_geomean_singleton_and_constant():
    assert shifted_geomean([3.25], shift=1.0) == pytest.approx(3.25)
    assert shifted_geomean([0.7] * 5, shift=2.0) == pytest.approx(0.7)


def test_shifted_geomean_rejects_bad_input():
    with pytest.raises(ValueError):
        shifted_geomean([])
    with pytest.raises(ValueError):
        shifted_geomean([1.0, -0.5])
    with pytest.raises(ValueError):
        shifted_geomean([1.0], shift=-1.0)


def test_config_validates_probability():
    with pytest.raises(ValueError):
        BenchConfig(n_b=10, num_cliques=5, membership_prob=0.0)
    with pytest.raises(ValueError):
        BenchConfig(n_b=10, num_cliques=5, membership_prob=1.0)


@pytest.mark.parametrize("field, value, message", [
    ("repetitions", 0, "repetitions must be at least 1"),
    ("n_b", -1, "n_b and num_cliques must be non-negative"),
    ("num_cliques", -3, "n_b and num_cliques must be non-negative"),
])
def test_config_validates_sizes(field, value, message):
    fields = dict(n_b=10, num_cliques=5, membership_prob=0.5) | {field: value}
    with pytest.raises(ValueError, match=message):
        BenchConfig(**fields)


def test_generate_cliques_is_deterministic():
    a, dropped_a = generate_cliques(50, 40, 0.1, seed=3)
    b, dropped_b = generate_cliques(50, 40, 0.1, seed=3)
    assert cliques_of(a) == cliques_of(b)
    assert dropped_a == dropped_b
    c, _ = generate_cliques(50, 40, 0.1, seed=4)
    assert cliques_of(a) != cliques_of(c)


def test_generate_cliques_in_row_slices_equals_one_slice(monkeypatch):
    want = generate_cliques(50, 40, 0.1, seed=3)
    monkeypatch.setattr(bench, "_SLICE_CELLS", 3 * 50)  # three rows at a time
    got = generate_cliques(50, 40, 0.1, seed=3)
    assert cliques_of(got[0]) == cliques_of(want[0]) and got[1] == want[1]


def test_generate_cliques_drops_tiny_members():
    cliques, dropped = generate_cliques(20, 200, 0.02, seed=0)
    # expected membership is 0.4 literals per clique, so most are dropped
    assert dropped > 100
    assert all(cliques.sizes() >= 2)
    assert len(cliques) + dropped == 200


def test_generate_cliques_uses_positive_literals_only():
    cliques, _ = generate_cliques(30, 50, 0.2, seed=1)
    for q, _ in cliques_of(cliques):
        assert max(q) < 30


def test_run_bench_small_sweep():
    cfg = BenchConfig(n_b=40, num_cliques=60, membership_prob=0.1,
                      threads=(1, 2), repetitions=2, seed=0)
    report = run_bench(cfg)
    stages = {(r["k"], r["stage"]) for r in report.rows}
    ks = sorted({k for k, _ in stages})
    assert 1 in ks
    for k in ks:
        for stage in ("graph_build", "extension", "merge", "total"):
            assert (k, stage) in stages
    assert report.speedup(ks[0]) == pytest.approx(1.0)


def test_run_bench_with_a_binding_budget():
    # The budget binds, and every k must still extend the same bases.
    cfg = BenchConfig(n_b=400, num_cliques=2000, membership_prob=0.02,
                      threads=(1, 2), repetitions=1, seed=0)
    report = run_bench(cfg, limits=Limits(per_thread_ext_nnz=20000))
    assert {r["k"] for r in report.rows} == {1, 2}


def test_run_bench_notes_a_skipped_merge():
    cfg = BenchConfig(n_b=40, num_cliques=60, membership_prob=0.1,
                      threads=(1, 2), repetitions=1, seed=0)
    report = run_bench(cfg, limits=Limits(max_merge_cliques=1))
    assert "merge_skipped fired at k=1,2" in report.notes
    assert {r["stage"] for r in report.rows} == set(bench.STAGES)


def test_run_bench_reports_no_stage_the_time_limit_stopped():
    cfg = BenchConfig(n_b=40, num_cliques=60, membership_prob=0.1,
                      threads=(1, 2), repetitions=2, seed=0)
    report = run_bench(cfg, limits=Limits(time_limit_s=1e-9))
    assert "time_limit_hit fired at k=1,2" in report.notes
    assert any("graph_build, extension, merge" in note for note in report.notes)
    assert report.rows == [] and report.speedup(1) is None


def test_run_bench_times_the_pipelines_own_stages(monkeypatch):
    seen = []

    def timed(model, limits, k, seed):
        out = run_pipeline_model(model, limits, k, seed)
        seen.append(dict(out[3].stage_seconds))
        return out

    monkeypatch.setattr(bench, "run_pipeline_model", timed)
    cfg = BenchConfig(n_b=40, num_cliques=60, membership_prob=0.1,
                      threads=(1,), repetitions=1, seed=0)
    report = run_bench(cfg)
    sgm = {r["stage"]: r["sgm"] for r in report.rows}
    (stages,) = seen
    want = {s: shifted_geomean([stages[s]]) for s in bench.STAGES[:-1]}
    want["total"] = shifted_geomean([sum(stages[s] for s in bench.STAGES[:-1])])
    assert sgm == pytest.approx(want)


def test_run_bench_raises_on_a_k_dependent_output(monkeypatch):
    def k_dependent(model, limits, k, seed):
        out_model, pool, plan, stats = run_pipeline_model(model, limits, k, seed)
        keep = np.arange(len(pool.table) - (k > 1))
        pool = CutPool(pool.table.take(keep), pool.constraint[keep], pool.binaries)
        return out_model, pool, plan, stats

    monkeypatch.setattr(bench, "run_pipeline_model", k_dependent)
    cfg = BenchConfig(n_b=40, num_cliques=60, membership_prob=0.1,
                      threads=(1, 2), repetitions=1, seed=0)
    with pytest.raises(AssertionError, match="between k=1 and k=2"):
        run_bench(cfg)


def test_packing_model_puts_node_j_in_column_j():
    cliques, _ = generate_cliques(30, 20, 0.2, seed=2)
    model = bench.packing_model(cliques, 30)
    det = detect(model)
    assert det.binaries.tolist() == list(range(30))
    assert len(det.s_osp) == len(cliques) and model.num_rows == len(cliques)
    assert sorted(cliques_of(CliqueTable.plain(det.s_osp.lengths(), det.s_osp.nodes, 0))) \
        == sorted(cliques_of(cliques))


def test_run_bench_caps_threads_to_host():
    cores = available_cores()
    cfg = BenchConfig(n_b=30, num_cliques=30, membership_prob=0.1,
                      threads=(cores + 5,), repetitions=1, seed=0)
    report = run_bench(cfg)
    assert report.capped_threads
    assert any("capped" in note for note in report.notes)
    assert max(r["k"] for r in report.rows) == clamp_threads(cores + 5)


def test_run_bench_caps_threads_like_the_pipeline(monkeypatch):
    # On one core the pipeline keeps k = 2: the calling process and one
    # worker. `cgcuts bench` must measure the same k.
    monkeypatch.setattr(parallel, "available_cores", lambda: 1)
    cfg = BenchConfig(n_b=30, num_cliques=30, membership_prob=0.1,
                      threads=(1, 2, 4), repetitions=1, seed=0)
    report = run_bench(cfg)
    assert report.capped_threads
    assert any("capped at 2" in note for note in report.notes)
    assert {r["k"] for r in report.rows} == {1, 2}


def test_run_bench_notes_dropped_cliques():
    cfg = BenchConfig(n_b=20, num_cliques=50, membership_prob=0.02,
                      threads=(1,), repetitions=1, seed=0)
    report = run_bench(cfg)
    assert report.dropped_cliques > 0
    assert any("dropped" in note for note in report.notes)


def test_report_csv_layout():
    report = BenchReport(rows=[
        {"k": 1, "stage": "total", "sgm": 0.5, "speedup": 1.0},
        {"k": 2, "stage": "total", "sgm": 0.25, "speedup": 2.0},
    ])
    lines = report.to_csv().splitlines()
    assert lines[0] == "k,stage,shifted_geomean_s,speedup"
    assert lines[1] == "1,total,0.500000,1.000"
    assert report.speedup(2) == 2.0
    assert report.speedup(16) is None


def test_warn_if_slow_paths():
    # Only the largest k swept is checked.
    import warnings

    def sweep(*speedups):
        return BenchReport(rows=[{"k": k, "stage": "total", "sgm": 0.1, "speedup": s}
                                 for k, s in zip((1, 2, 4), speedups)])

    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        warn_if_slow(sweep(1.0, 1.2))  # k = 2 swept, no k = 4 asked for
        warn_if_slow(sweep(1.0, 0.8, 1.1))  # only the largest k is checked
        warn_if_slow(sweep(1.0))  # k = 1 alone: nothing to check
        warn_if_slow(BenchReport())
    assert record == []
    with pytest.warns(UserWarning, match="speedup at k=2 is 0.90x"):
        warn_if_slow(sweep(1.0, 0.9))
    with pytest.warns(UserWarning, match="speedup at k=4 is 1.10x"):
        warn_if_slow(sweep(1.0, 2.0, 1.1), threshold=1.5)
