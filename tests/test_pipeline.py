"""End-to-end pipeline, limits and the command-line driver."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cgcuts
from cgcuts.cli import main
from cgcuts.cliques import SRC_ISP, SRC_KNAPSACK_ORG, SRC_OSP
from cgcuts import model_io
from cgcuts.model_io import MpsError, parse_mps, parse_mps_file, write_mps
from cgcuts.pipeline import Limits, RunStats, run_pipeline, run_pipeline_model
from conftest import make_model, random_binary_model

PACKING = make_model(2, [{0: 1.0, 1: 1.0}], ["L"], [1.0], binary=[0, 1])

KNAPSACK6 = make_model(
    6,
    [{0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}],
    ["L"],
    [5.0],
    binary=range(6),
)


def test_limits_defaults_and_validation():
    limits = Limits()
    assert limits.max_knapsack_vars == 5000
    assert limits.max_clique_sample == 1000
    assert limits.max_graph_nnz == 25_000_000
    assert limits.per_thread_ext_nnz == 1_250_000
    assert limits.max_merge_cliques == 100_000
    assert limits.time_limit_s == 120.0
    with pytest.raises(ValueError, match="strictly positive"):
        Limits(max_graph_nnz=0)


def test_limits_from_json(tmp_path):
    path = tmp_path / "limits.json"
    path.write_text(json.dumps({"max_knapsack_vars": 7, "time_limit_s": 3.5}))
    limits = Limits.from_json(path)
    assert limits.max_knapsack_vars == 7
    assert limits.time_limit_s == 3.5
    assert limits.max_clique_sample == 1000


def test_packing_instance_restores_strengthened_row():
    base, pool, plan, stats = run_pipeline_model(PACKING)
    assert base.num_rows == 0  # the packing row was pulled out
    assert len(plan.replacements) == 1
    assert plan.replacements[0].nodes == (0, 1)
    assert pool.by_disposition("user_cut") == []
    assert stats.rows_removed == 1
    assert not any(stats.flags.values())


def test_knapsack_instance_routes_cliques():
    base, pool, plan, stats = run_pipeline_model(KNAPSACK6)
    assert base.num_rows == 1  # knapsack row is retained
    constraints = pool.by_disposition("model_constraint")
    users = pool.by_disposition("user_cut")
    assert [(r.nodes, r.tag) for r in constraints] == [((2, 3), "org_long")]
    assert [(r.nodes, r.tag) for r in users] == [((1, 3), "other_long")]
    counts = stats.tag_counts
    for tag, c in counts.items():
        assert c["added"] + c["user"] == c["total"]
    assert counts["org_long"]["added"] == 1
    assert counts["other_long"]["user"] == 1


def test_file_outputs_and_stats(tmp_path):
    src = tmp_path / "model.mps"
    src.write_text(write_mps(KNAPSACK6))
    out_model = tmp_path / "aug.mps"
    out_cuts = tmp_path / "pool.cuts"
    stats = run_pipeline(src, out_model=out_model, out_cuts=out_cuts)
    aug = parse_mps_file(out_model)
    assert aug.num_rows == 2
    cols, vals = aug.row(1)
    assert cols.tolist() == [2, 3] and vals.tolist() == [1.0, 1.0]
    assert aug.rhs[1] == 1.0
    assert out_cuts.read_text() == "other_long 2 4\n"
    assert isinstance(stats, RunStats)
    assert json.loads(stats.to_json())["threads"] == 1


def test_outputs_identical_across_runs_and_thread_counts(tmp_path):
    rng = np.random.default_rng(61)
    model = random_binary_model(rng, max_binaries=10, max_rows=8)
    src = tmp_path / "rand.mps"
    src.write_text(write_mps(model))
    outputs = []
    for attempt, k in enumerate([1, 1, 2, 4, 8]):
        out_model = tmp_path / f"m{attempt}.mps"
        out_cuts = tmp_path / f"c{attempt}.cuts"
        run_pipeline(src, k=k, seed=42, out_model=out_model,
                     out_cuts=out_cuts)
        outputs.append((out_model.read_text(), out_cuts.read_text()))
    assert all(o == outputs[0] for o in outputs[1:])


def test_knapsack_size_limit_flag():
    _, pool, _, stats = run_pipeline_model(
        KNAPSACK6, limits=Limits(max_knapsack_vars=3)
    )
    assert stats.flags["knapsack_size_skipped"]
    assert pool.records == []


def test_graph_cap_and_sampling_flags():
    model = make_model(
        5,
        [
            {j: 1.0 for j in range(5)},  # packing row, 5 literals
            {0: 3.0, 1: 3.0, 2: 3.0},  # conflicting knapsack
        ],
        ["L", "L"],
        [1.0, 5.0],
        binary=range(5),
    )
    _, _, _, stats = run_pipeline_model(
        model,
        limits=Limits(max_clique_sample=2, max_graph_nnz=1),
    )
    assert stats.flags["clique_downsampled"]
    assert stats.flags["graph_nnz_capped"]
    assert stats.pairs_expanded <= 1


def test_pairs_expanded_leaves_out_trivial_edges():
    # one packing clique over 3 of 6 binaries: C(3, 2) pairs, and none for
    # the 6 variable/complement edges the graph gets anyway
    model = make_model(6, [{0: 1.0, 2: 1.0, 4: 1.0}], ["L"], [1.0],
                       binary=range(6))
    _, _, _, stats = run_pipeline_model(model, limits=Limits(max_graph_nnz=3))
    assert stats.pairs_expanded == 3
    assert not stats.flags["graph_nnz_capped"]


def test_extension_budget_flag():
    model = make_model(
        8,
        [{j: 1.0 for j in range(t, t + 3)} for t in range(5)],
        ["L"] * 5,
        [1.0] * 5,
        binary=range(8),
    )
    _, pool, _, stats = run_pipeline_model(
        model, limits=Limits(per_thread_ext_nnz=1)
    )
    assert stats.flags["extension_budget_hit"]
    # outputs remain structurally valid
    assert all(len(r.nodes) >= 2 for r in pool.records)


def test_binding_extension_budget_keeps_every_packing_row():
    # detect removes the five set-packing rows, and only their osp_long
    # cliques replace them: a base past the budget stop must still come back
    model = make_model(
        8,
        [{j: 1.0 for j in range(t, t + 3)} for t in range(5)],
        ["L"] * 5,
        [1.0] * 5,
        binary=range(8),
    )
    for k in (1, 2):
        for budget in (1, 4, 1_250_000):
            _, _, plan, stats = run_pipeline_model(
                model, limits=Limits(per_thread_ext_nnz=budget), k=k
            )
            assert stats.rows_removed == 5
            assert len(plan.replacements) == stats.rows_removed
        assert stats.flags["extension_budget_hit"] is False


def test_extended_cliques_go_to_their_base_source_pools():
    model = make_model(
        9,
        [
            {0: 1.0, 1: 1.0},  # original set packing
            {2: 1.0, 3: -1.0},  # inferred set packing: x2 + (1 - x3) <= 1
            {4: 2.0, 5: 3.0, 6: 4.0},  # conflicting knapsack
            {0: 2.0, 1: 2.0, 7: 3.0},  # x7 conflicts with x0 and x1
            {0: 2.0, 1: 2.0, 8: 3.0},  # x8 conflicts with x0 and x1
        ],
        ["L"] * 5,
        [1.0, 0.0, 5.0, 4.0, 4.0],
        binary=range(9),
    )
    prefix = {SRC_OSP: "osp", SRC_ISP: "isp", SRC_KNAPSACK_ORG: "org"}
    for k in (1, 2):
        _, _, plan, stats = run_pipeline_model(model, k=k)
        routed = [(q, "osp_long") for q in plan.replacements]
        routed += plan.as_constraints + plan.as_user_cuts
        extended = [(q, tag) for q, tag in routed if q.source in prefix]
        assert {tag for _, tag in extended} >= {"osp_long", "osp_other",
                                                "isp_long", "org_long"}
        for q, tag in extended:
            assert tag.startswith(prefix[q.source] + "_"), (q, tag)
        assert not stats.flags["extension_budget_hit"]


def test_merge_skip_flag():
    model = make_model(
        6,
        [{0: 1.0, 1: 1.0}, {2: 1.0, 3: 1.0}, {4: 1.0, 5: 1.0}],
        ["L"] * 3,
        [1.0] * 3,
        binary=range(6),
    )
    _, _, _, stats = run_pipeline_model(
        model, limits=Limits(max_merge_cliques=1)
    )
    assert stats.flags["merge_skipped"]


def test_time_limit_degrades_to_passthrough(tmp_path):
    base, pool, plan, stats = run_pipeline_model(
        KNAPSACK6, limits=Limits(time_limit_s=1e-9)
    )
    assert stats.flags["time_limit_hit"]
    assert plan is None
    assert base.signature() == KNAPSACK6.signature()
    # emitted files still parse
    from cgcuts.model_io import export_cut_pool, write_augmented_mps

    text = write_augmented_mps(base, pool)
    assert parse_mps(text).signature() == KNAPSACK6.signature()
    assert export_cut_pool(pool) == "" or export_cut_pool(pool).endswith("\n")


def test_cli_presolve_round_trip(tmp_path):
    src = tmp_path / "in.mps"
    src.write_text(write_mps(KNAPSACK6))
    out_model = tmp_path / "out.mps"
    out_cuts = tmp_path / "out.cuts"
    stats_json = tmp_path / "stats.json"
    rc = main([
        "presolve", str(src),
        "--out-model", str(out_model),
        "--out-cuts", str(out_cuts),
        "--stats-json", str(stats_json),
    ])
    assert rc == 0
    assert parse_mps_file(out_model).num_rows == 2
    stats = json.loads(stats_json.read_text())
    assert stats["threads"] == 1
    assert {"parse", "detect", "emit"} <= set(stats["stage_seconds"])


def test_cli_reports_infeasibility(tmp_path):
    bad = make_model(2, [{0: 1.0, 1: 1.0}], ["L"], [-1.0], binary=[0, 1])
    src = tmp_path / "bad.mps"
    src.write_text(write_mps(bad))
    rc = main(["presolve", str(src),
               "--out-model", str(tmp_path / "o.mps"),
               "--out-cuts", str(tmp_path / "o.cuts")])
    assert rc == 2


def test_cli_time_limit_flag_reaches_limits(tmp_path):
    src = tmp_path / "in.mps"
    src.write_text(write_mps(PACKING))
    stats_json = tmp_path / "stats.json"
    rc = main([
        "presolve", str(src),
        "--out-model", str(tmp_path / "o.mps"),
        "--out-cuts", str(tmp_path / "o.cuts"),
        "--stats-json", str(stats_json),
        "--time-limit", "1e-9",
    ])
    assert rc == 0
    assert json.loads(stats_json.read_text())["flags"]["time_limit_hit"]


def assert_cli_rejects(tmp_path, capsys, extra, message):
    """`presolve` with `extra` exits with a usage error before it reads the
    model: the model path does not exist, so reading it would raise."""
    with pytest.raises(SystemExit) as exc:
        main(["presolve", str(tmp_path / "missing.mps"), *extra])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_rejects_zero_threads(tmp_path, capsys):
    assert_cli_rejects(tmp_path, capsys, ["--threads", "0"],
                       "--threads must be at least 1")


def test_cli_rejects_negative_time_limit(tmp_path, capsys):
    assert_cli_rejects(tmp_path, capsys, ["--time-limit", "-1"],
                       "time_limit_s must be strictly positive")


def test_cli_rejects_unknown_limits_key(tmp_path, capsys):
    path = tmp_path / "limits.json"
    path.write_text(json.dumps({"max_knapsack_vars": 7, "no_such_limit": 1}))
    assert_cli_rejects(tmp_path, capsys, ["--limits", str(path)],
                       "no_such_limit")


@pytest.mark.parametrize("limits, extra, message", [
    ({"max_clique_sample": 2.5}, [], "max_clique_sample must be an integer"),
    ({"max_graph_nnz": math.nan}, [], "max_graph_nnz must be an integer"),
    ({"per_thread_ext_nnz": True}, [], "per_thread_ext_nnz must be an integer"),
    ({"time_limit_s": math.nan}, [], "time_limit_s must be strictly positive"),
    ({}, ["--time-limit", "nan"], "time_limit_s must be strictly positive"),
], ids=["fractional-count", "nan-count", "bool-count", "nan-seconds",
        "nan-time-limit-flag"])
def test_cli_rejects_fractional_and_nan_limits(tmp_path, capsys, limits, extra,
                                               message):
    # A fractional sample size reached `Generator.choice` as a TypeError, and
    # NaN passed `value <= 0`, turning the pair cap or the time limit off.
    path = tmp_path / "limits.json"
    path.write_text(json.dumps(limits))
    assert_cli_rejects(tmp_path, capsys, ["--limits", str(path), *extra],
                       f"invalid limits: limit {message}")


def test_limits_accept_integer_counts_and_real_seconds():
    limits = Limits(max_graph_nnz=np.int64(9), time_limit_s=2)
    assert (limits.max_graph_nnz, limits.time_limit_s) == (9, 2)
    with pytest.raises(TypeError):
        Limits(max_knapsack_vars=7.0)


def test_serial_presolve_loads_no_pool_or_bench_module(tmp_path):
    # A k = 1 run starts no process pool and runs no benchmark, so a fresh
    # interpreter need not import either.
    src = tmp_path / "in.mps"
    src.write_text(write_mps(KNAPSACK6))
    code = (
        "import sys\n"
        "from cgcuts import cli\n"
        f"assert cli.main(['presolve', {str(src)!r}]) == 0\n"
        "print(sorted(set(sys.argv[1:]) & set(sys.modules)))\n"
    )
    root = os.path.dirname(os.path.dirname(cgcuts.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, "multiprocessing", "concurrent.futures",
         "cgcuts.bench"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_cli_bench_writes_csv(tmp_path):
    csv_path = tmp_path / "bench.csv"
    rc = main([
        "bench", "--n-b", "40", "--cliques", "30", "--prob", "0.1",
        "--thread-counts", "1", "--reps", "1",
        "--csv", str(csv_path),
    ])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "k,stage,shifted_geomean_s,speedup"
    assert len(lines) > 1


def test_cli_rejects_bad_mps_in_one_line(tmp_path, capsys):
    src = tmp_path / "bad.mps"
    src.write_text("NAME bad\nROWS\n N  obj\n L  c1\nCOLUMNS\n    x1  c1  abc\nENDATA\n")
    out_model, out_cuts = tmp_path / "o.mps", tmp_path / "o.cuts"
    rc = main(["presolve", str(src),
               "--out-model", str(out_model), "--out-cuts", str(out_cuts)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"{src}: line 6: bad numeric field 'abc'\n"
    assert not out_model.exists() and not out_cuts.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8"])
def test_cli_rejects_unreadable_input_in_one_line(tmp_path, capsys, kind):
    src = {"missing": tmp_path / "missing.mps", "directory": tmp_path,
           "not UTF-8": tmp_path / "bad.mps"}[kind]
    if kind == "not UTF-8":
        src.write_bytes(b"NAME bad\nROWS\n N  obj\xe9\n")
    out_model, out_cuts = tmp_path / "o.mps", tmp_path / "o.cuts"
    rc = main(["presolve", str(src),
               "--out-model", str(out_model), "--out-cuts", str(out_cuts)])
    assert rc == 2
    message = {"missing": "cannot read the file: No such file or directory",
               "directory": "cannot read the file: Is a directory",
               "not UTF-8": "line 3: byte 0xe9 is not UTF-8"}[kind]
    assert capsys.readouterr().err == f"{src}: {message}\n"
    assert not out_model.exists() and not out_cuts.exists()


def test_cli_rejects_crossing_bounds_in_one_line(tmp_path, capsys):
    src = tmp_path / "cross.mps"
    src.write_text("NAME cross\nROWS\n N  obj\n L  c1\nCOLUMNS\n    x1  c1  1\n"
                   "BOUNDS\n LO BND  x1  5\n UP BND  x1  3\nENDATA\n")
    out_model, out_cuts = tmp_path / "o.mps", tmp_path / "o.cuts"
    rc = main(["presolve", str(src),
               "--out-model", str(out_model), "--out-cuts", str(out_cuts)])
    assert rc == 2
    assert capsys.readouterr().err == f"{src}: line 9: column x1 has lb > ub\n"
    assert not out_model.exists() and not out_cuts.exists()


def test_cli_does_not_blame_the_input_for_a_writer_error(tmp_path, monkeypatch):
    src = tmp_path / "ok.mps"
    src.write_text(write_mps(PACKING))

    def refuse(model, pool):
        raise MpsError("clique references non-binary column 'x0'")

    monkeypatch.setattr(model_io, "write_augmented_mps", refuse)
    with pytest.raises(MpsError) as exc:
        main(["presolve", str(src), "--out-model", str(tmp_path / "o.mps"),
              "--out-cuts", str(tmp_path / "o.cuts")])
    assert exc.value.path is None


def test_parse_mps_file_names_the_file_of_an_error(tmp_path):
    src = tmp_path / "bad.mps"
    src.write_text("NAME bad\nROWS\n N  obj\n X  c1\nENDATA\n")
    with pytest.raises(MpsError) as exc:
        parse_mps_file(src)
    assert (exc.value.path, exc.value.line, str(exc.value)) == (
        src, 4, "line 4: unknown row type 'X'")
    with pytest.raises(MpsError) as exc:
        parse_mps(src.read_text())
    assert exc.value.path is None


@pytest.mark.parametrize("counts", ["0", "1,-2", "1,x", "1.5", ""])
def test_cli_bench_rejects_bad_thread_counts(capsys, counts):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n-b", "40", "--cliques", "30", "--thread-counts", counts])
    assert exc.value.code == 2
    assert "--thread-counts must be positive integers" in capsys.readouterr().err


def test_cli_threads_belongs_to_presolve_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
