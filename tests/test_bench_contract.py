"""The contract between the package and the benchmark's tracer.

`perfbench/traced_run.py` wraps the stage entry points that `perfbench/spans.py`
names and reads counts from their arguments and results. When a name moves or
a count cannot be read, the traced run still exits with code 0, but a
per-layer metric silently goes missing from `run.layer_metrics`. This test
runs the tracer on every benchmark shape, at k = 1 and k = 2, and requires
every name wrapped, every count read and every per-layer metric present.
"""
import json
import os
import subprocess
import sys
import time

import pytest

import cgcuts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import gen  # noqa: E402
import run  # noqa: E402

SCALE = 0.2


#: An LP with no binaries: no cliques, so merge runs on an empty pool.
LP = "\n".join(["NAME", "ROWS", " N  OBJ", " L  C1", "COLUMNS", "    X1  OBJ  1  C1  1",
                 "    X2  C1  2", "RHS", "    RHS  C1  3", "ENDATA", ""])


def traced(tmp_path, text, k):
    """Run the tracer on the model `text` at `--threads k`; returns its
    side file and wall time after checking that it exited with code 0."""
    model = tmp_path / "model.mps"
    model.write_text(text)
    side_path = tmp_path / "side.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cgcuts.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.join(PERFBENCH, "traced_run.py"),
           str(side_path), "presolve", str(model), "--threads", str(k),
           "--out-model", str(tmp_path / "out.mps"),
           "--out-cuts", str(tmp_path / "out.cuts"),
           "--stats-json", str(tmp_path / "stats.json")]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    side = json.loads(side_path.read_text())
    assert side["exit_code"] == 0
    assert side["unwrapped"] == []
    return side, wall


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("shape", sorted(gen.SHAPES))
def test_traced_run_reports_every_layer_metric(tmp_path, shape, k):
    side, wall = traced(tmp_path, gen.generate(shape, 7, SCALE).mps, k)
    assert [s["name"] for s in side["spans"] if "counts_error" in s] == []
    metrics = run.layer_metrics(side, wall)
    expected = (set(run.per_k_units(k)) - {"trace.overhead_s"}
                | set(run.COUNTS) | {"graph.dedup_ratio"})
    assert sorted(expected - set(metrics)) == []


@pytest.mark.parametrize("k", [1, 2])
def test_traced_run_reads_every_count_on_an_empty_pool(tmp_path, k):
    side, _ = traced(tmp_path, LP, k)
    assert [s["name"] for s in side["spans"] if "counts_error" in s] == []
    assert "merge" in {s["name"] for s in side["spans"]}
