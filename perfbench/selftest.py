"""Self-test of the benchmark at small size; run from the repository root:

    python3 perfbench/selftest.py

For every shape it checks that the generator is deterministic and that its
planted points satisfy every row and bound of the model it wrote; then it
runs the model through `presolve` untraced and traced at k=1 and k=2, and
requires zero failed operations and every per-layer metric present. It also
checks that BENCHMARK.json names exactly the metrics run.py reports.
Exits nonzero on the first failure.
"""
import json
import os
import shutil
import sys

import check
import gen
import run

SCALE = 0.2


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def check_shape(name: str, work: str) -> None:
    model = gen.generate(name, 7, SCALE)
    if gen.generate(name, 7, SCALE).mps != model.mps:
        fail(f"{name}: generator is not deterministic")
    report = check.check_outputs(model.mps, "", model.points, model.col_names,
                                 set(model.row_names))
    if check.violations(report):
        fail(f"{name}: planted points violate the generated model: {report}")
    runner = run.Runner(work, model)
    for k in (1, 2):
        for traced in (False, True):
            rec = runner.presolve(k, traced)
            if rec["failure"]:
                fail(f"{name} k={k} traced={traced}: {rec['failure']} "
                     f"{rec.get('stderr', '')}")
            if traced:
                metrics = run.layer_metrics(rec["side"], rec["wall_s"])
                absent = [m for m in run.per_k_units(k) if m not in metrics
                          and m != "trace.overhead_s"]
                if absent:
                    fail(f"{name} k={k}: absent per-layer metrics {absent}")
    print(f"ok {name}: {len(model.row_names)} rows, "
          f"{len(runner.records)} presolve runs, output {runner.reference[:12]}")


def check_declared() -> None:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.per_layer_units():
        fail("BENCHMARK.json per_layer differs from run.per_layer_units()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(gen.SHAPES):
        fail("BENCHMARK.json workloads differ from gen.SHAPES")
    print("ok BENCHMARK.json matches the reported metrics")


def main() -> None:
    check_declared()
    work = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        for name in gen.SHAPES:
            check_shape(name, work)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    main()
