"""Whole-run benchmark of `cgcuts presolve` on generated MIPs.

Run from the repository root:

    python3 perfbench/run.py --workload mixed-short --seed 1 --seconds 30 --trace 0

The model is generated from --seed; the program under test receives only the
.mps file. Each operation is one `presolve` process (`python -m cgcuts.cli
presolve model.mps --threads k`); it fails on a nonzero exit, on
`time_limit_hit` in its --stats-json, on output that differs by a byte from
the first run's, or on an emitted row, bound or cut that a planted feasible
point violates.

--trace 0 times untraced k=1/k=2 pairs and `import cgcuts` in a fresh
interpreter for --seconds and reports the end-to-end metrics; their times
are scaled to a reference CPU speed, without the time the host stole from
the CPU (see Runner._run). --trace 1
alternates untraced and traced runs at k=1 and k=2 for --seconds and reports
the per-layer metrics (see spans.py). Medians over the runs in the window
are reported. The last line of stdout is the result JSON; the full record of
the run is written once, at the end, to .perfbench_work/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import check
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
INVOKE_TIMEOUT_S = 60
#: The speed probe: a loop of PROBE_LOOPS turns, timed every PROBE_PERIOD_S
#: while a timed process runs (about 1 % of one CPU).
PROBE_LOOPS = 10_000
PROBE_PERIOD_S = 0.05
#: The probe time that end-to-end times are scaled to: about the median
#: probe on the 2-core host where the benchmark was written.
REFERENCE_PROBE_S = 0.0005
SETUP_CODE = "import cgcuts"

END_TO_END_UNITS = {
    "presolve_k1_s": "s", "presolve_k2_s": "s", "speedup_k2": "ratio",
    "peak_rss_k1_mb": "MB", "peak_rss_k2_mb": "MB", "setup_s": "s",
}

# --- per-layer metrics -------------------------------------------------

#: metric -> span name; the value is the summed duration of those spans.
STAGE_TIMES = {
    "model_io.parse_s": "model_io.parse",
    "model_io.emit_model_s": "model_io.emit_model",
    "model_io.emit_cuts_s": "model_io.emit_cuts",
    "presolve.detect_s": "presolve.detect",
    "cliques.detect_s": "cliques.detect",
    "graph.build_s": "graph.build",
    "extend.s": "extend",
    "merge.s": "merge",
    "triage.s": "triage",
}
LAYERS = ("interpreter", "cli", "pipeline", "model_io", "presolve", "cliques",
          "graph", "extend", "merge", "triage", "parallel")
MAP_STAGES = ("cliques", "graph", "extend", "merge")
#: metric -> (span name, count key); summed over the spans of that name.
COUNTS = {
    "model_io.bytes_in": ("model_io.parse", "bytes_in"),
    "model_io.nnz_in": ("model_io.parse", "nnz"),
    "model_io.bytes_out_model": ("model_io.emit_model", "bytes_out"),
    "model_io.bytes_out_cuts": ("model_io.emit_cuts", "bytes_out"),
    "presolve.osp": ("presolve.detect", "osp"),
    "presolve.isp": ("presolve.detect", "isp"),
    "presolve.ck": ("presolve.detect", "ck"),
    "presolve.fixings": ("presolve.detect", "fixings"),
    "presolve.removed": ("presolve.detect", "removed"),
    "cliques.org": ("cliques.detect", "org"),
    "cliques.other": ("cliques.detect", "other"),
    "graph.pairs_expanded": ("graph.build", "pairs_expanded"),
    "graph.edges": ("graph.build", "edges"),
    "extend.touches": ("extend", "touches"),
    "extend.cliques_in": ("extend", "cliques_in"),
    "extend.cliques_out": ("extend", "cliques_out"),
    "merge.cliques_in": ("merge", "cliques_in"),
    "merge.removed": ("merge", "removed"),
    "merge.subset_work": ("merge", "subset_work"),
    "triage.rows_added": ("triage", "rows_added"),
    "triage.user_cuts": ("triage", "user_cuts"),
}


#: Counts that do not depend on k, reported once, from the k=1 runs.
K_FREE = set(COUNTS) | {"graph.dedup_ratio"}


def per_k_units(k: int) -> dict[str, str]:
    units = {name: "s" for name in STAGE_TIMES}
    units["graph.serial_s"] = "s"
    units.update({f"self.{layer}_s": "s" for layer in LAYERS})
    units.update({f"parallel.{st}.map_s": "s" for st in MAP_STAGES})
    units.update({f"{span}.rss_growth_mb": "MB" for span in STAGE_TIMES.values()})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.unattributed_s": "s", "peak_rss_mb": "MB"})
    if k > 1:
        units.update({f"parallel.{st}.blocks": "count" for st in MAP_STAGES})
        units.update({f"parallel.{st}.dispatch_bytes": "bytes"
                      for st in MAP_STAGES})
        units.update({"parallel.worker_peak_rss_mb": "MB",
                      "trace.sizing_s": "s"})
    return units


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric reported with --trace 1, with its unit."""
    units = {name: "bytes" if "bytes" in name else "count" for name in COUNTS}
    units["graph.dedup_ratio"] = "ratio"
    for k in (1, 2):
        units.update({f"k{k}.{n}": u for n, u in per_k_units(k).items()})
    return units


def layer_metrics(side: dict, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced run; a span that was not recorded
    leaves its metrics out (absent, not zero)."""
    spans = side["spans"]
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += dur[s["id"]]
    self_s = {i: d - covered[i] for i, d in dur.items()}
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        layer_self[s["layer"]] += self_s[s["id"]]
    roots = sum(dur[s["id"]] for s in spans if s["parent"] is None)
    layer_self["interpreter"] += wall - roots

    out: dict[str, float] = {"trace.wall_s": wall,
                             "trace.unattributed_s": wall - roots,
                             "peak_rss_mb": side["peak_rss_mb"]}
    for layer in LAYERS:
        if layer in layer_self:
            out[f"self.{layer}_s"] = layer_self[layer]
    for metric, name in STAGE_TIMES.items():
        if by_name[name]:
            out[metric] = sum(dur[s["id"]] for s in by_name[name])
            out[f"{name}.rss_growth_mb"] = sum(s["rss1"] - s["rss0"]
                                               for s in by_name[name])
    if by_name["graph.build"]:
        out["graph.serial_s"] = sum(self_s[s["id"]] for s in by_name["graph.build"])
    for st in MAP_STAGES:
        maps = by_name[f"parallel.{st}.map"]
        if maps:
            out[f"parallel.{st}.map_s"] = sum(dur[s["id"]] for s in maps)
            out[f"parallel.{st}.blocks"] = sum(s["counts"]["blocks"] for s in maps)
            sizes = [s["counts"]["dispatch_bytes"] for s in maps
                     if "dispatch_bytes" in s["counts"]]
            if sizes:
                out[f"parallel.{st}.dispatch_bytes"] = sum(sizes)
    sizing = [dur[s["id"]] for s in spans if s["layer"] == "trace"]
    if sizing:
        out["trace.sizing_s"] = sum(sizing)
    if side["worker_peak_rss_mb"]:
        out["parallel.worker_peak_rss_mb"] = max(side["worker_peak_rss_mb"])
    for metric, (name, key) in COUNTS.items():
        vals = [s["counts"][key] for s in by_name[name] if key in s["counts"]]
        if vals:
            out[metric] = sum(vals)
    if out.get("graph.pairs_expanded"):
        out["graph.dedup_ratio"] = out["graph.edges"] / out["graph.pairs_expanded"]
    return out


# --- running the program -------------------------------------------------


def _probe_s(loops: int) -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i
    return time.perf_counter() - t0


def quietest_cpu() -> int | None:
    """The CPU, of those this process may use, that runs a fixed loop
    fastest right now; None when there is only one.

    On a shared host one core can be slowed by a neighbour while the other
    runs at full speed. A single-threaded process (k=1, setup) is pinned to
    the faster one, so that its time is the program's and not the
    neighbour's.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        return None
    times = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times[cpu] = _probe_s(300_000)
    finally:
        os.sched_setaffinity(0, cpus)
    return min(times, key=times.get)


def stolen_s() -> dict[int, float]:
    """Seconds each CPU has been held back by the hypervisor since boot:
    the `steal` column of /proc/stat."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith("cpu") and line[3].isdigit():
                fields = line.split()
                out[int(fields[0][3:])] = int(fields[8]) / tick
    return out


def host_slowness(samples: list[float]) -> float:
    """Mean probe time of one process's run, without the slowest tenth of
    the samples (a probe that an interrupt or the program preempted)."""
    kept = sorted(samples)[:len(samples) - len(samples) // 10]
    return statistics.fmean(kept)


class Runner:
    """Runs and checks presolve processes on one generated model."""

    def __init__(self, work: str, model: gen.Model):
        self.work = work
        self.model = model
        self.mps = os.path.join(work, "model.mps")
        with open(self.mps, "w") as fh:
            fh.write(model.mps)
        src = os.path.abspath("src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.input_rows = set(model.row_names)
        self.reference: str | None = None
        self.reports: dict[str, dict] = {}  # output digest -> checker report
        self.records: list[dict] = []

    def _run(self, cmd: list[str], cpu: int | None = None) -> dict:
        """Run cmd, pinned to `cpu` if one is given, and measure how much
        the host held back the CPUs it runs on.

        A shared host does that in two ways, both changing within seconds as
        neighbours come and go. It takes a vCPU away for a while, which the
        guest counts as steal time. And it runs a vCPU slower, which only a
        probe shows: every PROBE_PERIOD_S this process times PROBE_LOOPS
        turns of a loop on the program's CPU (on each CPU in turn when it
        is not pinned). `norm_s` is the wall time less the steal time (the
        larger of the CPUs' when not pinned: the program waits on whichever
        was taken), scaled by REFERENCE_PROBE_S / the mean probe time.
        """
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        cpus = os.sched_getaffinity(0)
        order = sorted(cpus) if cpu is None else [cpu]
        probes: list[float] = []
        err_path = os.path.join(self.work, "stderr")
        with open(err_path, "wb") as err_fh:
            steal0 = stolen_s()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err_fh, start_new_session=True,
                                    preexec_fn=pin)
            try:
                while proc.poll() is None:
                    if time.perf_counter() - t0 > INVOKE_TIMEOUT_S:
                        os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
                        break
                    os.sched_setaffinity(0, {order[len(probes) % len(order)]})
                    probes.append(_probe_s(PROBE_LOOPS))
                    time.sleep(PROBE_PERIOD_S)
            finally:
                os.sched_setaffinity(0, cpus)
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            wall = time.perf_counter() - t0
            steal1 = stolen_s()
        with open(err_path, "rb") as fh:
            err = fh.read()[-2000:].decode(errors="replace")
        probe = host_slowness(probes) if probes else REFERENCE_PROBE_S
        stolen = max(steal1[c] - steal0[c] for c in order)
        return {"wall_s": wall, "stolen_s": stolen, "probe_s": probe,
                "probes": len(probes),
                "norm_s": (wall - stolen) * REFERENCE_PROBE_S / probe,
                "exit": proc.returncode, "stderr": err}

    def presolve(self, k: int, traced: bool) -> dict:
        base = os.path.join(self.work, f"run{len(self.records)}")
        side = base + ".side.json"
        paths = [base + ".aug.mps", base + ".cuts", base + ".stats.json"]
        script = "traced_run.py" if traced else "untraced_run.py"
        cmd = [sys.executable, os.path.join(HERE, script), side, "presolve",
               self.mps, "--threads", str(k), "--out-model", paths[0],
               "--out-cuts", paths[1], "--stats-json", paths[2]]
        cpu = quietest_cpu() if k == 1 else None
        rec = {"k": k, "traced": traced, "cpu": cpu, **self._run(cmd, cpu)}
        err = rec.pop("stderr")
        if os.path.exists(side):
            with open(side) as fh:
                rec["side"] = json.load(fh)
        rec["failure"] = self._failure(rec["exit"], paths, rec)
        if rec["failure"] and err:
            rec["stderr"] = err
        for p in paths + [side]:
            if os.path.exists(p):
                os.remove(p)
        self.records.append(rec)
        return rec

    def _failure(self, code: int, paths: list[str], rec: dict) -> str | None:
        if code != 0:
            return f"exit status {code}"
        try:
            with open(paths[2]) as fh:
                if json.load(fh)["flags"]["time_limit_hit"]:
                    return "time_limit_hit"
            with open(paths[0], "rb") as fh:
                model_bytes = fh.read()
            with open(paths[1], "rb") as fh:
                cuts_bytes = fh.read()
        except (OSError, ValueError, KeyError) as exc:
            return f"outputs unreadable: {exc!r}"
        digest = hashlib.sha256(model_bytes + b"\0" + cuts_bytes).hexdigest()
        rec["digest"] = digest
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            return "output differs from the first run's"
        if digest not in self.reports:
            self.reports[digest] = check.check_outputs(
                model_bytes.decode(), cuts_bytes.decode(), self.model.points,
                self.model.col_names, self.input_rows)
        bad = check.violations(self.reports[digest])
        return f"{bad} violations at planted points" if bad else None

    def setup_sample(self) -> dict:
        rec = self._run([sys.executable, "-c", SETUP_CODE], quietest_cpu())
        if rec["exit"] != 0:
            raise RuntimeError(f"`{SETUP_CODE}` failed: {rec['stderr']}")
        return rec


def timed_loop(seconds: float, step) -> int:
    """Call step(i) until the next call would end past `seconds`; at
    least once."""
    t0 = time.perf_counter()
    i = 0
    while True:
        step(i)
        i += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / i > seconds:
            return i


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # Warm-up, untimed: traced so that the exec mode the CLI resolves by
    # default is recorded from the arguments map_blocks receives.
    runner.presolve(1, traced=True)
    setup: list[dict] = []
    timed: dict[int, list[dict]] = {1: [], 2: []}

    def step(i):
        for k in ((1, 2) if i % 2 == 0 else (2, 1)):
            timed[k].append(runner.presolve(k, traced=False))
        setup.extend(runner.setup_sample() for _ in range(3))

    timed_loop(seconds, step)
    # Scaled times (Runner._run): a shared host steals and slows its vCPUs
    # in spells of seconds to minutes, and wall times follow those spells.
    norm = {k: statistics.median(r["norm_s"] for r in recs)
            for k, recs in timed.items()}
    ratios = [a["norm_s"] / b["norm_s"] for a, b in zip(timed[1], timed[2])]
    metrics = {"presolve_k1_s": norm[1], "presolve_k2_s": norm[2],
               "speedup_k2": statistics.median(ratios),
               "setup_s": statistics.median(r["norm_s"] for r in setup)}
    workers = []
    for k, recs in timed.items():
        peaks = [r["side"]["peak_rss_mb"] for r in recs if "side" in r]
        if peaks:
            metrics[f"peak_rss_k{k}_mb"] = statistics.median(peaks)
        workers += [max(r["side"]["worker_peak_rss_mb"]) for r in recs
                    if r.get("side", {}).get("worker_peak_rss_mb")]
    detail = {"samples": {"pairs": len(timed[1]), "setup": len(setup)},
              "wall_s": {f"presolve_k{k}": statistics.median(r["wall_s"] for r in recs)
                         for k, recs in timed.items()},
              "setup": setup,
              "k2_worker_peak_rss_mb": statistics.median(workers) if workers else None}
    return ({n: {"value": v, "unit": END_TO_END_UNITS[n]}
             for n, v in metrics.items()}, detail)


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.presolve(1, traced=False)  # warm-up
    runs: dict[tuple[int, bool], list[dict]] = defaultdict(list)

    def step(i):
        for k in (1, 2):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                runs[k, traced].append(runner.presolve(k, traced))

    timed_loop(seconds, step)
    values: dict[str, list[float]] = defaultdict(list)
    summary = {}
    for k in (1, 2):
        untraced = statistics.median(r["wall_s"] for r in runs[k, False])
        per_run = [layer_metrics(r["side"], r["wall_s"])
                   for r in runs[k, True] if "side" in r]
        for m in per_run:
            m["trace.overhead_s"] = m["trace.wall_s"] - untraced
            for name, v in m.items():
                if name not in K_FREE:
                    values[f"k{k}.{name}"].append(v)
                elif k == 1:
                    values[name].append(v)
        layer_self = {layer: statistics.median(values[f"k{k}.self.{layer}_s"])
                      for layer in LAYERS if values[f"k{k}.self.{layer}_s"]}
        summary[k] = {
            "traced_runs": len(per_run),
            "untraced_wall_s": untraced,
            "largest_self": max(layer_self, key=layer_self.get, default=None),
            "self_sum_s": statistics.median(
                sum(m[f"self.{layer}_s"] for layer in LAYERS
                    if f"self.{layer}_s" in m) for m in per_run),
            "overhead_s": statistics.median(values[f"k{k}.trace.overhead_s"]),
        }
    units = per_layer_units()
    metrics = {n: {"value": statistics.median(values[n]), "unit": u}
               for n, u in units.items() if values[n]}
    detail = {"absent": [n for n in units if n not in metrics], "by_k": summary}
    return metrics, detail


def host_facts(runner: Runner) -> dict:
    modes = sorted({str(m) for r in runner.records if "side" in r
                    for m in r["side"].get("attrs", {}).get("exec_modes", {}).values()})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "exec_mode": modes or "unresolved",
        "note": ("wall-clock results cover k <= nproc only; in process mode "
                 "per-worker busy time is not measurable from outside the "
                 "package"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cgcuts", "__init__.py")):
        print("run from the repository root: src/cgcuts not found", file=sys.stderr)
        return 2

    work = os.path.join(
        WORK_ROOT, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work)
    t0 = time.perf_counter()
    model = gen.generate(args.workload, args.seed)
    runner = Runner(work, model)
    gen_s = time.perf_counter() - t0
    try:
        if args.trace:
            metrics, detail = per_layer(runner, args.seconds)
        else:
            metrics, detail = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work)
    failed = [r for r in runner.records if r["failure"]]
    report = next(iter(runner.reports.values()), {})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "generate_s": gen_s,
        "input": {"rows": len(model.row_names), "cols": len(model.col_names),
                  "nnz": model.nnz, "bytes": len(model.mps)},
        "output": {"digest": runner.reference, **report},
        "host": host_facts(runner),
        "detail": detail,
        "failures": [{k: r.get(k) for k in ("k", "traced", "failure", "stderr")}
                     for r in failed],
        "invocations": [{k: v for k, v in r.items() if k != "side"}
                        for r in runner.records],
        "metrics": metrics,
    }
    record_path = os.path.join(
        WORK_ROOT, f"last-{args.workload}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, default=int)

    print(f"workload {args.workload} seed {args.seed}: {record['input']['rows']} rows, "
          f"{record['input']['cols']} cols, input NNZ {model.nnz}")
    print(f"output {runner.reference}: {report.get('added_rows')} added rows, "
          f"{report.get('user_cuts')} user cuts")
    print(f"host {json.dumps(record['host'])}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, wall in detail.get("wall_s", {}).items():
        print(f"{name} unscaled wall time {wall:.6g} s")
    for k, facts in detail.get("by_k", {}).items():
        print(f"k={k}: largest self time in layer {facts['largest_self']}; "
              f"self times sum to {facts['self_sum_s']:.3f} s against "
              f"{facts['untraced_wall_s']:.3f} s untraced, tracing overhead "
              f"{facts['overhead_s']:.3f} s")
    for f in record["failures"]:
        print(f"FAILED k={f['k']} traced={f['traced']}: {f['failure']}")
    print(f"record written to {record_path}")
    result = {"correct": not failed, "attempted": len(runner.records),
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
