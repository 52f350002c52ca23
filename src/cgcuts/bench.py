"""Synthetic benchmark on the Bernoulli clique model.

Each of m cliques draws every positive literal independently with
probability p; cliques with fewer than two members are dropped. The graph
build, extension and merge stages are timed at each thread count and
aggregated with the shifted geometric mean.
"""
from __future__ import annotations

import csv
import io
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cliques import CliqueTable
from .extend import extend_parallel
from .graph import build_graph_parallel
from .merge import removal_flags
from .parallel import clamp_threads
from .pipeline import Limits

STAGES = ("graph_build", "extension", "merge", "total")


def shifted_geomean(times, shift: float = 1.0) -> float:
    """exp(mean(log(t + shift))) - shift."""
    times = list(times)
    if not times:
        raise ValueError("shifted_geomean of an empty list")
    if any(t < 0 for t in times) or shift < 0:
        raise ValueError("times and shift must be non-negative")
    return math.exp(sum(math.log(t + shift) for t in times) / len(times)) - shift


@dataclass
class BenchConfig:
    n_b: int
    num_cliques: int
    membership_prob: float
    threads: tuple[int, ...] = (1, 2, 4, 8)
    repetitions: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.membership_prob < 1.0:
            raise ValueError("membership_prob must lie in (0, 1)")
        if min(self.n_b, self.num_cliques) < 0:
            raise ValueError("n_b and num_cliques must be non-negative")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")


@dataclass
class BenchReport:
    rows: list[dict] = field(default_factory=list)  # k, stage, sgm, speedup
    dropped_cliques: int = 0
    capped_threads: bool = False
    notes: list[str] = field(default_factory=list)

    def speedup(self, k: int, stage: str = "total") -> float | None:
        for row in self.rows:
            if row["k"] == k and row["stage"] == stage:
                return row["speedup"]
        return None

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "stage", "shifted_geomean_s", "speedup"])
        for row in self.rows:
            writer.writerow(
                [row["k"], row["stage"], f"{row['sgm']:.6f}", f"{row['speedup']:.3f}"]
            )
        return buf.getvalue()


#: Cells of the membership matrix drawn at once (16 MB of float64).
_SLICE_CELLS = 1 << 21


def generate_cliques(n_b: int, num_cliques: int, p: float, seed: int):
    """Random cliques over the positive literals, as a plain `CliqueTable`
    of tag 0; returns (table, dropped). The membership matrix is drawn a
    slice of rows at a time from one generator, whose stream, and so the
    cliques, do not depend on the slice size."""
    rng = np.random.default_rng(seed)
    rows = max(_SLICE_CELLS // max(n_b, 1), 1)
    lens, nodes = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, num_cliques, rows):
        member = rng.random((min(rows, num_cliques - lo), n_b)) < p
        member = member[member.sum(axis=1) >= 2]
        lens.append(member.sum(axis=1))
        nodes.append(np.nonzero(member)[1])
    lens = np.concatenate(lens)
    return CliqueTable.plain(lens, np.concatenate(nodes), 0), num_cliques - len(lens)


def _sorted_cliques(table: CliqueTable):
    """The cliques' members in sorted order: equal for equal multisets."""
    lens, nodes = table.take(table.order()).flat()
    return lens.tolist(), nodes.tolist()


def _run_stages(cliques: CliqueTable, n_b: int, k: int, seed: int, limits: Limits):
    out = {}
    times = {}
    t0 = time.perf_counter()
    g = build_graph_parallel(
        cliques,
        n_b,
        k,
        seed,
        max_clique_sample=limits.max_clique_sample,
        max_pairs=limits.max_graph_nnz,
    )
    times["graph_build"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    longs, others = extend_parallel(
        cliques, g, k, seed,
        budget=limits.per_thread_ext_nnz,
    )
    times["extension"] = time.perf_counter() - t1
    t2 = time.perf_counter()
    pool = CliqueTable.concat([longs, others])
    pool = pool.take(pool.order())
    flags = removal_flags(pool, k)
    times["merge"] = time.perf_counter() - t2
    times["total"] = time.perf_counter() - t0
    out["graph"] = g
    out["longs"] = _sorted_cliques(longs)
    out["others"] = _sorted_cliques(others)
    out["kept"] = _sorted_cliques(pool.take(np.flatnonzero(~flags)))
    return times, out


def run_bench(cfg: BenchConfig, limits: Limits | None = None) -> BenchReport:
    """Time the clique stages at each thread count; assert that every k
    produces the same outputs; report shifted-geomean times and speedups
    versus k=1."""
    limits = limits or Limits()
    report = BenchReport()
    threads = []
    for k in cfg.threads:
        if clamp_threads(k) != k:
            report.capped_threads = True
            k = clamp_threads(k)
        if k not in threads:
            threads.append(k)
    if report.capped_threads:
        report.notes.append(
            f"requested thread counts were capped at {max(threads)}, "
            "the blocks this host can run at once"
        )
    if 1 not in threads:
        threads.insert(0, 1)

    cliques, dropped = generate_cliques(
        cfg.n_b, cfg.num_cliques, cfg.membership_prob, cfg.seed
    )
    report.dropped_cliques = dropped
    if dropped:
        report.notes.append(
            f"{dropped}/{cfg.num_cliques} generated cliques had <2 members "
            "and were dropped"
        )
    if not len(cliques):
        report.notes.append("no usable cliques generated; nothing to time")
        return report

    baseline_out = None
    sgm_by_k: dict[int, dict[str, float]] = {}
    for k in threads:
        stage_times: dict[str, list[float]] = {s: [] for s in STAGES}
        for rep in range(cfg.repetitions):
            times, out = _run_stages(cliques, cfg.n_b, k, cfg.seed, limits)
            for s in STAGES:
                stage_times[s].append(times[s])
            if baseline_out is None:
                baseline_out = out
            else:
                if out["graph"] != baseline_out["graph"]:
                    raise AssertionError(f"graph differs between k=1 and k={k}")
                for key in ("longs", "others", "kept"):
                    if out[key] != baseline_out[key]:
                        raise AssertionError(
                            f"{key} differ between k=1 and k={k}"
                        )
        sgm_by_k[k] = {s: shifted_geomean(stage_times[s]) for s in STAGES}

    base = sgm_by_k[threads[0]]
    for k in threads:
        for s in STAGES:
            sgm = sgm_by_k[k][s]
            speedup = base[s] / sgm if sgm > 0 else float("inf")
            report.rows.append({"k": k, "stage": s, "sgm": sgm, "speedup": speedup})
    return report


def warn_if_slow(report: BenchReport, k: int = 4, threshold: float = 1.5):
    """Informational check of the k-fold speedup; warns instead of failing."""
    speedup = report.speedup(k)
    if speedup is None:
        warnings.warn(f"no k={k} measurement available (capped host?)")
        return
    if speedup < threshold:
        warnings.warn(
            f"total speedup at k={k} is {speedup:.2f}x (< {threshold}x); "
            "host may be loaded or have too few cores"
        )
