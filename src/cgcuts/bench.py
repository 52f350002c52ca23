"""Synthetic benchmark on the Bernoulli clique model.

Each of m cliques draws every positive literal independently with
probability p; cliques with fewer than two members are dropped. The
cliques are the rows of a set-packing MIP, and `run_pipeline_model` runs on
it at each thread count under the given limits. Its own graph build,
extension and merge times are aggregated with the shifted geometric mean.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cliques import CliqueTable
from .model_io import SENSE_LE, MipModel, export_cut_pool, write_augmented_mps
from .parallel import clamp_threads
from .pipeline import Limits, run_pipeline_model

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
        if min(self.threads, default=1) < 1:
            raise ValueError("thread counts must be at least 1")


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


def packing_model(cliques: CliqueTable, n_b: int) -> MipModel:
    """One row `sum x_j <= 1` per clique over n_b binary columns: column j
    is node j, as detection's binary columns are the sorted binaries."""
    lens, cols = cliques.flat()
    m = len(lens)
    return MipModel(
        [f"x{j}" for j in range(n_b)], [f"c{i}" for i in range(m)],
        np.concatenate([[0], np.cumsum(lens)]), cols, np.ones(len(cols)),
        [SENSE_LE] * m, np.ones(m), np.zeros(n_b), np.zeros(n_b), np.ones(n_b),
        set(range(n_b)),
    )


def run_bench(cfg: BenchConfig, limits: Limits | None = None) -> BenchReport:
    """Run `run_pipeline_model` on the set-packing MIP of the generated
    cliques at each thread count; report the shifted-geomean seconds of its
    graph build, extension and merge and their sum, `total` (which leaves
    out detect, clique detect, triage and the sort before merge), with
    speedups versus k=1. A stage that some run did not reach (the time
    limit stopped it) is not reported; every limit flag that fired is
    noted. Raises AssertionError when the augmented model or the cut pool
    differs between two k; runs that hit the time limit, whose outputs
    depend on the clock, are not compared.
    """
    limits = limits or Limits()
    report = BenchReport()
    threads = sorted({1, *map(clamp_threads, cfg.threads)})
    report.capped_threads = any(clamp_threads(k) != k for k in cfg.threads)
    if report.capped_threads:
        report.notes.append(
            f"requested thread counts were capped at {max(threads)}, "
            "the blocks this host can run at once"
        )

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

    model = packing_model(cliques, cfg.n_b)
    baseline = None  # (k, digests) of the first run within the time limit
    fired: dict[str, set[int]] = {}
    runs: dict[int, list[dict]] = {k: [] for k in threads}  # stage_seconds
    for k in threads:
        for _ in range(cfg.repetitions):
            out_model, pool, _, stats = run_pipeline_model(model, limits, k, cfg.seed)
            runs[k].append(stats.stage_seconds)
            for flag in (f for f, hit in stats.flags.items() if hit):
                fired.setdefault(flag, set()).add(k)
            if stats.flags["time_limit_hit"]:
                continue
            digests = [hashlib.sha256(text.encode()).digest() for text in
                       (write_augmented_mps(out_model, pool), export_cut_pool(pool))]
            if baseline is None:
                baseline = k, digests
            elif digests != baseline[1]:
                raise AssertionError(f"outputs differ between k={baseline[0]} and k={k}")
    for flag, ks in fired.items():
        report.notes.append(f"{flag} fired at k={','.join(map(str, sorted(ks)))}")

    every_run = [r for rs in runs.values() for r in rs]
    ran = [s for s in STAGES[:-1] if all(s in r for r in every_run)]
    if len(ran) < len(STAGES) - 1:
        report.notes.append("not timed, as the time limit stopped a run before them: "
                            + ", ".join(s for s in STAGES[:-1] if s not in ran))
    for r in every_run:
        r["total"] = sum(r[s] for s in ran)
    if ran:
        ran.append("total")
    base: dict[str, float] = {}
    for k in threads:
        for s in ran:
            sgm = shifted_geomean(r[s] for r in runs[k])
            base.setdefault(s, sgm)
            speedup = base[s] / sgm if sgm > 0 else float("inf")
            report.rows.append({"k": k, "stage": s, "sgm": sgm, "speedup": speedup})
    return report


def warn_if_slow(report: BenchReport, threshold: float = 1.0):
    """Informational check of the total speedup at the largest k swept:
    warns, instead of failing, when it is below `threshold`, by default
    when that k is slower than k = 1. A sweep of k = 1 alone has nothing
    to check."""
    k = max((row["k"] for row in report.rows), default=1)
    if k == 1:
        return
    speedup = report.speedup(k)
    if speedup < threshold:
        warnings.warn(
            f"total speedup at k={k} is {speedup:.2f}x (< {threshold}x); "
            "host may be loaded or have too few cores"
        )
