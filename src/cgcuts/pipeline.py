"""End-to-end driver: detection, clique harvest, graph build, extension,
merging, triage and file emission, under the global limiting parameters.

Every stage reads and writes one `CliqueTable`. The harvest's table, with
the set-packing cliques, is sorted once by (tag, members): the extension
bases (osp, isp, org) come first and the further knapsack cliques (other)
last. Extension turns the bases into the extended tags, merge filters
them, and the sorted pool goes to triage and, with one disposition per
clique, to the writers.
"""
from __future__ import annotations

import json
import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import model_io
from .cliques import ISP, OSP, OTHER, CliqueTable, detect_cliques_parallel
from .extend import extend_parallel
from .graph import build_graph_parallel
from .merge import removal_flags
from .model_io import CutPool, MipModel, TAGS
from .parallel import clamp_threads
from .presolve import detect
from .triage import triage


@dataclass
class Limits:
    """Stage limits; all strictly positive, the counts integers.

    `per_thread_ext_nnz` is the adjacency-touch budget of the whole
    extension stage, not of each thread: it is shared by the osp, isp and
    org bases and spent in the seeded shuffle order, so the outputs do not
    depend on the thread count. `max_graph_nnz` caps the graph build's pair
    budget, the sum of t(t-1)/2 over the cliques it takes, not the number
    of edge codes it generates.
    """

    max_knapsack_vars: int = 5000
    max_clique_sample: int = 1000
    max_graph_nnz: int = 25_000_000
    per_thread_ext_nnz: int = 1_250_000
    max_merge_cliques: int = 100_000
    time_limit_s: float = 120.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            count = name != "time_limit_s"
            kind = numbers.Integral if count else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"limit {name} must be "
                                f"{'an integer' if count else 'a number'}, got {value!r}")
            if not value > 0:  # NaN included
                raise ValueError(f"limit {name} must be strictly positive")

    @classmethod
    def from_json(cls, path) -> "Limits":
        with open(path) as fh:
            return cls(**json.load(fh))


@dataclass
class RunStats:
    threads: int
    seed: int
    stage_seconds: dict = field(default_factory=dict)
    tag_counts: dict = field(default_factory=dict)  # tag -> total/added/user
    flags: dict = field(default_factory=lambda: dict.fromkeys((
        "knapsack_size_skipped", "clique_downsampled", "graph_nnz_capped",
        "extension_budget_hit", "merge_skipped", "time_limit_hit"), False))
    fixings: int = 0
    rows_removed: int = 0
    pairs_expanded: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def run_pipeline_model(
    model: MipModel,
    limits: Limits | None = None,
    k: int = 1,
    seed: int = 0,
):
    """Run the whole pipeline on a parsed model.

    Returns (augmented model, cut pool, triage plan or None, RunStats).
    On time-limit expiry the original model is passed through unchanged and
    whatever pool exists so far is exported as user cuts. Each stage splits
    into no more blocks than can run at once, `clamp_threads(k)`, which
    `RunStats.threads` records; the outputs do not depend on it.
    """
    limits = limits or Limits()
    k = clamp_threads(k)
    stats = RunStats(threads=k, seed=seed)
    deadline = time.monotonic() + limits.time_limit_s  # checked between stages

    def timed(name: str, fn):
        t0 = time.perf_counter()
        out = fn()
        stats.stage_seconds[name] = time.perf_counter() - t0
        return out

    def passthrough(pool: CliqueTable):
        stats.flags["time_limit_hit"] = True
        cut = np.zeros(len(pool), dtype=bool)
        _fill_tag_counts(stats, pool, cut)
        return model, CutPool(pool, cut, detection.binaries), None, stats

    detection = timed("detect", lambda: detect(model))
    stats.fixings = len(detection.fixings)
    stats.rows_removed = model.num_rows - detection.model.num_rows
    packing = [CliqueTable.plain(s.lengths(), s.nodes, tag)
               for s, tag in ((detection.s_osp, OSP), (detection.s_isp, ISP))]
    if time.monotonic() >= deadline:
        return passthrough(CliqueTable.plain([], [], OSP))

    s_ck = detection.s_ck.take(
        np.flatnonzero(detection.s_ck.lengths() <= limits.max_knapsack_vars)
    )
    if len(s_ck) != len(detection.s_ck):
        stats.flags["knapsack_size_skipped"] = True

    harvest = timed(
        "clique_detect",
        lambda: detect_cliques_parallel(s_ck, k),
    )
    table = CliqueTable.concat(packing + [harvest])
    table = table.take(table.order())
    n_bases = int(np.searchsorted(table.tag, OTHER))
    others = table.take(np.arange(n_bases, len(table)))
    if time.monotonic() >= deadline:
        return passthrough(others)

    gstats: dict = {}
    graph = timed(
        "graph_build",
        lambda: build_graph_parallel(
            table,
            len(detection.binaries),
            k,
            seed,
            max_clique_sample=limits.max_clique_sample,
            max_pairs=limits.max_graph_nnz,
            stats=gstats,
        ),
    )
    stats.pairs_expanded = gstats.get("pairs_expanded", 0)
    stats.flags["graph_nnz_capped"] = bool(gstats.get("pair_cap_hit"))
    stats.flags["clique_downsampled"] = gstats.get("downsampled", 0) > 0
    if time.monotonic() >= deadline:
        return passthrough(others)

    estats: dict = {}
    longs, grown = timed("extension", lambda: extend_parallel(
        table.take(np.arange(n_bases)),
        graph,
        k,
        seed,
        budget=limits.per_thread_ext_nnz,
        deadline=deadline,
        stats=estats,
    ))
    if estats.get("ext_budget_hit"):
        stats.flags["extension_budget_hit"] = True
    extended = CliqueTable.concat([longs, grown])
    extended = extended.take(extended.order())
    if time.monotonic() >= deadline:
        return passthrough(CliqueTable.concat([extended, others]))

    def run_merge():
        if len(extended) > limits.max_merge_cliques:
            stats.flags["merge_skipped"] = True
            return extended
        counters: dict = {}
        flags = removal_flags(extended, k, counters=counters, deadline=deadline)
        if counters.get("deadline_hit"):
            return extended
        return extended.take(np.flatnonzero(~flags))

    pool = CliqueTable.concat([timed("merge", run_merge), others])
    if time.monotonic() >= deadline:
        return passthrough(pool)

    plan = timed("triage", lambda: triage(pool, detection.model))
    _fill_tag_counts(stats, pool, plan.constraint)
    return detection.model, CutPool(pool, plan.constraint, detection.binaries), plan, stats


def _fill_tag_counts(stats: RunStats, pool: CliqueTable, constraint: np.ndarray):
    added, user = (np.bincount(pool.tag[m], minlength=len(TAGS)).tolist()
                   for m in (constraint, ~constraint))
    stats.tag_counts = {tag: {"total": a + u, "added": a, "user": u}
                        for tag, a, u in zip(TAGS, added, user)}


def run_pipeline(
    model_path,
    limits: Limits | None = None,
    k: int = 1,
    seed: int = 0,
    out_model=None,
    out_cuts=None,
):
    """File-level wrapper: parse, run, write augmented model and cut pool.

    Returns RunStats, whose `stage_seconds` also times `parse` and `emit`
    (writing both output files). Raises InfeasibleError when detection
    proves the model infeasible.
    """
    t0 = time.perf_counter()
    model = model_io.parse_mps_file(model_path)
    parse_s = time.perf_counter() - t0
    base_model, pool, plan, stats = run_pipeline_model(
        model, limits=limits, k=k, seed=seed
    )
    # Freed before emit, unless the time-limit pass-through returned it.
    del model
    t0 = time.perf_counter()
    if out_model is not None:
        with open(out_model, "w") as fh:
            fh.write(model_io.write_augmented_mps(base_model, pool))
    if out_cuts is not None:
        with open(out_cuts, "w") as fh:
            fh.write(model_io.export_cut_pool(pool))
    stats.stage_seconds["parse"] = parse_s
    stats.stage_seconds["emit"] = time.perf_counter() - t0
    return stats
