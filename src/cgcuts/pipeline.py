"""End-to-end driver: detection, clique harvest, graph build, extension,
merging, triage and file emission, under the global limiting parameters.
"""
from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import model_io
from .cliques import (
    SRC_ISP,
    SRC_KNAPSACK_ORG,
    SRC_OSP,
    Clique,
    CliqueTable,
    clique_order,
    detect_cliques_parallel,
)
from .extend import extend_parallel
from .graph import build_graph_parallel
from .literals import VarMap
from .merge import removal_flags
from .model_io import (
    DISP_CONSTRAINT,
    DISP_USER_CUT,
    CutPool,
    CutRecord,
    MipModel,
    TAGS,
)
from .presolve import InfeasibleError, detect
from .triage import TriagePlan, triage

# Pool prefix of each extension base source.
_BASE_PREFIX = {SRC_OSP: "osp", SRC_ISP: "isp", SRC_KNAPSACK_ORG: "org"}
_EXTENDED_TAGS = ("osp_long", "osp_other", "isp_long", "isp_other",
                  "org_long", "org_other")


@dataclass
class Limits:
    """Stage limits; all strictly positive, the counts integers.

    `per_thread_ext_nnz` is the adjacency-touch budget of each extension
    worker for the whole extension stage, shared by the osp, isp and org
    bases. `max_graph_nnz` caps the graph build's pair budget, the sum of
    t(t-1)/2 over the cliques it takes, not the number of edge codes it
    generates.
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
    flags: dict = field(default_factory=dict)
    fixings: int = 0
    rows_removed: int = 0
    pairs_expanded: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _fresh_flags() -> dict:
    return {
        "knapsack_size_skipped": False,
        "clique_downsampled": False,
        "graph_nnz_capped": False,
        "extension_budget_hit": False,
        "merge_skipped": False,
        "time_limit_hit": False,
    }


class _Deadline:
    def __init__(self, seconds: float):
        self.expires = time.monotonic() + seconds

    def expired(self) -> bool:
        return time.monotonic() >= self.expires


def _empty_pools() -> dict[str, list[Clique]]:
    return {tag: [] for tag in TAGS}


def _sorted_group(cliques: list[Clique], rows: list[int]):
    """The cliques of one source in sorted order, and their flat (seq,
    head, start) rows as an (n, 3) array in the same order. Sorting an
    index list by the node tuples allocates no container per clique; pairs
    of clique and row brought on a full garbage collection in a later
    stage."""
    order = sorted(range(len(cliques)), key=lambda j: cliques[j].nodes)
    table_rows = np.array(rows, dtype=np.int64).reshape(-1, 3)[order]
    return [cliques[j] for j in order], table_rows


def run_pipeline_model(
    model: MipModel,
    limits: Limits | None = None,
    k: int = 1,
    seed: int = 0,
):
    """Run the whole pipeline on a parsed model.

    Returns (augmented model, cut pool, triage plan or None, RunStats).
    On time-limit expiry the original model is passed through unchanged and
    whatever pools exist so far are exported as user cuts.
    """
    limits = limits or Limits()
    stats = RunStats(threads=k, seed=seed, flags=_fresh_flags())
    deadline = _Deadline(limits.time_limit_s)
    pools = _empty_pools()
    original = model
    state: dict = {"varmap": None}

    def timed(name: str, fn):
        t0 = time.perf_counter()
        out = fn()
        stats.stage_seconds[name] = time.perf_counter() - t0
        return out

    def passthrough():
        stats.flags["time_limit_hit"] = True
        varmap = state["varmap"] or VarMap(sorted(original.binaries))
        records = [
            CutRecord(q.nodes, tag, DISP_USER_CUT)
            for tag in TAGS
            for q in sorted(pools[tag], key=clique_order)
        ]
        pool = CutPool(records=records, varmap=varmap)
        _fill_tag_counts(stats, pools, None)
        return original, pool, None, stats

    detection = timed("detect", lambda: detect(model))
    varmap = detection.varmap
    state["varmap"] = varmap
    stats.fixings = len(detection.fixings)
    stats.rows_removed = model.num_rows - detection.model.num_rows
    if deadline.expired():
        return passthrough()

    s_ck = detection.s_ck.take(
        np.flatnonzero(detection.s_ck.lengths() <= limits.max_knapsack_vars)
    )
    if len(s_ck) != len(detection.s_ck):
        stats.flags["knapsack_size_skipped"] = True

    harvest = timed(
        "clique_detect",
        lambda: detect_cliques_parallel(s_ck, k, seed),
    )
    # The graph's CliqueTable holds five groups, each sorted: osp, isp, org,
    # other_long, other_other. Each clique carries its (sequence, head,
    # start): an osp or isp clique is its own sequence, a knapsack's cliques
    # share its node sequence. The first-detected other clique of each
    # knapsack is the pool's "long" representative; the rest are plain
    # user-cut material.
    sequences: list[tuple[int, ...]] = []
    groups = [([], []) for _ in range(5)]  # (cliques, flat rows) per group

    def add(group: int, q: Clique, s: int, head: int, start: int):
        groups[group][0].append(q)
        groups[group][1].extend((s, head, start))

    for group, (pbc, source) in enumerate(
        ((detection.s_osp, SRC_OSP), (detection.s_isp, SRC_ISP))
    ):
        for q in pbc.node_sets():
            add(group, Clique(q, source=source), len(sequences), -1, 0)
            sequences.append(q)
    for family in harvest.families:
        s = len(sequences)
        sequences.append(family.nodes)
        add(2, family.original(), s, -1, family.phi)
        for j, (q, (i, sigma)) in enumerate(
            zip(family.materialize(), family.entries)
        ):
            add(4 if j else 3, q, s, i, sigma)
    ordered = [_sorted_group(*g) for g in groups]
    osp_cliques, isp_cliques, org_cliques, other_long, other_other = (
        q for q, _ in ordered
    )
    pools["other_long"] = other_long
    pools["other_other"] = other_other
    if deadline.expired():
        return passthrough()

    table = CliqueTable.of(sequences, np.concatenate([r for _, r in ordered]))
    gstats: dict = {}
    graph = timed(
        "graph_build",
        lambda: build_graph_parallel(
            table,
            varmap.n_b,
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
    if deadline.expired():
        return passthrough()

    def run_extension():
        estats: dict = {}
        longs, others = extend_parallel(
            osp_cliques + isp_cliques + org_cliques,
            graph,
            k,
            seed,
            per_worker_budget=limits.per_thread_ext_nnz,
            deadline=deadline.expires,
            stats=estats,
        )
        for extended, suffix in ((longs, "long"), (others, "other")):
            for q in sorted(extended, key=clique_order):
                pools[f"{_BASE_PREFIX[q.source]}_{suffix}"].append(q)
        if estats.get("ext_budget_hit"):
            stats.flags["extension_budget_hit"] = True

    timed("extension", run_extension)
    if deadline.expired():
        return passthrough()

    def run_merge():
        tagged = [
            (q, tag) for tag in _EXTENDED_TAGS for q in pools[tag]
        ]
        if len(tagged) > limits.max_merge_cliques:
            stats.flags["merge_skipped"] = True
            return
        counters: dict = {}
        flags = removal_flags(
            [q for q, _ in tagged], k,
            counters=counters, deadline=deadline.expires,
        )
        if counters.get("deadline_hit"):
            return
        for tag in _EXTENDED_TAGS:
            pools[tag] = []
        for (q, tag), dead in zip(tagged, flags):
            if not dead:
                pools[tag].append(q)

    timed("merge", run_merge)
    if deadline.expired():
        return passthrough()

    plan = timed("triage", lambda: triage(pools, detection.model))
    records = [
        CutRecord(q.nodes, "osp_long", DISP_CONSTRAINT) for q in plan.replacements
    ]
    records += [
        CutRecord(q.nodes, tag, DISP_CONSTRAINT) for q, tag in plan.as_constraints
    ]
    records += [
        CutRecord(q.nodes, tag, DISP_USER_CUT) for q, tag in plan.as_user_cuts
    ]
    pool = CutPool(records=records, varmap=varmap)
    _fill_tag_counts(stats, pools, plan)
    return detection.model, pool, plan, stats


def _fill_tag_counts(stats: RunStats, pools, plan: TriagePlan | None):
    counts = {tag: {"total": len(pools[tag]), "added": 0, "user": 0}
              for tag in TAGS}
    if plan is None:
        for tag in TAGS:
            counts[tag]["user"] = counts[tag]["total"]
    else:
        counts["osp_long"]["added"] += len(plan.replacements)
        for _, tag in plan.as_constraints:
            counts[tag]["added"] += 1
        for _, tag in plan.as_user_cuts:
            counts[tag]["user"] += 1
    stats.tag_counts = counts


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
