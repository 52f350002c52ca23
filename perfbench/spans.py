"""In-memory spans around the pipeline's stage entry points.

`install` replaces each stage entry point, as `cgcuts.pipeline`,
`cgcuts.model_io` and `cgcuts.cli` bind it, and `map_blocks`, as each stage
module binds it, with a wrapper that records a span: name, layer, parent,
start, end, the growth of the process's ru_maxrss over the span, and counts
read from the stage's arguments and result after the span has closed.
Nothing in the package is edited; a name that is missing is left unwrapped
and its span is absent.

Block functions handed to `map_blocks` get a child span when they run in
this process (serial or thread execution). Pool workers in other processes
run them bare: their busy time is not visible from here.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import pickle
import time
from contextlib import contextmanager

from rss import own_peak_mb


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.attrs: dict = {}
        self._ids = itertools.count()
        self._stack: list[int] = []  # open spans of the main thread

    @contextmanager
    def span(self, name: str, layer: str, parent: int | None = None):
        """Record a span; without `parent` it nests under the innermost
        open span of the calling (main) thread."""
        nested = parent is None
        if nested:
            parent = self._stack[-1] if self._stack else None
        rec = {"id": next(self._ids), "parent": parent, "name": name,
               "layer": layer, "counts": {}, "rss0": own_peak_mb(),
               "start": time.perf_counter()}
        if nested:
            self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["rss1"] = own_peak_mb()
            if nested:
                self._stack.pop()
            self.spans.append(rec)


class _Block:
    """Block function wrapper: a child span when run in the tracing
    process; pickled for a pool worker it keeps only the function."""

    def __init__(self, fn, tracer: Tracer | None, parent: int, layer: str):
        self.fn, self.tracer, self.parent, self.layer = fn, tracer, parent, layer

    def __getstate__(self):
        return {"fn": self.fn, "tracer": None, "parent": self.parent,
                "layer": self.layer}

    def __call__(self, arg):
        if self.tracer is None:
            return self.fn(arg)
        with self.tracer.span(f"{self.layer}.block", self.layer, self.parent):
            return self.fn(arg)


class _ByteCount:
    def __init__(self):
        self.n = 0

    def write(self, data) -> int:
        self.n += len(data)
        return len(data)


def pickled_size(obj) -> int:
    """Bytes a process pool would send for `obj`, without holding them."""
    sink = _ByteCount()
    pickle.Pickler(sink).dump(obj)
    return sink.n


# --- counts read from each stage's arguments and result -----------------


def _parse_counts(args, kwargs, out):
    return {"bytes_in": os.path.getsize(args[0]), "rows": out.num_rows,
            "cols": out.num_cols, "nnz": out.nnz}


def _detect_counts(args, kwargs, out):
    return {"osp": len(out.s_osp), "isp": len(out.s_isp), "ck": len(out.s_ck),
            "fixings": len(out.fixings),
            "removed": args[0].num_rows - out.model.num_rows}


def _clique_counts(args, kwargs, out):
    return {"org": len(out.c_org),
            "other": sum(len(b.entries) for b in out.c_other_blocks)}


def _graph_counts(args, kwargs, out):
    edges = out.stored_nnz // 2
    pairs = kwargs["stats"]["pairs_expanded"]
    return {"pairs_expanded": pairs, "edges": edges,
            "dedup_ratio": edges / pairs if pairs else 0.0}


def _extend_counts(args, kwargs, out):
    longs, others = out
    return {"touches": kwargs["stats"]["ext_touches"],
            "cliques_in": len(args[0]), "cliques_out": len(longs) + len(others)}


def _flags_counts(args, kwargs, out):
    return {"cliques_in": len(args[0]), "removed": int(out.sum()),
            "subset_work": kwargs["counters"]["subset_work"]}


def _merge_counts(args, kwargs, out):
    return {"cliques_in": len(args[0]), "removed": out.removed_count,
            "subset_work": kwargs["counters"]["subset_work"]}


def _triage_counts(args, kwargs, out):
    return {"rows_added": out.constraint_rows(),
            "user_cuts": len(out.as_user_cuts)}


def _text_counts(args, kwargs, out):
    return {"bytes_out": len(out.encode())}


#: (module, attributes, span name, layer); the first attribute the module
#: binds is wrapped, so merge is traced through either entry point.
STAGES = [
    ("cgcuts.cli", ("run_pipeline",), "pipeline.run", "pipeline"),
    ("cgcuts.model_io", ("parse_mps_file",), "model_io.parse", "model_io"),
    ("cgcuts.pipeline", ("detect",), "presolve.detect", "presolve"),
    ("cgcuts.pipeline", ("detect_cliques_parallel",), "cliques.detect",
     "cliques"),
    ("cgcuts.pipeline", ("build_graph_parallel",), "graph.build", "graph"),
    ("cgcuts.pipeline", ("extend_parallel",), "extend", "extend"),
    ("cgcuts.pipeline", ("removal_flags", "merge_parallel"), "merge", "merge"),
    ("cgcuts.pipeline", ("triage",), "triage", "triage"),
    ("cgcuts.model_io", ("write_augmented_mps",), "model_io.emit_model",
     "model_io"),
    ("cgcuts.model_io", ("export_cut_pool",), "model_io.emit_cuts", "model_io"),
]

COUNTS = {
    "parse_mps_file": _parse_counts,
    "detect": _detect_counts,
    "detect_cliques_parallel": _clique_counts,
    "build_graph_parallel": _graph_counts,
    "extend_parallel": _extend_counts,
    "removal_flags": _flags_counts,
    "merge_parallel": _merge_counts,
    "triage": _triage_counts,
    "write_augmented_mps": _text_counts,
    "export_cut_pool": _text_counts,
}

#: Stage modules whose `map_blocks` binding is wrapped, by layer name.
MAP_MODULES = {"cliques": "cgcuts.cliques", "graph": "cgcuts.graph",
               "extend": "cgcuts.extend", "merge": "cgcuts.merge"}


def _wrap_stage(tracer: Tracer, fn, name, layer, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, layer) as rec:
            out = fn(*args, **kwargs)
        if counts is not None:
            try:
                rec["counts"].update(counts(args, kwargs, out))
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                rec["counts_error"] = repr(exc)
        return out
    return wrapper


def _wrap_map(tracer: Tracer, map_blocks, layer: str, size_dispatch: bool):
    sig = inspect.signature(map_blocks)

    @functools.wraps(map_blocks)
    def wrapper(fn, block_args, k, *args, **kwargs):
        block_args = list(block_args)
        bound = sig.bind(fn, block_args, k, *args, **kwargs)
        bound.apply_defaults()
        tracer.attrs.setdefault("exec_modes", {})[layer] = bound.arguments.get("mode")
        size = None
        if size_dispatch:
            with tracer.span(f"trace.{layer}.dispatch_sizing", "trace"):
                size = sum(pickled_size(a) for a in block_args)
        with tracer.span(f"parallel.{layer}.map", "parallel") as rec:
            block = _Block(fn, tracer, rec["id"], layer)
            out = map_blocks(block, block_args, k, *args, **kwargs)
        rec["counts"]["blocks"] = len(block_args)
        if size is not None:
            rec["counts"]["dispatch_bytes"] = size
        return out
    return wrapper


def install(tracer: Tracer, size_dispatch: bool) -> list[str]:
    """Wrap every stage entry point found; returns the names not found."""
    missing = []
    for mod_name, attrs, name, layer in STAGES:
        mod = importlib.import_module(mod_name)
        attr = next((a for a in attrs if hasattr(mod, a)), None)
        if attr is None:
            missing.append(f"{mod_name}.{attrs[0]}")
            continue
        wrapped = _wrap_stage(tracer, getattr(mod, attr), name, layer,
                              COUNTS.get(attr))
        setattr(mod, attr, wrapped)
    for layer, mod_name in MAP_MODULES.items():
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, "map_blocks", None)
        if fn is None:
            missing.append(f"{mod_name}.map_blocks")
            continue
        mod.map_blocks = _wrap_map(tracer, fn, layer, size_dispatch)
    return missing
