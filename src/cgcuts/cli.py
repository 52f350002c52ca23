"""Command-line driver: `presolve` runs the full pipeline on an MPS file,
`bench` times the clique stages on the synthetic generator."""
from __future__ import annotations

import argparse
import dataclasses
import gc
import sys

from .model_io import MpsError
from .pipeline import Limits, run_pipeline
from .presolve import InfeasibleError


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limits", help="JSON file overriding the default limits")
    p.add_argument("--time-limit", type=float, default=None,
                   help="seconds before the pipeline degrades to pass-through")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cgcuts")
    sub = parser.add_subparsers(dest="command", required=True)

    pre = sub.add_parser("presolve", help="run the conflict-graph pipeline")
    pre.add_argument("model", help="input MPS file")
    pre.add_argument("--out-model", default=None, help="augmented MPS output")
    pre.add_argument("--out-cuts", default=None, help="user-cut pool output")
    pre.add_argument("--stats-json", default=None, help="write run stats JSON")
    pre.add_argument("--threads", type=int, default=1)
    _add_common(pre)

    bench = sub.add_parser("bench", help="synthetic parallel benchmark")
    bench.add_argument("--n-b", type=int, default=2000)
    bench.add_argument("--cliques", type=int, default=5000)
    bench.add_argument("--prob", type=float, default=0.01)
    bench.add_argument("--thread-counts", default="1,2,4,8",
                       help="comma-separated thread counts to sweep; the sweep runs "
                       "them in ascending order from k = 1")
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--csv", default=None, help="write the report CSV here")
    _add_common(bench)
    return parser


def _limits(parser: argparse.ArgumentParser, args) -> Limits:
    """The run's limits, checked by `Limits` before any model is read."""
    try:
        limits = Limits.from_json(args.limits) if args.limits else Limits()
        if args.time_limit is not None:
            limits = dataclasses.replace(limits, time_limit_s=args.time_limit)
    except (OSError, TypeError, ValueError) as exc:
        parser.error(f"invalid limits: {exc}")
    return limits


def _thread_counts(parser: argparse.ArgumentParser, text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(t) for t in text.split(","))
    except ValueError:
        counts = ()
    if not counts or min(counts) < 1:
        parser.error(f"--thread-counts must be positive integers, got {text!r}")
    return counts


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "presolve" and args.threads < 1:
        parser.error("--threads must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    limits = _limits(parser, args)
    if args.command == "presolve":
        out_model = args.out_model or args.model + ".aug.mps"
        out_cuts = args.out_cuts or args.model + ".cuts"
        try:
            stats = run_pipeline(
                args.model,
                limits=limits,
                k=args.threads,
                seed=args.seed,
                out_model=out_model,
                out_cuts=out_cuts,
            )
        except InfeasibleError as exc:
            print(f"model proven infeasible: {exc}", file=sys.stderr)
            return 2
        except MpsError as exc:
            if exc.path is None:  # a writer's error, not bad input
                raise
            print(f"{exc.path}: {exc}", file=sys.stderr)
            return 2
        if args.stats_json:
            with open(args.stats_json, "w") as fh:
                fh.write(stats.to_json())
        print(f"wrote {out_model} and {out_cuts}")
        return 0

    from .bench import BenchConfig, run_bench, warn_if_slow

    try:
        cfg = BenchConfig(
            n_b=args.n_b,
            num_cliques=args.cliques,
            membership_prob=args.prob,
            threads=_thread_counts(parser, args.thread_counts),
            repetitions=args.reps,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    report = run_bench(cfg, limits=limits)
    csv_text = report.to_csv()
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    print(csv_text, end="")
    for note in report.notes:
        print(f"# {note}")
    warn_if_slow(report)
    return 0


if __name__ == "__main__":
    status = main()
    # What is alive now lives until the exit: frozen, it is skipped by the
    # interpreter's final collections. (Not in `main`, which tests call.)
    gc.freeze()
    raise SystemExit(status)
