"""Command-line entry point: ``python -m repro.experiments``.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run fig16 --jobs 4
    python -m repro.experiments run fig04 table1 --no-cache
    python -m repro.experiments clear-cache
    python -m repro.experiments cache gc
"""

import argparse
import sys

from repro.analysis.report import format_table
from repro.experiments.cache import ResultCache
from repro.experiments.common import emit
from repro.experiments.registry import all_specs, find_specs
from repro.experiments.runner import Runner


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper-figure experiment specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one or more figures/specs")
    run.add_argument(
        "figures",
        nargs="+",
        help="spec names, figure groups (fig16), or name prefixes",
    )
    run.add_argument(
        "--jobs",
        "-j",
        type=_positive_int,
        default=1,
        help="worker processes (default 1)",
    )
    run.add_argument(
        "--no-cache", action="store_true", help="ignore and bypass the result cache"
    )
    run.add_argument(
        "--cache-dir", default=None, help="override benchmarks/results/cache/"
    )

    sub.add_parser("list", help="list available specs")
    clear = sub.add_parser("clear-cache", help="delete all cached results")
    clear.add_argument(
        "--cache-dir", default=None, help="override benchmarks/results/cache/"
    )

    cache = sub.add_parser("cache", help="manage the on-disk result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    gc = cache_sub.add_parser(
        "gc",
        help="prune entries that can no longer be cache hits "
        "(stale spec version, edited figure module, unregistered spec)",
    )
    gc.add_argument(
        "--cache-dir", default=None, help="override benchmarks/results/cache/"
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be pruned without deleting",
    )
    return parser


def _cmd_list() -> int:
    rows = [
        [spec.figure, spec.name, spec.num_points, spec.description]
        for spec in all_specs()
    ]
    print(format_table(["Figure", "Spec", "Points", "Description"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    specs = []
    for token in args.figures:
        for spec in find_specs(token):
            if spec not in specs:
                specs.append(spec)
    runner = Runner(
        jobs=args.jobs, use_cache=not args.no_cache, cache_dir=args.cache_dir
    )
    for spec in specs:
        result = runner.run(spec)
        emit(spec.name, spec.render_text(result.results))
        print(
            f"[{spec.name}] {len(result.results)} points in "
            f"{result.wall_time_s:.2f}s ({result.cache_hits} cached, "
            f"{result.cache_misses} computed, jobs={args.jobs})"
        )
    return 0


def _cmd_clear_cache(cache_dir=None) -> int:
    cache = ResultCache(cache_dir)
    removed = cache.clear()
    print(f"removed {removed} cached results from {cache.root}")
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    removed, kept = cache.gc(all_specs(), dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {removed} stale cached results from {cache.root} "
        f"({kept} current entries kept)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        try:
            return _cmd_run(args)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
    if args.command == "clear-cache":
        return _cmd_clear_cache(args.cache_dir)
    if args.command == "cache":
        if args.cache_command == "gc":
            return _cmd_cache_gc(args)
        raise AssertionError(f"unhandled cache command {args.cache_command!r}")
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
