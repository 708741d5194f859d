"""Command-line interface.

Subcommands::

    generate   write a synthetic catalog to dataset files
    explore    emit the exploration list around a seed content as CSV
    recommend  emit a cache-aware recommendation list as CSV: the row
               that the runner's CandidateStore builds for one cache
    optimize   compute a cache placement; write manifest + trajectory CSV
    eval-iv    depth-overlap report over the most popular contents
    run        execute an experiment config; write results/failures CSV

Every subcommand that needs a catalog reads it from dataset files: a
required ``--related-file`` and an optional ``--popularity-file``.  A
synthetic catalog is written to such files by ``generate`` first.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Iterable, Sequence

from .catalog import RelationOracle, load_dataset, save_dataset, top_popular
from .csvio import write_csv
from .errors import SimulatorError
from .experiment import SCHEMA, load_config, parse_demand, run_experiment
from .explore import BfsParams, bfs
from .metrics import eval_iv
from .placement import ObjectiveSpec, exact_placement, greedy_placement, top_placement
from .recommend import CacheManifest, CandidateStore, StateNumbers
from .demand import position_probs
from .synthetic import generate_synthetic
from .version import SCHEMA_VERSION, __version__

#: Options that mirror a config key take its default.
_DEFAULT = {key.name: key.default for key in SCHEMA}


def _add_catalog_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("catalog source")
    group.add_argument("--related-file", required=True, help="JSON-lines related-lists file")
    group.add_argument("--popularity-file", help="id,weight CSV file")


def _emit(
    path: str | None, header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    """Write CSV rows to ``path``, or to stdout when no path is given."""
    if not path:
        write_csv(sys.stdout, header, rows)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_csv(handle, header, rows)


def _cmd_generate(args: argparse.Namespace) -> int:
    catalog = generate_synthetic(args.size, args.out_degree, args.overlap, args.seed)
    save_dataset(catalog, args.related_out, args.popularity_out)
    print(f"wrote {len(catalog)} contents to {args.related_out}", file=sys.stderr)
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    oracle = RelationOracle(load_dataset(args.related_file, args.popularity_file))
    result = bfs(args.seed_id, BfsParams(args.depth, args.width), oracle)
    rows = enumerate(zip(result.entries, result.depths), start=1)
    _emit(args.out, ("rank", "id", "depth"), ((rank, *entry) for rank, entry in rows))
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    oracle = RelationOracle(load_dataset(args.related_file, args.popularity_file))
    cache = CacheManifest.from_file(args.cache_file)
    # The runner's row builder, whose union of caches is this one cache.
    states = StateNumbers()
    store = CandidateStore(
        cache.ids, oracle, BfsParams(args.depth, args.width), args.count, states
    )
    [width], [cached], [entries] = store.rows(cache.ids)(states.numbers([args.seed_id]))
    rows = enumerate(zip(entries[:width].tolist(), cached[:width].tolist()), start=1)
    _emit(
        args.out,
        ("rank", "id", "cached"),
        ((rank, states.ids[s], "true" if hit else "false") for rank, (s, hit) in rows),
    )
    if not width:
        print("empty exploration: no recommendations", file=sys.stderr)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    catalog = load_dataset(args.related_file, args.popularity_file)
    oracle = RelationOracle(catalog)
    front = top_popular(catalog, args.front_page)
    dist = position_probs(*parse_demand(args.demand), args.count)
    spec = ObjectiveSpec.build(
        front.ids, args.count, dist, BfsParams(args.depth, args.width), oracle
    )
    if args.method == "top":
        result = top_placement(catalog, args.capacity, spec)
    elif args.method == "greedy":
        result = greedy_placement(spec, args.capacity)
    else:
        result = exact_placement(spec, args.capacity)
    CacheManifest.from_ids(result.chosen, args.capacity).to_file(args.manifest_out)
    if args.trajectory_out:
        _emit(args.trajectory_out, ("step", "id", "objective"), result.trajectory_rows())
    final = result.objective_values[-1] if result.objective_values else 0.0
    print(
        f"{result.method} placement: {len(result.chosen)} contents, "
        f"objective {final:.6f}",
        file=sys.stderr,
    )
    return 0


def _cmd_eval_iv(args: argparse.Namespace) -> int:
    catalog = load_dataset(args.related_file, args.popularity_file)
    oracle = RelationOracle(catalog)
    seeds = top_popular(catalog, args.top)
    report = eval_iv(seeds, args.width, oracle)
    _emit(args.out, ("metric", "value"), report.summary_rows())
    if args.per_seed_out:
        _emit(args.per_seed_out, ("id", "overlap"), report.per_seed)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    result = run_experiment(config, out_dir=args.out)
    print(
        f"{len(result.rows)} cells ok, {len(result.failures)} failed, "
        f"{result.wall_clock:.1f}s -> {args.out}",
        file=sys.stderr,
    )
    return 0 if not result.failures else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cabaret-sim",
        description="Cache-aware recommendation and cache-placement simulator.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"cabaret-sim {__version__} (schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic catalog")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out-degree", type=int, default=50)
    p.add_argument("--overlap", type=float, default=0.9)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--related-out", required=True)
    p.add_argument("--popularity-out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("explore", help="exploration list around a seed")
    _add_catalog_options(p)
    p.add_argument("--seed-id", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("recommend", help="cache-aware recommendation list")
    _add_catalog_options(p)
    p.add_argument("--seed-id", required=True)
    p.add_argument("-N", "--count", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--cache-file", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("optimize", help="compute a cache placement")
    _add_catalog_options(p)
    p.add_argument("--method", choices=("top", "greedy", "exact"), required=True)
    p.add_argument("--capacity", type=int, required=True)
    p.add_argument("-N", "--count", type=int, default=_DEFAULT["list_size"])
    p.add_argument("--depth", type=int, default=_DEFAULT["bfs_depth"])
    p.add_argument("--width", type=int, default=_DEFAULT["bfs_width"])
    p.add_argument("--demand", default="uniform", help="uniform or zipf:<alpha>")
    p.add_argument("--front-page", type=int, default=_DEFAULT["front_page_size"])
    p.add_argument("--manifest-out", required=True)
    p.add_argument("--trajectory-out")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("eval-iv", help="depth-overlap over popular seeds")
    _add_catalog_options(p)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--top", type=int, default=50)
    p.add_argument("--out")
    p.add_argument("--per-seed-out")
    p.set_defaults(func=_cmd_eval_iv)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # An OSError names its file: a missing config, a directory given as a file.
    except (SimulatorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
