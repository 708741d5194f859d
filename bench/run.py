"""Benchmark of ``run_experiment`` on three workloads; see README.md.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of the workload, each in a fresh process, until ``S``
seconds are used (at least three passes), and reports the median pass.
On the README sweeps it also times a fixed calibration loop before each
pass and after the last, and scales the times by it (see README.md).
Then it checks every pass's outputs against
the reference and prints each metric by name and unit, ending with one
JSON line: ``correct``, ``attempted`` and ``failed`` cells, and the
metrics.  With ``--trace 0`` those are the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced and the metrics are the
per-layer ones from the traced passes, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170  # no pass runs past this many seconds after the start
MIN_PASSES = 3
# String hashing is fixed in the pass processes: with a random hash seed
# per process, dict and set layouts widen the spread of back-to-back passes
# (see README.md).
PASS_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def run_pass(config_path, out, trace, save_catalog, deadline):
    command = [sys.executable, str(HERE / "sweep_pass.py"), str(config_path), str(out)]
    if trace:
        command.append("--trace")
    if save_catalog:
        command.append("--save-catalog")
    done = subprocess.run(
        command, cwd=ROOT, env=PASS_ENV, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"pass failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def build_reference(config, inputs):
    """The reference and the cache set of every (capacity, demand)."""
    sys.path.insert(0, str(ROOT / "src"))
    from cabaret_sim import experiment
    from cabaret_sim.catalog import RelationOracle
    from cabaret_sim.demand import position_probs
    from cabaret_sim.explore import BfsParams
    from cabaret_sim.placement import ObjectiveSpec, greedy_placement

    if inputs is not None:
        related, popularity = reference.load_files(
            inputs / workloads.INPUT_NAMES[0], inputs / workloads.INPUT_NAMES[1]
        )
    else:
        # The synthetic catalog is an input of the sweep: take it from the
        # generator and copy it into plain dicts.
        catalog = experiment.build_catalog(experiment.config_from_mapping(config))
        related = {c: catalog.related_list(c) for c in catalog.ids()}
        popularity = {c: catalog.popularity_of(c) for c in related}
    ranked = reference.ranking(related, popularity)
    front = ranked[: config["front_page_size"]]
    ref = reference.Reference(
        related, front, config["bfs_depth"], config["bfs_width"], config["list_size"]
    )
    caches = {}
    for capacity in config["cache_capacity"]:
        for demand in config["demand"]:
            if config["cache_policy"] == "top":
                caches[(capacity, demand)] = frozenset(ranked[:capacity])
            else:
                # Greedy placement is the simulator's own; the repository's
                # tests hold it to the (1 - 1/e) bound against the exact solver.
                oracle = RelationOracle(catalog)
                dist = position_probs(*experiment.parse_demand(demand), config["list_size"])
                spec = ObjectiveSpec.build(
                    front, config["list_size"], dist,
                    BfsParams(config["bfs_depth"], config["bfs_width"]), oracle,
                )
                caches[(capacity, demand)] = frozenset(greedy_placement(spec, capacity).chosen)
    return ref, caches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cabaret_sim" / "experiment.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = workloads.WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work, started) -> int:
    problems: list[str] = []
    inputs = None
    if workloads.WORKLOADS[args.workload]["catalog_kind"] == "files":
        inputs, bad_inputs = workloads.ensure_inputs(args.seed)
        problems += bad_inputs
    config = workloads.config_for(args.workload, args.seed, inputs)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    # Passes: untraced only, or untraced and traced in turn.  The budget
    # counts from here, after the inputs exist.
    budget_start = time.perf_counter()
    passes: list[dict] = []
    scaled = args.workload in calibration.SCALED
    loops: list[float] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if scaled:
            loops.append(calibration.loop_seconds())
        out = work / f"pass{len(passes)}"
        result = run_pass(
            config_path, out, traced, traced and inputs is not None, started + RUN_LIMIT_S
        )
        result.update(traced=traced, out=out)
        passes.append(result)
        used = time.perf_counter() - budget_start
        typical = statistics.median(p["total_s"] for p in passes) + 0.5
        if len(passes) >= MIN_PASSES and used + typical > args.seconds:
            break
    scale = 1.0
    if scaled:
        loops.append(calibration.loop_seconds())
        scale = calibration.REFERENCE_S / statistics.mean(loops)

    # Checks, outside the timed passes.
    cells = workloads.cell_count(args.workload)
    first = (passes[0]["out"] / "results.csv").read_bytes()
    for p in passes:
        if p["rows"] + p["failures"] != cells:
            problems.append(f"{p['out'].name}: {p['rows']} rows + {p['failures']} failures != {cells}")
        if (p["out"] / "results.csv").read_bytes() != first:
            problems.append(f"{p['out'].name}: results.csv differs from pass0")
        if p["traced"] and inputs is not None:
            for name in workloads.INPUT_NAMES:
                if (p["out"] / name).read_bytes() != (inputs / name).read_bytes():
                    problems.append(f"{p['out'].name}: saved {name} differs from the input")
    rows = read_rows(passes[0]["out"] / "results.csv")
    ref, caches = build_reference(config, inputs)
    bad_rows, bad_table = reference.check_rows(rows, ref, caches, config.get("sessions", 1000))
    problems += bad_table
    for i, messages in sorted(bad_rows.items()):
        row = rows[i]
        problems += [
            f"cell {row['recommender']}/{row['cache_capacity']}/{row['demand']}/k={row['k']}: {m}"
            for m in messages
        ]
    failed_cells = len(read_rows(passes[0]["out"] / "failures.csv")) + len(bad_rows)
    attempted = cells * len(passes)
    failed = failed_cells * len(passes)

    if args.trace:
        metrics = layer_metrics(passes, scale)
    else:
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in passes) * scale, "s"),
            "sweep_s": (statistics.median(p["sweep_s"] for p in passes) * scale, "s"),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        }

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {cells} cells, "
          f"{time.perf_counter() - started:.1f} s in all")
    if scaled:
        print(f"calibration loop: mean {statistics.mean(loops):.4f} s over {len(loops)} timings, "
              f"times scaled by {scale:.4f}")
    for p in passes:
        print(f"  {p['out'].name}{' traced' if p['traced'] else ''}: setup {p['setup_s']:.3f} s, "
              f"sweep {p['sweep_s']:.3f} s, peak rss {p['rss_mb']:.1f} MB")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(passes, scale):
    """Per-layer medians over the traced passes, with the tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    summaries = []
    for p in traced:
        trace = json.loads((p["out"] / "trace.json").read_text(encoding="utf-8"))
        summaries.append(tracing.summarize(trace["spans"], trace["counts"]))
    metrics = {}
    for name in summaries[0]:
        unit = tracing.COUNT_METRICS.get(name, "s")
        if unit == "s":
            metrics[name] = (statistics.median(s[name] for s in summaries) * scale, unit)
        else:
            metrics[name] = (statistics.median_low(s[name] for s in summaries), unit)
    overhead = statistics.median(p["total_s"] for p in traced) - statistics.median(
        p["total_s"] for p in plain
    )
    metrics["trace.overhead_s"] = (overhead * scale, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
