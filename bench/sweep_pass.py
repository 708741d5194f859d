"""One timed pass of ``run_experiment`` in a fresh process.

Usage: ``python3 bench/sweep_pass.py CONFIG OUT_DIR [--trace] [--save-catalog]``

Runs the config once with ``OUT_DIR`` as the output directory and prints
one JSON line: the time spent in ``build_catalog`` (``setup_s``), the rest
of ``run_experiment`` (``sweep_s``) and the process's peak resident set.
With ``--trace`` the layers are wrapped (see ``tracing.py``) and the spans
and counters are written to ``OUT_DIR/trace.json`` after the pass.  With
``--save-catalog`` the built catalog is then saved to ``OUT_DIR`` under a
``catalog.save`` span.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_experiment():
    """The program's ``experiment`` module, from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    from cabaret_sim import experiment

    if Path(experiment.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cabaret_sim imported from {experiment.__file__}, not {SRC}")
    return experiment


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save-catalog", action="store_true")
    args = parser.parse_args()

    experiment = import_experiment()
    config = experiment.load_config(args.config)
    out = Path(args.out)
    clock = time.perf_counter

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, experiment)

    built = {}
    build_catalog = experiment.build_catalog

    def timed_build(cfg):
        start = clock()
        catalog = build_catalog(cfg)
        built["seconds"] = clock() - start
        built["catalog"] = catalog
        return catalog

    experiment.build_catalog = timed_build
    run = experiment.run_experiment
    if tracer is not None:
        run = tracer.wrap("experiment.run", run)

    start = clock()
    result = run(config, out)
    total = clock() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        if args.save_catalog:
            from cabaret_sim.catalog import save_dataset

            save = tracer.wrap("catalog.save", save_dataset)
            save(built["catalog"], str(out / "related.jsonl"), str(out / "popularity.csv"))
        (out / "trace.json").write_text(
            json.dumps({"spans": tracer.spans, "counts": tracer.counts}), encoding="utf-8"
        )

    print(json.dumps({
        "setup_s": built["seconds"],
        "sweep_s": total - built["seconds"],
        "total_s": total,
        "rss_mb": rss_mb,
        "rows": len(result.rows),
        "failures": len(result.failures),
    }))


if __name__ == "__main__":
    main()
