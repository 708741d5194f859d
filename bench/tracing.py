"""Spans and counters around the simulator's layers, installed from outside.

``install`` replaces the names that ``cabaret_sim.experiment`` imported
from the other modules with wrappers that record a span per call (name,
start, end, parent span) and count the work each call did.  No program
file changes: the runner looks these names up in its own module namespace
at call time, so rebinding them there is enough.  Spans stay in memory and
are written out once, after the pass.

``summarize`` turns a span list into per-layer metrics.  A layer's time is
its self time: the span's duration minus the time covered by its direct
child spans.
"""

from __future__ import annotations

import time
from collections import Counter

#: Span name -> per-layer time metric its self time adds to.
SPAN_METRICS = {
    "synthetic.generate": "synthetic.generate_s",
    "catalog.load": "catalog.load_s",
    "catalog.top_popular": "catalog.top_popular_s",
    "catalog.save": "catalog.save_s",
    "explore.bfs": "explore.bfs_s",
    "recommend.select": "recommend.select_s",
    "recommend.provider": "recommend.provider_s",
    "placement.spec": "placement.spec_s",
    "placement.greedy": "placement.greedy_s",
    "demand.exact": "demand.exact_s",
    "demand.sample": "demand.sample_s",
    "metrics.chr": "metrics.chr_s",
    "experiment.csv": "experiment.csv_s",
    "experiment.run": "experiment.runner_s",
    "experiment.build_catalog": "experiment.runner_s",
}

#: Counters recorded at the same boundaries (metric name -> unit).
COUNT_METRICS = {
    "catalog.contents": "count",
    "catalog.top_popular_calls": "count",
    "catalog.oracle_queries": "count",
    "explore.bfs_calls": "count",
    "explore.entries": "count",
    "recommend.lists": "count",
    "recommend.provider_lists": "count",
    "placement.gain_evals": "count",
    "placement.placements": "count",
    "demand.exact_states": "count",
    "demand.sessions": "count",
    "demand.session_steps": "count",
    "experiment.csv_bytes": "bytes",
}


class Tracer:
    """In-memory span recorder with call counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, on_result=None):
        """``fn`` with a span ``name`` around each call.

        ``count`` names a counter bumped once per call; ``on_result`` sees
        the call's arguments and result and may bump other counters.
        """
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                counts[count] += 1
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return traced

    def ticker(self, name):
        """A no-argument function that bumps counter ``name``."""
        counts = self.counts

        def tick():
            counts[name] += 1

        return tick


def install(tracer: Tracer, experiment) -> None:
    """Rebind the runner's imported names to traced wrappers."""
    from cabaret_sim.metrics import ChrReport
    from cabaret_sim.placement import ObjectiveSpec

    ex = experiment
    wrap = tracer.wrap

    def contents(counts, args, catalog):
        counts["catalog.contents"] += len(catalog)

    def bfs_entries(counts, args, exploration):
        counts["explore.entries"] += len(exploration.entries)

    def session_steps(counts, args, session):
        counts["demand.session_steps"] += len(session.watched) - 1

    def csv_bytes(counts, args, result):
        counts["experiment.csv_bytes"] += args[0].stat().st_size

    ex.build_catalog = wrap("experiment.build_catalog", ex.build_catalog)
    ex.generate_synthetic = wrap("synthetic.generate", ex.generate_synthetic, on_result=contents)
    ex.load_dataset = wrap("catalog.load", ex.load_dataset, on_result=contents)
    ex.top_popular = wrap("catalog.top_popular", ex.top_popular, "catalog.top_popular_calls")
    ex.bfs = wrap("explore.bfs", ex.bfs, "explore.bfs_calls", bfs_entries)
    ex.select_from_exploration = wrap(
        "recommend.select", ex.select_from_exploration, "recommend.lists"
    )
    ex.baseline_recommender = wrap(
        "recommend.provider", ex.baseline_recommender, "recommend.provider_lists"
    )
    ex.reordered_recommender = wrap(
        "recommend.provider", ex.reordered_recommender, "recommend.provider_lists"
    )
    ex.greedy_placement = wrap("placement.greedy", ex.greedy_placement, "placement.placements")
    ex.exact_placement = wrap("placement.greedy", ex.exact_placement, "placement.placements")
    ex.run_session = wrap("demand.sample", ex.run_session, "demand.sessions", session_steps)
    ex.chr_sequential = wrap("metrics.chr", ex.chr_sequential)
    ex._write_csv = wrap("experiment.csv", ex._write_csv, on_result=csv_bytes)

    # The exact evaluator asks the recommender once per distinct state, so
    # counting those calls counts the states it propagates through.
    exact = wrap("demand.exact", ex.exact_hit_rates)
    state = tracer.ticker("demand.exact_states")

    def exact_hit_rates(front_page, recommender, dist, length):
        def counted(content):
            state()
            return recommender(content)

        return exact(front_page, counted, dist, length)

    ex.exact_hit_rates = exact_hit_rates

    query = tracer.ticker("catalog.oracle_queries")
    base_related = ex.RelationOracle.related

    class CountingOracle(ex.RelationOracle):
        __slots__ = ()

        def related(self, content_id, width):
            query()
            return base_related(self, content_id, width)

    ex.RelationOracle = CountingOracle

    gain_eval = tracer.ticker("placement.gain_evals")
    build_spec = wrap("placement.spec", ObjectiveSpec.__init__)

    class CountingSpec(ObjectiveSpec):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            build_spec(self, *args, **kwargs)

        def gain(self, content, rows):
            gain_eval()
            return ObjectiveSpec.gain(self, content, rows)

    ex.ObjectiveSpec = CountingSpec

    from_exact = wrap("metrics.chr", ChrReport.from_exact)

    class TracedChrReport(ChrReport):
        @classmethod
        def from_exact(cls, per_step, length):
            return from_exact(per_step, length)

    ex.ChrReport = TracedChrReport


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def summarize(spans, counts) -> dict[str, float]:
    """Per-layer metrics (times in seconds, counts as recorded)."""
    metrics = {name: 0.0 for name in SPAN_METRICS.values()}
    for name, seconds in self_times(spans).items():
        metrics[SPAN_METRICS[name]] += seconds
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    return metrics
