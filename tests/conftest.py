"""Shared fixtures and independent reference implementations.

The reference implementations here are deliberately written in a different
style from the package code (level-concatenation instead of incremental
frontiers, full objective re-evaluation instead of inverted-index gains) so
they can serve as oracles for it.  ``reference_exact_hit_rates`` and
``reference_run_session`` evaluate sessions state by state through plain
dicts and lists, and ``reference_walk`` runs one session from given random
numbers; they are the oracles for ``TransitionTable``.
``check_submodularity`` samples nested cache sets to test the placement
objective's monotonicity and diminishing returns.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import pytest

from cabaret_sim.catalog import Catalog, ContentId, PopularityRegion, RelationOracle
from cabaret_sim.demand import PositionDistribution, Recommender, Session
from cabaret_sim.errors import ParameterError
from cabaret_sim.explore import bfs
from cabaret_sim.placement import ObjectiveSpec
from cabaret_sim.recommend import CacheManifest


class CountingOracle(RelationOracle):
    """Relation oracle that counts queries, for query-budget assertions."""

    __slots__ = ("queries",)

    def __init__(self, catalog, w_max=50):
        super().__init__(catalog, w_max)
        self.queries = 0

    def related(self, content_id, width):
        self.queries += 1
        return super().related(content_id, width)


def random_catalog(
    rng: np.random.Generator, size: int, degree: int, with_weights: bool = True
) -> Catalog:
    """Uniform random related lists over ``size`` contents."""
    ids = [f"c{i:03d}" for i in range(size)]
    related = {}
    for i, cid in enumerate(ids):
        others = [x for x in ids if x != cid]
        deg = min(degree, len(others))
        picked = rng.choice(len(others), size=deg, replace=False)
        related[cid] = [others[j] for j in picked]
    weights = None
    if with_weights:
        weights = {cid: float(rng.random()) for cid in ids}
    return Catalog(related, weights)


def weighted_spec(support, weights, list_size, dist, params, oracle) -> ObjectiveSpec:
    """``ObjectiveSpec.build`` under the demand ``weights`` (content -> weight)."""
    table = {v: frozenset(bfs(v, params, oracle).entries) for v in support}
    return ObjectiveSpec(support, [weights[v] for v in support], list_size, dist, table)


def reference_bfs(seed, depth, width, oracle):
    """Level-order exploration by concatenate-then-deduplicate.

    Builds each level as the plain concatenation of the previous level's
    related lists, then removes already-seen entries keeping first
    occurrences.  Returns (entries, depths).
    """
    seen = {seed}
    entries, depths = [], []
    level = [seed]
    for d in range(1, depth + 1):
        raw = []
        for u in level:
            raw.extend(oracle.related(u, width))
        level = []
        for c in raw:
            if c not in seen:
                seen.add(c)
                level.append(c)
        entries.extend(level)
        depths.extend([d] * len(level))
        if not level:
            break
    return entries, depths


def _reference_pick_index(probs: tuple[float, ...], u: float) -> int:
    cum = list(accumulate(probs))
    return min(bisect_right(cum, u * cum[-1]), len(probs) - 1)


def reference_run_session(
    length: int,
    front_page: PopularityRegion,
    recommender: Recommender,
    dist: PositionDistribution,
    seed: int | None = None,
    cache: CacheManifest | None = None,
    rng: np.random.Generator | None = None,
) -> Session:
    """Simulate one user session of ``length`` watched contents.

    The first content is uniform over the front page; each subsequent one
    is drawn position-biased from the recommendation list for the content
    watched before it.  Pass ``rng`` to stream many sessions from one
    generator; otherwise a fresh PCG64 generator is seeded from ``seed``.
    """
    if length < 2:
        raise ParameterError(f"session length must be >= 2, got {length}")
    if not front_page.ids:
        raise ParameterError("front page is empty")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    current = front_page.ids[int(rng.integers(len(front_page.ids)))]
    watched = [current]
    hits = [cache is not None and current in cache]
    truncated = False
    for _ in range(length - 1):
        shown = recommender(current)
        if shown.empty:
            truncated = True
            break
        probs = dist.truncated(len(shown))
        idx = _reference_pick_index(probs, float(rng.random()))
        current = shown.entries[idx]
        watched.append(current)
        hits.append(shown.cached[idx])
    return Session(tuple(watched), tuple(hits), length, truncated, seed)


def reference_walk(
    length: int,
    start: int,
    uniforms,
    front_page: PopularityRegion,
    recommender: Recommender,
    dist: PositionDistribution,
    cache: CacheManifest | None = None,
) -> Session:
    """One session from a front-page index and one uniform per step.

    The same loop as ``reference_run_session``, with the random numbers
    passed in: ``uniforms[j]`` makes the pick of request ``j + 2``.
    """
    current = front_page.ids[start]
    watched = [current]
    hits = [cache is not None and current in cache]
    truncated = False
    for u in uniforms[: length - 1]:
        shown = recommender(current)
        if shown.empty:
            truncated = True
            break
        probs = dist.truncated(len(shown))
        idx = _reference_pick_index(probs, float(u))
        current = shown.entries[idx]
        watched.append(current)
        hits.append(shown.cached[idx])
    return Session(tuple(watched), tuple(hits), length, truncated)


def reference_exact_hit_rates(
    front_page: PopularityRegion,
    recommender: Recommender,
    dist: PositionDistribution,
    length: int,
) -> tuple[float, ...]:
    """Exact per-step cache-hit rates for sessions of ``length`` requests.

    Returns one rate per step 2..``length``.  The watched-content
    distribution starts uniform over the front page and is propagated
    through the deterministic per-content recommendation lists; a content
    with an empty list drops its probability mass (the sampled counterpart
    truncates, which counts as a miss at every remaining step).

    States are visited in sorted order so the floating-point result is
    reproducible bit for bit.
    """
    if length < 2:
        raise ParameterError(f"session length must be >= 2, got {length}")
    if not front_page.ids:
        raise ParameterError("front page is empty")

    transitions: dict[ContentId, tuple[tuple[ContentId, ...], tuple[float, ...], float]] = {}

    def transition(content: ContentId):
        cached_entry = transitions.get(content)
        if cached_entry is None:
            shown = recommender(content)
            if shown.empty:
                cached_entry = ((), (), 0.0)
            else:
                probs = dist.truncated(len(shown))
                # In position order; Python 3.12's sum() compensates rounding.
                hit_mass = 0.0
                for p, hit in zip(probs, shown.cached):
                    if hit:
                        hit_mass += p
                cached_entry = (shown.entries, probs, hit_mass)
            transitions[content] = cached_entry
        return cached_entry

    mass = {cid: 1.0 / len(front_page.ids) for cid in front_page.ids}
    rates: list[float] = []
    for _ in range(length - 1):
        next_mass: dict[ContentId, float] = {}
        rate = 0.0
        for content in sorted(mass):
            m = mass[content]
            entries, probs, hit_mass = transition(content)
            rate += m * hit_mass
            for entry, p in zip(entries, probs):
                next_mass[entry] = next_mass.get(entry, 0.0) + m * p
        # Summation error can push a full-cache rate just past 1.
        rates.append(min(rate, 1.0))
        mass = next_mass
        if not mass:
            rates.extend(0.0 for _ in range(length - 1 - len(rates)))
            break
    return tuple(rates)


@dataclass(frozen=True)
class SubmodularityReport:
    """Outcome of randomized monotonicity / diminishing-returns checks."""

    trials: int
    violations: int
    max_violation: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def check_submodularity(
    spec: ObjectiveSpec,
    trials: int = 10_000,
    seed: int = 0,
    tolerance: float = 1e-12,
) -> SubmodularityReport:
    """Sample nested sets and verify diminishing returns and monotonicity.

    Each trial draws ``A subset-of B`` from the explored universe and an
    element ``x`` outside ``B``, then checks ``gain(A, x) >= gain(B, x)``
    and ``objective(A) <= objective(B)`` within ``tolerance``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    universe = list(spec.universe)
    if len(universe) < 2:
        raise ParameterError("universe too small for submodularity sampling")
    max_b = min(len(universe) - 1, 12)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        b_size = int(rng.integers(0, max_b + 1))
        picked = rng.choice(len(universe), size=b_size, replace=False)
        b_set = [universe[i] for i in picked]
        a_set = b_set[: int(rng.integers(0, b_size + 1))]
        while True:
            x = universe[int(rng.integers(len(universe)))]
            if x not in b_set:
                break
        rows_a = spec.counts(a_set)
        rows_b = spec.counts(b_set)
        gain_gap = spec.gain(x, rows_b) - spec.gain(x, rows_a)
        mono_gap = spec.value_of_counts(rows_a) - spec.value_of_counts(rows_b)
        gap = max(gain_gap, mono_gap)
        if gap > tolerance:
            violations += 1
        worst = max(worst, gap)
    return SubmodularityReport(trials, violations, worst, tolerance)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))
