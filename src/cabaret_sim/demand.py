"""User demand models over recommendation lists.

A user entering the system picks one of the front-page contents uniformly
at random, then repeatedly follows recommendations: the content shown at
position ``i`` is selected with probability ``p_i``, where ``p`` is either
uniform or Zipf over positions and does not depend on the content shown.
When a realized list is shorter than the distribution, ``p`` is truncated
and renormalized, which preserves the position-bias shape.

Two exact evaluators complement Monte-Carlo session sampling:

* :func:`enumerate_single_requests` sums the two-request cache-hit
  expectation in closed form over every possible starting content;
* :func:`exact_hit_rates` propagates the full watched-content distribution
  step by step (the recommendation process is a Markov chain over contents
  because lists are deterministic per content), giving exact per-step hit
  rates for any session length.

All sampling uses numpy's PCG64 generator; a session is a pure function of
its seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .catalog import ContentId, PopularityRegion
from .errors import ParameterError
from .recommend import CacheManifest, RecommendationList

Recommender = Callable[[ContentId], RecommendationList]


@dataclass(frozen=True)
class PositionDistribution:
    """Selection probabilities over recommendation-list positions."""

    kind: str
    alpha: float
    n: int
    probs: tuple[float, ...]

    def truncated(self, length: int) -> tuple[float, ...]:
        """The first ``length`` probabilities, renormalized to sum to 1."""
        if length >= self.n:
            return self.probs
        if length < 1:
            raise ParameterError(f"length must be >= 1, got {length}")
        head = self.probs[:length]
        total = sum(head)
        return tuple(p / total for p in head)


def position_probs(kind: str, alpha: float = 0.0, n: int = 1) -> PositionDistribution:
    """Build a uniform or Zipf position distribution over ``n`` slots.

    ``uniform`` gives every position probability ``1/n``; ``zipf`` weighs
    position ``i`` proportionally to ``1/i**alpha`` (``alpha = 0`` recovers
    the uniform case).
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if kind == "uniform":
        return PositionDistribution("uniform", 0.0, n, (1.0 / n,) * n)
    if kind == "zipf":
        if alpha < 0:
            raise ParameterError(f"zipf alpha must be >= 0, got {alpha}")
        weights = [1.0 / (i**alpha) for i in range(1, n + 1)]
        total = sum(weights)
        return PositionDistribution("zipf", alpha, n, tuple(w / total for w in weights))
    raise ParameterError(f"unknown distribution kind {kind!r}")


@dataclass(frozen=True)
class Session:
    """One user's watched sequence with per-step cache-hit flags.

    ``hits[0]`` refers to the front-page pick and is only meaningful when
    the session was run with a cache; metrics use steps 2 onward.  A
    session is ``truncated`` when a recommendation list came back empty
    before the requested length was reached.
    """

    watched: tuple[ContentId, ...]
    hits: tuple[bool, ...]
    requested_length: int
    truncated: bool = False
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.watched)


def _pick_index(probs: tuple[float, ...], u: float) -> int:
    cum = list(accumulate(probs))
    return min(bisect_right(cum, u * cum[-1]), len(probs) - 1)


def run_session(
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
        idx = _pick_index(probs, float(rng.random()))
        current = shown.entries[idx]
        watched.append(current)
        hits.append(shown.cached[idx])
    return Session(tuple(watched), tuple(hits), length, truncated, seed)


def enumerate_single_requests(
    front_page: PopularityRegion,
    recommender: Recommender,
    dist: PositionDistribution,
) -> float:
    """Exact expected cache-hit ratio of the second request.

    Averages, over every front-page starting content, the probability mass
    of the cached entries in its recommendation list.  This is the infinite
    sample limit of two-request session sampling and serves as its oracle.
    """
    if not front_page.ids:
        raise ParameterError("front page is empty")
    total = 0.0
    for start in front_page.ids:
        shown = recommender(start)
        if shown.empty:
            continue
        probs = dist.truncated(len(shown))
        total += sum(p for p, hit in zip(probs, shown.cached) if hit)
    return total / len(front_page.ids)


def exact_hit_rates(
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
                hit_mass = sum(p for p, hit in zip(probs, shown.cached) if hit)
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
