"""User demand models over recommendation lists.

A user entering the system picks one of the front-page contents uniformly
at random, then repeatedly follows recommendations: the content shown at
position ``i`` is selected with probability ``p_i``, where ``p`` is either
uniform or Zipf over positions and does not depend on the content shown.
When a realized list is shorter than the distribution, ``p`` is truncated
and renormalized, which preserves the position-bias shape; entries past
the distribution's last position are never selected.

Because every content's list is fixed, a session is a Markov chain over
contents.  A :class:`TransitionTable` holds that chain for one front page
in one row store: padded arrays indexed by state number, each row built
once on the state's first visit.  A row holds what the recommender said:
the list's width, the cached flags and the entries' state numbers.  A
:class:`~cabaret_sim.recommend.StateNumbers` numbers the states, and
tables that share one read each other's numbers as they are.  A table
builds its rows from a *row source*, which returns the rows of a batch of
states at once.  Every row source comes from :mod:`cabaret_sim.recommend`:
one that asks a recommender once per state
(:meth:`TransitionTable.from_recommender`), or one that derives its rows
from stored data with array operations, as the runner's tables do.
The position law is the user's, so each read names it, and both
evaluators read the rows through the law truncated to each width:

* :meth:`TransitionTable.hit_rates` propagates the watched-content
  distribution step by step with numpy, giving exact per-step hit rates.
  The rates of a session of ``K`` requests are a prefix of those of any
  longer session, so a table computes each step once per law and a
  shorter ``K`` takes a slice;
* :meth:`TransitionTable.sample` walks a batch of sessions together and
  returns their hit flags.  Every step places each session's draw among
  the cumulative sums for its row's width by one sorted search, which
  picks the same positions as bisecting them one session at a time.

:class:`Session`, :func:`run_session` (one session sampled straight from
a recommender) and :func:`exact_hit_rates` (the exact evaluator over a
fresh table) are per-content reference code kept for the tests and
``bench/tracing.py``; the runner evaluates its tables directly.
All sampling uses numpy's PCG64 generator; a session is a pure function of
its seed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import accumulate
from operator import add
from typing import Iterable

import numpy as np

from .catalog import ContentId, PopularityRegion
from .errors import ParameterError
from .recommend import CacheManifest, Recommender, RowSource, Rows, StateNumbers, list_rows


#: The most states whose rows an exact step reads at once.  A block costs
#: one ufunc call per position, so much smaller blocks cost time for little
#: memory.
STEP_BLOCK = 4096


def ordered_sum(values: Iterable[float]) -> float:
    """The sum of ``values`` added left to right.

    Python 3.12's ``sum()`` compensates rounding, so it can differ in the
    last bit from the plain in-order addition that Python 3.10 and 3.11
    do; this gives the latter's bits on every version.
    """
    return reduce(add, values, 0.0)


@dataclass(frozen=True)
class PositionDistribution:
    """Selection probabilities over recommendation-list positions.

    ``probs`` holds ``n >= 1`` finite, non-negative probabilities that sum
    to 1 within 1e-9, the first of them positive, since every truncation
    renormalizes a prefix; any other law raises ``ParameterError``.
    ``kind`` and ``alpha`` only name the law.
    """

    kind: str
    alpha: float
    n: int
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.probs) != self.n:
            raise ParameterError(
                f"position law needs n >= 1 probabilities, got n={self.n} "
                f"and {len(self.probs)}"
            )
        if not all(math.isfinite(p) and p >= 0 for p in self.probs):
            raise ParameterError(f"position probabilities must be finite and >= 0: {self.probs}")
        if abs(math.fsum(self.probs) - 1.0) > 1e-9:
            raise ParameterError(f"position probabilities must sum to 1: {self.probs}")
        if self.probs[0] == 0:
            raise ParameterError(f"position 1 must have a positive probability: {self.probs}")

    def truncated(self, length: int) -> tuple[float, ...]:
        """The first ``length`` probabilities, renormalized to sum to 1."""
        if length >= self.n:
            return self.probs
        if length < 1:
            raise ParameterError(f"length must be >= 1, got {length}")
        head = self.probs[:length]
        total = ordered_sum(head)
        return tuple(p / total for p in head)


def _zipf_weight(position: int, alpha: float) -> float:
    try:
        return 1.0 / position**alpha
    except OverflowError:
        # A weight below the smallest float: the position is never picked.
        return 0.0


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
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ParameterError(f"zipf alpha must be finite and >= 0, got {alpha}")
        weights = [_zipf_weight(i, alpha) for i in range(1, n + 1)]
        total = ordered_sum(weights)
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


def _check_session(length: int, front_page: PopularityRegion) -> None:
    if length < 2:
        raise ParameterError(f"session length must be >= 2, got {length}")
    if not front_page.ids:
        raise ParameterError("front page is empty")


class TransitionTable:
    """The session Markov chain of one front page and row source.

    A row is built on a state's first visit, so the table asks its row
    source about exactly the states an evaluator reaches: a sampled session
    about the states it walks through, and exact rates for ``K`` requests
    about every state within ``K - 2`` steps of the front page, in sorted-id
    order within a step.  Rows hold no position law, so one table serves
    every law of ``n`` positions.  States are numbered by ``states``, which
    tables and row sources may share.  A row-source error propagates and
    leaves the table as it was.
    """

    def __init__(
        self, front_page: PopularityRegion, rows: RowSource, n: int, states: StateNumbers
    ):
        self.front_page = front_page
        self.n = n
        self.states = states
        self._rows = rows
        # One padded row per state number: the first ``_width`` entries of
        # its list (-1 until built), their cached flags and state numbers.
        self._width = np.empty(0, dtype=np.intp)
        self._cached = np.empty((0, n), dtype=bool)
        self._next = np.empty((0, n), dtype=np.int32)
        self._runs: dict[PositionDistribution, _Propagation] = {}

    @classmethod
    def from_recommender(
        cls,
        front_page: PopularityRegion,
        recommender: Recommender,
        n: int,
        states: StateNumbers | None = None,
    ) -> TransitionTable:
        """The table of a recommender that returns lists, numbered by ``states``."""
        states = StateNumbers() if states is None else states
        return cls(front_page, list_rows(recommender, n, states), n, states)

    def rows(self, states: list[int]) -> Rows:
        """The rows of ``states``, building those not built yet."""
        at = np.array(states, dtype=np.intp)
        self._load(at)
        return self._width[at], self._cached[at], self._next[at]

    def hit_rates(self, dist: PositionDistribution, length: int) -> tuple[float, ...]:
        """Exact per-step cache-hit rates for sessions of ``length`` requests under ``dist``.

        Returns one rate per step 2..``length``.  The watched-content
        distribution starts uniform over the front page and is propagated
        through the per-content rows; a content with an empty list drops
        its probability mass (the sampled counterpart truncates, which
        counts as a miss at every remaining step).

        States are visited in sorted-id order and every sum adds in that
        order, so the result is reproducible bit for bit and equal to a
        state-by-state dict propagation.
        """
        _check_session(length, self.front_page)
        law = self._law(dist)
        run = self._runs.get(dist)
        if run is None:
            ids = self.front_page.ids
            states = np.array(self.states.numbers(sorted(ids)), dtype=np.intp)
            run = self._runs[dist] = _Propagation(states, np.full(len(states), 1.0 / len(ids)))
        while len(run.rates) < length - 1:
            self._step(law, run)
        return tuple(run.rates[: length - 1])

    def sample(
        self, dist: PositionDistribution, length: int, sessions: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Hit flags of ``sessions`` sampled sessions of ``length`` requests under ``dist``.

        Draws the front-page starts with one ``rng.integers`` call and then
        one ``rng.random(sessions)`` call per step, and walks them with
        :meth:`walk`.  Returns the ``sessions`` × ``length - 1`` matrix.
        """
        _check_session(length, self.front_page)
        starts = rng.integers(len(self.front_page.ids), size=sessions)
        uniforms = np.stack([rng.random(sessions) for _ in range(length - 1)], axis=1)
        return self.walk(dist, starts, uniforms)

    def walk(
        self, dist: PositionDistribution, starts: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Walk one session per entry of ``starts`` under ``dist``, all sessions together.

        Session ``m`` starts at ``front_page.ids[starts[m]]`` and makes its
        ``j``-th pick with the uniform ``uniforms[m, j]``, as
        :func:`run_session` does with the same numbers, so the walk is a
        pure function of ``starts`` and ``uniforms``.  Returns the boolean
        matrix of the hit flags of requests 2..K, one row per session and
        one column per column of ``uniforms``.  A session that reaches an
        empty list is truncated and misses at every remaining step.

        Before each step the rows of the states the live sessions sit on
        are built, so the row source is asked about exactly the states the
        walks reach.  Those states are the nonzero slots of a ``bincount``
        of the sessions' state numbers: each once, with no sort.  A pick
        counts the cumulative sums for the row's width at or below the
        draw, which is ``bisect_right`` with the same float operations, by
        one sorted search per session in the law's keys (see
        :meth:`_Law.below`); no step holds a sessions × positions array.
        """
        law = self._law(dist)
        sessions, steps = uniforms.shape
        hits = np.zeros((sessions, steps), dtype=bool)
        front = np.array(self.states.numbers(list(self.front_page.ids)), dtype=np.intp)
        state = front[starts]
        live = np.arange(sessions)
        for j in range(steps):
            self._load(np.flatnonzero(np.bincount(state[live], minlength=len(self.states))))
            live = live[self._width[state[live]] > 0]
            at = state[live]
            width = self._width[at]
            drawn = uniforms[live, j] * law.last[width]
            pick = np.minimum(law.below(width, drawn), width - 1)
            hits[live, j] = self._cached[at, pick]
            state[live] = self._next[at, pick]
        return hits

    def _law(self, dist: PositionDistribution) -> _Law:
        """The per-width arrays of ``dist``, shared by every table."""
        if dist.n != self.n:
            raise ParameterError(f"position law has n={dist.n}, the table n={self.n}")
        return _law_arrays(dist)

    def _load(self, states: np.ndarray) -> None:
        """Build the rows of ``states`` not built yet, in sorted-id order.

        Every read of the row store follows a load of the states it reads,
        so the store grows here only.
        """
        self._reserve()
        fresh = states[self._width[states] < 0]
        if not len(fresh):
            return
        fresh = fresh[np.argsort(self.states.rank[fresh])].tolist()
        # The only call that can raise; nothing has changed before it.
        width, cached, entries = self._rows(fresh)
        self._width[fresh] = width
        self._cached[fresh] = cached
        self._next[fresh] = entries

    def _reserve(self) -> None:
        """Grow the row store to cover every numbered state."""
        have, need = len(self._width), len(self.states)
        if have >= need:
            return
        extra = max(need, 2 * have) - have
        self._width = np.concatenate((self._width, np.full(extra, -1, dtype=np.intp)))
        self._cached = np.concatenate((self._cached, np.zeros((extra, self.n), dtype=bool)))
        self._next = np.concatenate((self._next, np.full((extra, self.n), -1, dtype=np.int32)))

    def _step(self, law: _Law, run: _Propagation) -> None:
        """Record ``run``'s next hit rate under ``law`` and move its mass one step on.

        The states are read in blocks of at most :data:`STEP_BLOCK`, so the
        only (states × positions) arrays are one block's rows: the law's
        probabilities for each width, weighted in place, the cached flags
        and the next states.  A pad holds next state -1 and probability
        0.0, so no mask is needed.
        """
        states = run.states
        if not len(states):
            run.rates.append(0.0)
            return
        self._load(states)
        size = len(self.states) + 1
        hit = np.zeros(len(states))
        reached = np.zeros(size, dtype=np.intp)
        for first in range(0, len(states), STEP_BLOCK):
            block = slice(first, first + STEP_BLOCK)
            at = states[block]
            p = law.p[self._width[at]]
            cached = self._cached[at]
            # Each state's hit mass adds its positions in order, as a
            # state-by-state loop does; np.sum would add pairwise and round
            # differently.  Skipping a miss equals adding its exact 0.0.
            part = hit[block]
            for i in range(self.n):
                np.add(part, p[:, i], out=part, where=cached[:, i])
            p *= run.mass[block, None]
            # Blocks go in state order, each in row-major order (state, then
            # position), and bincount and add.at both add in input order, so
            # every state's mass adds as a state-by-state loop does.
            # bincount, the faster, starts the sum.  Shifted by one, a pad's
            # -1 lands in slot 0, which is dropped.
            dst = np.add(self._next[at], 1, dtype=np.intp).ravel()
            if first:
                np.add.at(mass, dst, p.ravel())
            else:
                mass = np.bincount(dst, weights=p.ravel(), minlength=size)
            # A state whose mass underflows to 0.0 is still reached.
            reached += np.bincount(dst, minlength=size)
        rate = np.cumsum(run.mass * hit)[-1]
        # Summation error can push a full-cache rate just past 1.
        run.rates.append(min(float(rate), 1.0))
        reached = np.flatnonzero(reached[1:])
        run.states = reached[np.argsort(self.states.rank[reached])]
        run.mass = mass[run.states + 1]


class _Law:
    """One position law as tables read it; built once per law and process.

    Indexed by row width 0..n: ``p``, the law truncated to that width and
    padded with 0, and ``last``, its total.  ``keys`` holds each width's
    cumulative sums as the complex numbers ``width + sum·j``, width-major,
    so they are sorted: numpy orders complex numbers by real part, then by
    imaginary part.  Every array is read-only, since tables share them.
    """

    def __init__(self, dist: PositionDistribution):
        n = dist.n
        self.p = np.zeros((n + 1, n))
        for width in range(1, n + 1):
            self.p[width, :width] = dist.truncated(width)
        # cumsum adds in position order, as accumulate() does; adding 0.0 is exact.
        cum = np.cumsum(self.p, axis=1)
        self.last = cum[:, -1]
        widths = np.arange(n + 1)
        self.keys = np.empty(n * (n + 1) // 2, dtype=complex)
        self.keys.real = np.repeat(widths, widths)
        self.keys.imag = cum[np.arange(n) < widths[:, None]]
        for array in (self.p, self.last, self.keys):
            array.flags.writeable = False

    def below(self, width: np.ndarray, drawn: np.ndarray) -> np.ndarray:
        """How many of the cumulative sums for each ``width`` lie at or below ``drawn``.

        One sorted search per draw: the keys at or below ``width + drawn·j``
        are those of every narrower width, ``width·(width - 1)/2`` of them,
        and the sums of ``width`` itself at or below ``drawn``.
        """
        probe = np.empty(len(width), dtype=complex)
        probe.real = width
        probe.imag = drawn
        return np.searchsorted(self.keys, probe, "right") - width * (width - 1) // 2


# One _Law per distinct law, however many tables read it.
_law_arrays = cache(_Law)


@dataclass
class _Propagation:
    """One table's exact propagation of one law.

    The states holding mass, in id order, their mass, and the hit rates of
    the steps taken so far.
    """

    states: np.ndarray
    mass: np.ndarray
    rates: list[float] = field(default_factory=list)


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
    watched before it, by bisecting the cumulative sums of the law
    truncated to the list's length.  Pass ``rng`` to stream many sessions
    from one generator; otherwise a fresh PCG64 generator is seeded from
    ``seed``.
    """
    _check_session(length, front_page)
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    ids = front_page.ids
    current = ids[int(rng.integers(len(ids)))]
    watched = [current]
    hits = [cache is not None and current in cache]
    truncated = False
    for _ in range(length - 1):
        shown = recommender(current)
        if shown.empty:
            truncated = True
            break
        cum = list(accumulate(dist.truncated(len(shown))))
        idx = min(bisect_right(cum, float(rng.random()) * cum[-1]), len(cum) - 1)
        current = shown.entries[idx]
        watched.append(current)
        hits.append(shown.cached[idx])
    return Session(tuple(watched), tuple(hits), length, truncated, seed)


def exact_hit_rates(
    front_page: PopularityRegion,
    recommender: Recommender,
    dist: PositionDistribution,
    length: int,
) -> tuple[float, ...]:
    """Exact per-step cache-hit rates; see :meth:`TransitionTable.hit_rates`."""
    return TransitionTable.from_recommender(front_page, recommender, dist.n).hit_rates(
        dist, length
    )
