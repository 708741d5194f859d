"""User demand models over recommendation lists.

A user entering the system picks one of the front-page contents uniformly
at random, then repeatedly follows recommendations: the content shown at
position ``i`` is selected with probability ``p_i``, where ``p`` is either
uniform or Zipf over positions and does not depend on the content shown.
When a realized list is shorter than the distribution, ``p`` is truncated
and renormalized, which preserves the position-bias shape.

Because every content's list is fixed, a session is a Markov chain over
contents.  A :class:`TransitionTable` holds that chain for one front page,
recommender and position law.  A row is built on a state's first visit and
holds its entries, truncated probabilities and their cumulative sums, its
cached flags and its hit mass.  Both evaluators read the same rows:

* :meth:`TransitionTable.hit_rates` propagates the watched-content
  distribution step by step with numpy, giving exact per-step hit rates.
  The rates of a session of ``K`` requests are a prefix of those of any
  longer session, so a table computes each step once and a shorter ``K``
  takes a slice;
* :meth:`TransitionTable.sample` walks a batch of sessions together and
  returns their hit flags.  Every step compares the sessions' draws with
  padded per-state copies of the rows' cumulative sums, which picks the
  same positions as bisecting them one session at a time;
* :meth:`TransitionTable.session` samples one session, drawing each next
  position by bisecting the row's cumulative sums.

:func:`exact_hit_rates` and :func:`run_session` are the exact evaluator and
the one-session sampler over a fresh table.  All sampling uses numpy's
PCG64 generator; a session is a pure function of its seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple

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
        if alpha < 0:
            raise ParameterError(f"zipf alpha must be >= 0, got {alpha}")
        weights = [_zipf_weight(i, alpha) for i in range(1, n + 1)]
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


def _check_session(length: int, front_page: PopularityRegion) -> None:
    if length < 2:
        raise ParameterError(f"session length must be >= 2, got {length}")
    if not front_page.ids:
        raise ParameterError("front page is empty")


class Row(NamedTuple):
    """One state's transitions; every field is empty for an empty list."""

    entries: tuple[ContentId, ...]
    probs: tuple[float, ...]
    cum: tuple[float, ...]
    cached: tuple[bool, ...]

    @property
    def hit_mass(self) -> float:
        """The probability that the next request is a cache hit."""
        return sum(p for p, hit in zip(self.probs, self.cached) if hit)


class TransitionTable:
    """The session Markov chain of one front page, recommender and position law.

    Rows are built on a state's first visit, so the table asks the
    recommender about exactly the states an evaluator reaches: a sampled
    session about the states it walks through, and exact rates for ``K``
    requests about every state within ``K - 2`` steps of the front page, in
    sorted-id order within a step.  A recommender error propagates and
    leaves the computed steps as they were.
    """

    def __init__(
        self,
        front_page: PopularityRegion,
        recommender: Recommender,
        dist: PositionDistribution,
    ):
        self.front_page = front_page
        self.recommender = recommender
        self.dist = dist
        self._laws: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {}
        self._rows: dict[ContentId, Row] = {}
        # Both evaluators number states on discovery; exact propagation
        # flattens a state's row into the CSR arrays ``_dst``/``_p`` on its
        # first step.
        self._number: dict[ContentId, int] = {}
        self._ids: list[ContentId] = []
        self._start: list[int] = []  # per state, -1 until flattened
        self._length: list[int] = []
        self._hit: list[float] = []
        self._dst: np.ndarray | None = None
        self._p: np.ndarray | None = None
        self._states: np.ndarray | None = None  # states holding mass, by id
        self._mass: np.ndarray | None = None
        self._rates: list[float] = []
        # The sampler copies the rows of the states it reaches into padded
        # arrays indexed by state number: cumulative sums (padded with inf),
        # their last value, the row's length (-1 until copied), cached flags
        # and the entries' state numbers (-1 until a walk lands there).
        n = dist.n
        self._cum = np.empty((0, n))
        self._last = np.empty(0)
        self._width = np.empty(0, dtype=np.intp)
        self._cached = np.empty((0, n), dtype=bool)
        self._next = np.empty((0, n), dtype=np.intp)

    def row(self, content: ContentId) -> Row:
        """The transitions out of ``content``, built on first use."""
        row = self._rows.get(content)
        if row is None:
            shown = self.recommender(content)
            if shown.empty:
                row = Row((), (), (), ())
            else:
                law = self._laws.get(len(shown))
                if law is None:
                    probs = self.dist.truncated(len(shown))
                    law = self._laws[len(shown)] = (probs, tuple(accumulate(probs)))
                row = Row(shown.entries, *law, shown.cached)
            self._rows[content] = row
        return row

    def hit_rates(self, length: int) -> tuple[float, ...]:
        """Exact per-step cache-hit rates for sessions of ``length`` requests.

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
        if self._states is None:
            ids = self.front_page.ids
            self._states = np.array(self._numbers(sorted(set(ids))), dtype=np.intp)
            self._mass = np.full(len(self._states), 1.0 / len(ids))
            self._dst = np.empty(0, dtype=np.intp)
            self._p = np.empty(0)
        while len(self._rates) < length - 1:
            self._step()
        return tuple(self._rates[: length - 1])

    def session(
        self,
        length: int,
        seed: int | None = None,
        cache: CacheManifest | None = None,
        rng: np.random.Generator | None = None,
    ) -> Session:
        """Sample one session of ``length`` watched contents; see :func:`run_session`."""
        _check_session(length, self.front_page)
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(seed))
        ids = self.front_page.ids
        current = ids[int(rng.integers(len(ids)))]
        watched = [current]
        hits = [cache is not None and current in cache]
        truncated = False
        for _ in range(length - 1):
            entries, _, cum, cached = self.row(current)
            if not entries:
                truncated = True
                break
            idx = min(bisect_right(cum, float(rng.random()) * cum[-1]), len(cum) - 1)
            current = entries[idx]
            watched.append(current)
            hits.append(cached[idx])
        return Session(tuple(watched), tuple(hits), length, truncated, seed)

    def sample(self, length: int, sessions: int, rng: np.random.Generator) -> np.ndarray:
        """Hit flags of ``sessions`` sampled sessions of ``length`` requests.

        Draws the front-page starts with one ``rng.integers`` call and then
        one ``rng.random(sessions)`` call per step, and walks them with
        :meth:`walk`.  Returns the ``sessions`` × ``length - 1`` matrix.
        """
        _check_session(length, self.front_page)
        starts = rng.integers(len(self.front_page.ids), size=sessions)
        uniforms = np.stack([rng.random(sessions) for _ in range(length - 1)], axis=1)
        return self.walk(starts, uniforms)

    def walk(self, starts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Walk one session per entry of ``starts``, all sessions together.

        Session ``m`` starts at ``front_page.ids[starts[m]]`` and makes its
        ``j``-th pick with the uniform ``uniforms[m, j]``, as
        :meth:`session` does with the same numbers, so the walk is a pure
        function of ``starts`` and ``uniforms``.  Returns the boolean
        matrix of the hit flags of requests 2..K, one row per session and
        one column per column of ``uniforms``.  A session that reaches an
        empty list is truncated and misses at every remaining step.

        Before each step the rows of the states the live sessions sit on
        are built, in sorted-id order, so the recommender is asked about
        exactly the states the walks reach.  A pick counts the padded
        cumulative sums at or below the draw, which is ``bisect_right``
        with the same float operations; its temporary holds
        ``len(starts)`` × ``dist.n`` booleans.
        """
        sessions, steps = uniforms.shape
        hits = np.zeros((sessions, steps), dtype=bool)
        front = np.array(self._numbers(list(self.front_page.ids)), dtype=np.intp)
        state = front[starts]
        live = np.arange(sessions)
        for j in range(steps):
            self._load(np.unique(state[live]))
            live = live[self._width[state[live]] > 0]
            at = state[live]
            drawn = uniforms[live, j] * self._last[at]
            below = (self._cum[at] <= drawn[:, None]).sum(axis=1)
            pick = np.minimum(below, self._width[at] - 1)
            hits[live, j] = self._cached[at, pick]
            landed = self._next[at, pick]
            unnumbered = landed < 0
            if unnumbered.any():
                self._number_entries(at[unnumbered], pick[unnumbered])
                landed = self._next[at, pick]
            state[live] = landed
        return hits

    def _load(self, states: np.ndarray) -> None:
        """Copy the rows of ``states`` into the sampler's padded arrays.

        Rows not built yet are built in sorted-id order.
        """
        self._reserve()
        fresh = states[self._width[states] < 0].tolist()
        fresh.sort(key=self._ids.__getitem__)
        # The only call that can raise; nothing has changed before it.
        rows = [self.row(self._ids[s]) for s in fresh]
        if not rows:
            return
        widths = np.array([len(row.cum) for row in rows], dtype=np.intp)
        filled = np.arange(self.dist.n) < widths[:, None]
        cum = np.full(filled.shape, np.inf)
        cum[filled] = [p for row in rows for p in row.cum]
        cached = np.zeros(filled.shape, dtype=bool)
        cached[filled] = [hit for row in rows for hit in row.cached[: len(row.cum)]]
        self._cum[fresh] = cum
        self._last[fresh] = cum[np.arange(len(rows)), np.maximum(widths - 1, 0)]
        self._cached[fresh] = cached
        self._width[fresh] = widths

    def _number_entries(self, states: np.ndarray, picks: np.ndarray) -> None:
        """Number the entries at ``picks`` of the rows of ``states``."""
        n = self.dist.n
        states, picks = np.divmod(np.unique(states * n + picks), n)
        rows = self._rows
        ids = self._ids
        entries = [rows[ids[s]].entries[i] for s, i in zip(states.tolist(), picks.tolist())]
        self._next[states, picks] = self._numbers(entries)

    def _reserve(self) -> None:
        """Grow the sampler's arrays to cover every numbered state."""
        have = len(self._width)
        if have >= len(self._ids):
            return
        extra = max(len(self._ids), 2 * have) - have
        n = self.dist.n
        self._cum = np.concatenate((self._cum, np.full((extra, n), np.inf)))
        self._last = np.concatenate((self._last, np.zeros(extra)))
        self._width = np.concatenate((self._width, np.full(extra, -1, dtype=np.intp)))
        self._cached = np.concatenate((self._cached, np.zeros((extra, n), dtype=bool)))
        self._next = np.concatenate((self._next, np.full((extra, n), -1, dtype=np.intp)))

    def _numbers(self, contents: list[ContentId]) -> list[int]:
        """The state numbers of ``contents``, numbering new states in order."""
        number = self._number
        new = [c for c in dict.fromkeys(contents) if c not in number]
        if new:
            first = len(self._ids)
            number.update(zip(new, range(first, first + len(new))))
            self._ids += new
            self._start += [-1] * len(new)
            self._length += [0] * len(new)
            self._hit += [0.0] * len(new)
        return [number[c] for c in contents]

    def _step(self) -> None:
        """Record the next step's hit rate and move the mass one step on."""
        states = self._states
        if not len(states):
            self._rates.append(0.0)
            return
        fresh = [s for s in states.tolist() if self._start[s] < 0]
        # The only call that can raise; nothing has changed before it.
        rows = [self.row(self._ids[s]) for s in fresh]
        offset = len(self._p)
        for s, row in zip(fresh, rows):
            self._start[s] = offset
            self._length[s] = len(row.entries)
            self._hit[s] = row.hit_mass
            offset += len(row.entries)
        dst = self._numbers([c for row in rows for c in row.entries])
        probs = [p for row in rows for p in row.probs]
        self._dst = np.concatenate((self._dst, np.array(dst, dtype=np.intp)))
        self._p = np.concatenate((self._p, np.array(probs, dtype=float)))

        # Gather the rows of ``states`` as one CSR slice, in state order.
        starts = np.array(self._start)[states]
        lengths = np.array(self._length)[states]
        offsets = np.cumsum(lengths) - lengths
        at = np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)
        dst_at = self._dst[at]
        # cumsum and bincount add in input order, as a state-by-state loop
        # does; np.sum would add pairwise and round differently.
        rate = np.cumsum(self._mass * np.array(self._hit)[states])[-1]
        # Summation error can push a full-cache rate just past 1.
        self._rates.append(min(float(rate), 1.0))
        n = len(self._ids)
        weights = np.repeat(self._mass, lengths) * self._p[at]
        mass = np.bincount(dst_at, weights=weights, minlength=n)
        # A state whose mass underflows to 0.0 is still reached.
        reached = np.flatnonzero(np.bincount(dst_at, minlength=n))
        self._states = np.array(sorted(reached.tolist(), key=self._ids.__getitem__), dtype=np.intp)
        self._mass = mass[self._states]


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
    return TransitionTable(front_page, recommender, dist).session(length, seed, cache, rng)


def exact_hit_rates(
    front_page: PopularityRegion,
    recommender: Recommender,
    dist: PositionDistribution,
    length: int,
) -> tuple[float, ...]:
    """Exact per-step cache-hit rates; see :meth:`TransitionTable.hit_rates`."""
    return TransitionTable(front_page, recommender, dist).hit_rates(length)


def enumerate_single_requests(
    front_page: PopularityRegion,
    recommender: Recommender,
    dist: PositionDistribution,
) -> float:
    """Exact expected cache-hit ratio of the second request."""
    return exact_hit_rates(front_page, recommender, dist, 2)[0]
