"""Cache placement: hit-ratio objective, greedy and exact solvers.

The objective values a cache set by the probability that a user's second
request is served from it: the ``K = 2`` hit rate the evaluator reports
for CABaRet lists.  A demand-support content's list holds
``min(N, len(exploration))`` entries, cached ones first, and its next
request follows the position law truncated to that length, as in
:meth:`~cabaret_sim.demand.PositionDistribution.truncated`.  So ``c``
cached contents inside the exploration collect the first ``min(c, length)``
prefix sums of that row's truncated law, weighted by the content's demand
share.

Each row's prefix sums of a non-increasing law are concave in ``c``, so the
objective is monotone and submodular, and the greedy maximizer is run with
lazy evaluation (CELF; Leskovec et al., KDD 2007): stale marginal gains are
kept in a max-heap and only the top candidate is re-evaluated, which is
valid because gains can only shrink as the chosen set grows.  Candidates
whose inverted rows (see below) are equal add equal terms in equal order,
so their gains agree to the last bit.  The heap is therefore held as
parts, the candidates of one row signature last evaluated at one pick, in
id order.  One gain evaluation per pick serves every candidate of a
signature, and the picks, gains and values are those of a heap with one
entry per candidate.

In exact arithmetic lazy greedy's output is that of naive greedy, which
re-evaluates every gain and takes the first maximum in id order.  In
floating point it need not be: a gain evaluated earlier can round below
the same gain evaluated later, so a stale heap entry can sit under its
content's true gain, and a content of equal gain with a larger id is
picked first.  The two agree when every gain is exact in binary, as with a
power-of-two support and a uniform law over ``2**k`` positions.  A
brute-force solver provides exact optima for instances of at most
:data:`BRUTE_FORCE_LIMIT` subsets.  Both solvers choose among the explored
universe, the contents found in some support content's exploration.

Exploration lists are computed once per spec, and a spec is built once per
front page: :meth:`ObjectiveSpec.under` re-prices it under each position
law.  Marginal gains use an inverted index (content -> demand contents
whose exploration contains it), so one gain evaluation touches only the
affected demand rows.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations
from typing import Iterable, Mapping, Sequence

from .catalog import Catalog, ContentId, RelationOracle, top_popular
from .demand import PositionDistribution, ordered_sum
from .errors import InstanceTooLargeError, ParameterError
from .explore import BfsParams, bfs

#: The most subsets :func:`exact_placement` enumerates.
BRUTE_FORCE_LIMIT = 10_000_000


class ObjectiveSpec:
    """Frozen inputs of the placement objective.

    Holds the demand support with normalized weights, the per-content
    exploration sets, the inverted index used for fast marginal gains, and
    each support row's prefix sums of its truncated position law.  Build
    once per front page and evaluate many times; :meth:`under` derives the
    prefix sums of another position law and shares everything else.
    """

    __slots__ = ("support", "weights", "list_size", "masses", "table", "inverted", "universe")

    def __init__(
        self,
        support: Sequence[ContentId],
        weights: Sequence[float],
        list_size: int,
        dist: PositionDistribution,
        table: Mapping[ContentId, frozenset[ContentId]],
    ):
        if not support:
            raise ParameterError("empty demand support")
        if len(weights) != len(support):
            raise ParameterError("weights must align with support")
        if list_size < 1:
            raise ParameterError(f"list_size must be >= 1, got {list_size}")
        for v, w in zip(support, weights):
            if not (math.isfinite(w) and w >= 0):
                raise ParameterError(f"support weight of {v!r} must be finite and >= 0, got {w}")
        self.support = tuple(support)
        total = ordered_sum(weights)
        if not 0 < total < math.inf:
            raise ParameterError("support weights must have a finite positive total")
        self.weights = tuple(w / total for w in weights)
        self.list_size = list_size
        self.table = {v: frozenset(table[v]) for v in self.support}
        inverted: dict[ContentId, list[int]] = {}
        for i, v in enumerate(self.support):
            for c in self.table[v]:
                inverted.setdefault(c, []).append(i)
        self.inverted = {c: tuple(rows) for c, rows in inverted.items()}
        self.universe = tuple(sorted(self.inverted))
        self.masses = self._masses(dist)

    def under(self, dist: PositionDistribution) -> "ObjectiveSpec":
        """This spec, of its own type, with the prefix sums of ``dist``."""
        derived = copy.copy(self)
        derived.masses = self._masses(dist)
        return derived

    def _masses(self, dist: PositionDistribution) -> tuple[tuple[float, ...], ...]:
        """Each row's prefix sums of ``dist`` truncated to the row's length."""
        if dist.n != self.list_size:
            raise ParameterError(f"position law has n={dist.n}, the list size is {self.list_size}")
        # Row v's list holds min(N, |exploration|) entries; an empty one
        # collects nothing, and a law truncated past its width keeps it.
        by_length: dict[int, tuple[float, ...]] = {0: (0.0,)}
        masses = []
        for v in self.support:
            length = min(self.list_size, len(self.table[v]))
            mass = by_length.get(length)
            if mass is None:
                mass = by_length[length] = (0.0, *accumulate(dist.truncated(length)))
            masses.append(mass)
        return tuple(masses)

    @classmethod
    def build(
        cls,
        support: Sequence[ContentId],
        list_size: int,
        dist: PositionDistribution,
        params: BfsParams,
        oracle: RelationOracle,
    ) -> "ObjectiveSpec":
        """Explore every support content and assemble the spec, under uniform demand."""
        support = tuple(support)
        table = {v: frozenset(bfs(v, params, oracle).entries) for v in support}
        return cls(support, [1.0] * len(support), list_size, dist, table)

    def counts(self, cache_ids: Iterable[ContentId]) -> list[int]:
        """Per-support-row count of cached contents inside the exploration."""
        rows = [0] * len(self.support)
        for c in set(cache_ids):
            for i in self.inverted.get(c, ()):
                rows[i] += 1
        return rows

    def value_of_counts(self, rows: Sequence[int]) -> float:
        return ordered_sum(
            q * (mass[n] if n < len(mass) else mass[-1])
            for q, mass, n in zip(self.weights, self.masses, rows)
        )

    def gain(self, content: ContentId, rows: Sequence[int]) -> float:
        """Marginal objective increase of adding ``content`` given row counts."""
        masses = self.masses
        total = 0.0
        for i in self.inverted.get(content, ()):
            mass = masses[i]
            n = rows[i]
            if n + 1 < len(mass):
                total += self.weights[i] * (mass[n + 1] - mass[n])
        return total

    def add_to_counts(self, content: ContentId, rows: list[int]) -> None:
        for i in self.inverted.get(content, ()):
            rows[i] += 1


def objective(spec: ObjectiveSpec, cache_ids: Iterable[ContentId]) -> float:
    """Expected next-request hit probability of ``cache_ids`` under ``spec``."""
    return spec.value_of_counts(spec.counts(cache_ids))


@dataclass(frozen=True)
class PlacementResult:
    """A chosen cache set with its objective trajectory.

    ``chosen`` is in selection order for greedy and top placements and in
    id order for the exact solver.  ``filled`` counts trailing slots that
    were topped up in id order after every remaining candidate's marginal
    gain hit zero.
    """

    method: str
    chosen: tuple[ContentId, ...]
    objective_values: tuple[float, ...]
    gains: tuple[float, ...]
    filled: int = 0

    def __len__(self) -> int:
        return len(self.chosen)

    def trajectory_rows(self) -> list[tuple[int, ContentId, float]]:
        return [
            (step, cid, value)
            for step, (cid, value) in enumerate(
                zip(self.chosen, self.objective_values), start=1
            )
        ]


def _trajectory(
    spec: ObjectiveSpec, chosen: Sequence[ContentId]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The objective after each prefix of ``chosen``, and each step's gain."""
    rows = [0] * len(spec.support)
    values = []
    for cid in chosen:
        spec.add_to_counts(cid, rows)
        values.append(spec.value_of_counts(rows))
    gains = [after - before for before, after in zip((0.0, *values), values)]
    return tuple(values), tuple(gains)


def greedy_placement(spec: ObjectiveSpec, capacity: int) -> PlacementResult:
    """Pick ``capacity`` contents by repeated best-marginal-gain selection.

    Ties break toward the smallest content id among the gains compared;
    a stale gain that rounds below its content's true gain can lose a tie
    that naive greedy would give it (see the module docstring).  Once
    every remaining candidate's gain is zero, the remaining slots are
    filled in id order and reported via ``filled``.
    """
    if capacity < 1:
        raise ParameterError(f"capacity must be >= 1, got {capacity}")
    universe = spec.universe
    rows = [0] * len(spec.support)
    chosen: list[int] = []
    values: list[float] = []
    gains: list[float] = []

    # Candidates with equal inverted rows add equal terms in equal order,
    # so their gains agree to the last bit: one evaluation per pick serves
    # each row signature.
    by_rows: dict[tuple[int, ...], list[int]] = {}
    for k, c in enumerate(universe):
        by_rows.setdefault(spec.inverted[c], []).append(k)

    # The lazy heap holds parts: the candidates, in id order, of signature
    # ``s`` whose gains were last evaluated at pick ``epoch``.  A part is
    # keyed by its stale gain and its first candidate, so parts pop in the
    # order that a heap of one entry per candidate pops their first ones.
    heap = [
        (-spec.gain(universe[members[0]], rows), members[0], 0, s, members)
        for s, members in enumerate(by_rows.values())
    ]
    heapify(heap)
    fresh: dict[int, float] = {}  # this pick's gain of each signature evaluated
    while len(chosen) < capacity and heap:
        # Pop the parts of the top stale gain in id order of their first
        # candidates.  A fresh part gives the pick, and so does a stale one
        # whose gain, re-evaluated, still reaches the top.  The candidates
        # of the other stale parts that pop before the pick go back into the
        # heap under their new gain.
        epoch = len(chosen)
        neg_top = heap[0][0]
        stale = []
        pick = None
        while heap and heap[0][0] == neg_top:
            part = heappop(heap)
            _, first, evaluated, s, _ = part
            if evaluated == epoch:
                pick, gain = part, -neg_top
                break
            gain = fresh.get(s)
            if gain is None:
                gain = fresh[s] = spec.gain(universe[first], rows)
            if gain >= -neg_top:
                pick = part
                break
            stale.append((gain, part))
        cut = pick[1] if pick is not None else len(universe)
        for now, (neg, first, evaluated, s, members) in stale:
            i = bisect_left(members, cut)
            heappush(heap, (-now, first, epoch, s, members[:i]))
            if i < len(members):
                heappush(heap, (neg, members[i], evaluated, s, members[i:]))
        if pick is None:
            continue
        if gain <= 0.0:
            break
        neg, k, evaluated, s, members = pick
        if len(members) > 1:
            heappush(heap, (neg, members[1], evaluated, s, members[1:]))
        chosen.append(k)
        spec.add_to_counts(universe[k], rows)
        values.append(spec.value_of_counts(rows))
        gains.append(gain)
        fresh = {}

    picked = set(chosen)
    fill = [k for k in range(len(universe)) if k not in picked][: capacity - len(chosen)]
    values += [values[-1] if values else 0.0] * len(fill)
    gains += [0.0] * len(fill)
    return PlacementResult(
        "greedy", tuple(universe[k] for k in chosen + fill), tuple(values), tuple(gains),
        len(fill),
    )


def exact_placement(spec: ObjectiveSpec, capacity: int) -> PlacementResult:
    """Exhaustive search for the best cache set of at most ``capacity``.

    Ties resolve to the lexicographically smallest set.  Refuses instances
    whose subset count exceeds :data:`BRUTE_FORCE_LIMIT`.
    """
    if capacity < 1:
        raise ParameterError(f"capacity must be >= 1, got {capacity}")
    best = spec.universe
    if capacity < len(best):
        n_subsets = math.comb(len(best), capacity)
        if n_subsets > BRUTE_FORCE_LIMIT:
            raise InstanceTooLargeError(
                f"{n_subsets} subsets exceed the brute-force guard ({BRUTE_FORCE_LIMIT})"
            )
        # max() keeps the first of equal values: the smallest set in id order.
        best = max(
            combinations(best, capacity),
            key=lambda combo: spec.value_of_counts(spec.counts(combo)),
        )
    return PlacementResult("exact", best, *_trajectory(spec, best))


def top_placement(
    catalog: Catalog, capacity: int, spec: ObjectiveSpec | None = None
) -> PlacementResult:
    """Cache the ``capacity`` most popular contents.

    The objective trajectory is reported when a spec is supplied.
    """
    ids = top_popular(catalog, capacity).ids
    values, gains = _trajectory(spec, ids) if spec is not None else ((), ())
    return PlacementResult("top", ids, values, gains)
