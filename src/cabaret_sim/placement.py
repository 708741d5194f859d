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
kept in a max-heap and only the top entry is re-evaluated, which is valid
because gains can only shrink as the chosen set grows.  A gain is the
correctly rounded sum (``math.fsum``) of one rounded term per affected row,
and a row's term can only fall or drop out as the set grows, so a stale
gain is never below the fresh one, bit for bit, and equal exact sums give
equal floats.  Lazy greedy therefore picks as naive greedy does, which
re-evaluates every gain and takes the first maximum in id order.
Candidates found in the explorations of the same support contents (equal
inverted rows, see below) have equal gains, so the heap holds one entry
per such row signature, not per candidate.  A brute-force solver provides
exact optima for instances of at most :data:`BRUTE_FORCE_LIMIT` subsets.  Both solvers choose among the explored
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
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations
from typing import Callable, Iterable, Mapping, Sequence

from .catalog import Catalog, ContentId, RelationOracle, top_popular
from .demand import PositionDistribution, ordered_sum
from .errors import InstanceTooLargeError, ParameterError
from .explore import BfsParams, ExplorationList, bfs

#: The most subsets :func:`exact_placement` enumerates.
BRUTE_FORCE_LIMIT = 10_000_000


class ObjectiveSpec:
    """Frozen inputs of the placement objective.

    Holds the demand support with normalized weights, the per-content
    exploration sets, the inverted index used for fast marginal gains, and
    each support row's prefix sums of its truncated position law, beside
    the law itself weighted by the row's demand share.  Build once per
    front page and evaluate many times; :meth:`under` derives the prices of
    another position law and shares everything else.  The law must be
    non-increasing, as every law that :func:`~cabaret_sim.demand.position_probs`
    builds is: monotonicity, submodularity and the lazy greedy both rest on it.
    """

    __slots__ = (
        "support", "weights", "list_size", "masses", "increments", "table", "inverted", "universe",
    )

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
        self._price(dist)

    def under(self, dist: PositionDistribution) -> "ObjectiveSpec":
        """This spec, of its own type, priced under ``dist``."""
        derived = copy.copy(self)
        derived._price(dist)
        return derived

    def _price(self, dist: PositionDistribution) -> None:
        """Set each row's prefix sums and weighted probabilities of ``dist``
        truncated to the row's length."""
        if dist.n != self.list_size:
            raise ParameterError(f"position law has n={dist.n}, the list size is {self.list_size}")
        if any(p < q for p, q in zip(dist.probs, dist.probs[1:])):
            raise ParameterError("position law must be non-increasing")
        # Row v's list holds min(N, |exploration|) entries; an empty one
        # collects nothing, and a law truncated past its width keeps it.
        by_length: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {0: ((), (0.0,))}
        masses = []
        increments = []
        for q, v in zip(self.weights, self.support):
            length = min(self.list_size, len(self.table[v]))
            priced = by_length.get(length)
            if priced is None:
                law = dist.truncated(length)
                priced = by_length[length] = (law, (0.0, *accumulate(law)))
            law, mass = priced
            masses.append(mass)
            increments.append(tuple(q * p for p in law))
        self.masses = tuple(masses)
        self.increments = tuple(increments)

    @classmethod
    def build(
        cls,
        support: Sequence[ContentId],
        list_size: int,
        dist: PositionDistribution,
        params: BfsParams,
        oracle: RelationOracle,
        explore: Callable[..., ExplorationList] = bfs,
    ) -> "ObjectiveSpec":
        """The spec of uniform demand over ``support``, each content explored by ``explore``."""
        support = tuple(support)
        table = {v: frozenset(explore(v, params, oracle).entries) for v in support}
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
        """Marginal objective increase of adding ``content`` given row counts.

        The correctly rounded sum of each affected row's weighted next
        position probability, so it does not depend on the order of rows.
        """
        increments = self.increments
        return math.fsum(
            increments[i][rows[i]]
            for i in self.inverted.get(content, ())
            if rows[i] < len(increments[i])
        )

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
    id order for the exact solver.  Greedy ``gains`` are the
    :meth:`ObjectiveSpec.gain` values it picked by; exact and top ``gains``
    are differences of successive ``objective_values``.  ``filled`` counts
    trailing slots that were topped up in id order after every remaining
    candidate's marginal gain hit zero.
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

    Ties break toward the smallest content id, as naive greedy's do (see
    the module docstring).  Once every remaining candidate's gain is zero,
    the remaining slots are filled in id order and reported via ``filled``.
    """
    if capacity < 1:
        raise ParameterError(f"capacity must be >= 1, got {capacity}")
    universe = spec.universe
    rows = [0] * len(spec.support)
    chosen: list[int] = []
    values: list[float] = []
    gains: list[float] = []

    # Candidates with equal inverted rows have equal gains: one heap entry
    # (-stale gain, first unpicked candidate, pick evaluated at, members)
    # serves each row signature, its members in id order.
    by_rows: dict[tuple[int, ...], list[int]] = {}
    for k, c in enumerate(universe):
        by_rows.setdefault(spec.inverted[c], []).append(k)
    heap = [
        (-spec.gain(universe[members[0]], rows), members[0], 0, members)
        for members in by_rows.values()
    ]
    heapify(heap)
    while len(chosen) < capacity and heap:
        neg, k, evaluated, members = heappop(heap)
        if neg >= 0.0:
            break  # a stale gain bounds the fresh one: no gain is left
        if evaluated < len(chosen):
            heappush(heap, (-spec.gain(universe[k], rows), k, len(chosen), members))
            continue
        if len(members) > 1:
            heappush(heap, (neg, members[1], evaluated, members[1:]))
        chosen.append(k)
        spec.add_to_counts(universe[k], rows)
        values.append(spec.value_of_counts(rows))
        gains.append(-neg)

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
