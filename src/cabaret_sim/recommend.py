"""Recommendation list construction: cache-aware and provider-style.

Three recommenders share one output type:

* :func:`recommend` is the cache-aware list: explore around the seed, put
  explored-and-cached contents first (in exploration order), then fill from
  the head of the exploration.
* :func:`baseline_recommender` is the provider's top-N related list, order
  untouched.
* :func:`reordered_recommender` is the provider's top-N list with cached
  entries moved to the front, relative order preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .catalog import ContentId, RelationOracle
from .errors import ParameterError
from .explore import BfsParams, bfs


@dataclass(frozen=True)
class CacheManifest:
    """An immutable set of cached content ids with a capacity bound.

    ``ordered`` preserves the input order (file order or placement
    selection order) for reporting.
    """

    ids: frozenset[ContentId]
    capacity: int
    ordered: tuple[ContentId, ...] = field(default=())

    def __post_init__(self):
        if self.capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {self.capacity}")
        if len(self.ids) > self.capacity:
            raise ParameterError(
                f"{len(self.ids)} cached ids exceed capacity {self.capacity}"
            )

    @classmethod
    def from_ids(
        cls, ids: Iterable[ContentId], capacity: int | None = None
    ) -> "CacheManifest":
        ordered = tuple(dict.fromkeys(ids))
        cap = capacity if capacity is not None else max(len(ordered), 1)
        return cls(frozenset(ordered), cap, ordered)

    @classmethod
    def from_file(cls, path: str, capacity: int | None = None) -> "CacheManifest":
        """Read a manifest from a text file holding one content id per line."""
        with open(path, encoding="utf-8") as handle:
            ids = [line.strip() for line in handle if line.strip()]
        return cls.from_ids(ids, capacity)

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for cid in self.ordered if self.ordered else sorted(self.ids):
                handle.write(cid + "\n")

    def __contains__(self, content_id: object) -> bool:
        return content_id in self.ids

    def __len__(self) -> int:
        return len(self.ids)


_EMPTY_CACHE = frozenset()


@dataclass(frozen=True)
class RecommendationList:
    """Ordered recommendations with a per-entry cached flag."""

    entries: tuple[ContentId, ...]
    cached: tuple[bool, ...]

    def __post_init__(self):
        if len(self.entries) != len(self.cached):
            raise ParameterError("entries and cached flags must align")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def empty(self) -> bool:
        return not self.entries

    def cached_count(self) -> int:
        return sum(self.cached)


def select_from_exploration(
    explored: Sequence[ContentId], count: int, cache: CacheManifest
) -> RecommendationList:
    """Two-phase selection from an already-computed exploration list.

    Phase 1 appends every cached content in exploration order until
    ``count`` entries are selected; phase 2 tops the list up with
    not-yet-selected contents from the head of the exploration.  The result
    has ``min(count, len(explored))`` entries and its cached entries always
    form a contiguous prefix.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    picked: list[ContentId] = []
    flags: list[bool] = []
    for content in explored:
        if len(picked) >= count:
            break
        if content in cache:
            picked.append(content)
            flags.append(True)
    if len(picked) < count:
        selected = set(picked)
        for content in explored:
            if len(picked) >= count:
                break
            if content not in selected:
                picked.append(content)
                flags.append(False)
    return RecommendationList(tuple(picked), tuple(flags))


def recommend(
    seed: ContentId,
    count: int,
    cache: CacheManifest,
    params: BfsParams,
    oracle: RelationOracle,
) -> RecommendationList:
    """Build the cache-aware recommendation list for ``seed``.

    Explores around the seed, then applies the two-phase selection of
    :func:`select_from_exploration`.  An empty exploration yields an empty
    (flagged, non-error) list.
    """
    return select_from_exploration(bfs(seed, params, oracle).entries, count, cache)


def count_cached_in(
    seed: ContentId,
    cache: CacheManifest,
    params: BfsParams,
    oracle: RelationOracle,
) -> int:
    """Number of cached contents in the seed's exploration list (uncapped)."""
    return sum(1 for c in bfs(seed, params, oracle).entries if c in cache)


def baseline_recommender(
    seed: ContentId,
    count: int,
    oracle: RelationOracle,
    cache: CacheManifest | None = None,
) -> RecommendationList:
    """The provider's first ``count`` related contents, order unchanged.

    Cached flags are annotated for metric computation only; ``cache=None``
    flags nothing.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    entries = oracle.related(seed, count)
    ids = cache.ids if cache is not None else _EMPTY_CACHE
    return RecommendationList(entries, tuple(c in ids for c in entries))


def reordered_recommender(
    seed: ContentId,
    count: int,
    cache: CacheManifest,
    oracle: RelationOracle,
) -> RecommendationList:
    """The provider's top-``count`` list with cached entries moved to the front.

    This is the two-phase selection of :func:`select_from_exploration` over
    the provider's list instead of an exploration.
    """
    return select_from_exploration(oracle.related(seed, count), count, cache)
