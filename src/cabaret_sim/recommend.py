"""Recommendation list construction: cache-aware and provider-style.

Three recommenders share one output type:

* :func:`recommend` is the cache-aware list: explore around the seed, put
  explored-and-cached contents first (in exploration order), then fill from
  the head of the exploration.  It is :func:`select_from_exploration` over
  the full exploration.  A runner that builds the lists of many nested
  caches (a *family*) reads each content's exploration once, as two lists
  that read the last level only as far as they need:
  :func:`cached_discovery`, the cached entries in discovery order, read
  through a :class:`CacheIndex` of the largest cache; and
  :func:`top_up_candidates`, the exploration through the ``N``-th entry
  outside that cache.  Every cache of the family takes its cached entries
  from the first and its top-up from the second.
* :func:`baseline_recommender` is the provider's top-N related list, order
  untouched.
* :func:`reordered_recommender` is the provider's top-N list with cached
  entries moved to the front, relative order preserved.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .catalog import ContentId, RelationOracle
from .errors import DatasetFormatError, ParameterError, utf8_errors
from .explore import BfsParams, ExplorationList, bfs


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
    def from_file(cls, path: str) -> "CacheManifest":
        """Read a manifest from a text file holding one content id per line."""
        with open(path, encoding="utf-8") as handle, utf8_errors(path, DatasetFormatError):
            ids = [line.strip() for line in handle if line.strip()]
        return cls.from_ids(ids)

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for cid in self.ordered if self.ordered else sorted(self.ids):
                handle.write(cid + "\n")

    def __contains__(self, content_id: object) -> bool:
        return content_id in self.ids

    def __len__(self) -> int:
        return len(self.ids)


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
    cached = cache.ids
    picked: list[ContentId] = []
    flags: list[bool] = []
    for content in explored:
        if len(picked) >= count:
            break
        if content in cached:
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


class CacheIndex(dict):
    """Lazy map from a content to the cached entries of its related list.

    The entries keep their order in the content's width-``width`` related
    list.  A content costs one oracle query, on its first lookup, so the
    index grows with the contents looked up, not with the catalog.
    """

    __slots__ = ("ids", "oracle", "width")

    def __init__(self, ids: frozenset[ContentId], oracle: RelationOracle, width: int):
        super().__init__()
        self.ids = ids
        self.oracle = oracle
        self.width = width

    def __missing__(self, content: ContentId) -> tuple[ContentId, ...]:
        related = self.oracle.related(content, self.width)
        found = self[content] = tuple(filter(self.ids.__contains__, related))
        return found


def _last_level_parents(head: ExplorationList, depth: int) -> tuple[ContentId, ...]:
    """The contents whose related lists make the depth-``depth`` level ``head`` lacks."""
    if depth == 1:
        return (head.seed,)
    return head.entries[bisect_left(head.depths, depth - 1):]


def cached_discovery(
    head: ExplorationList,
    depth: int,
    count: int,
    index: CacheIndex,
    floor: frozenset[ContentId],
) -> tuple[ContentId, ...]:
    """The entries of ``index.ids`` in the exploration ``head`` begins, in discovery order.

    ``head`` holds the first ``depth - 1`` levels of the exploration around
    ``head.seed`` (no entries at depth 1); the last level, of width
    ``index.width``, is read from ``index`` one parent at a time.  The
    result runs through the ``count``-th entry in ``floor``, a subset of
    ``index.ids``, so it holds the first ``count`` entries of every cache
    between ``floor`` and ``index.ids``: the cached part of each one's list.
    """
    found: list[ContentId] = []
    for content in filter(index.ids.__contains__, head.entries):
        found.append(content)
        count -= content in floor
        if count == 0:
            return tuple(found)
    # Only the seed and the head's cached entries can repeat a cached
    # entry of the last level before it is found there.
    seen = {head.seed, *found}
    for parent in _last_level_parents(head, depth):
        for content in index[parent]:
            if content not in seen:
                seen.add(content)
                found.append(content)
                count -= content in floor
                if count == 0:
                    return tuple(found)
    return tuple(found)


def top_up_candidates(
    head: ExplorationList, depth: int, count: int, index: CacheIndex
) -> tuple[ContentId, ...]:
    """The exploration ``head`` begins, through its ``count``-th entry outside ``index.ids``.

    ``head`` is as in :func:`cached_discovery`; the last level is read from
    the oracle, one parent's related list of width ``index.width`` at a
    time.  The result holds, for every cache inside ``index.ids``, the
    first ``count`` entries of the exploration it does not hold: the top-up
    of its list.
    """
    taken: list[ContentId] = []
    for content in head.entries:
        taken.append(content)
        count -= content not in index.ids
        if count == 0:
            return tuple(taken)
    seen = {head.seed, *taken}
    for parent in _last_level_parents(head, depth):
        for content in index.oracle.related(parent, index.width):
            if content not in seen:
                seen.add(content)
                taken.append(content)
                count -= content not in index.ids
                if count == 0:
                    return tuple(taken)
    return tuple(taken)


def recommend(
    seed: ContentId,
    count: int,
    cache: CacheManifest,
    params: BfsParams,
    oracle: RelationOracle,
) -> RecommendationList:
    """Build the cache-aware recommendation list for ``seed``.

    This is :func:`select_from_exploration` over the full exploration
    around the seed.  An empty exploration yields an empty (flagged,
    non-error) list.
    """
    return select_from_exploration(bfs(seed, params, oracle).entries, count, cache)


def baseline_recommender(
    seed: ContentId,
    count: int,
    oracle: RelationOracle,
    cache: CacheManifest,
) -> RecommendationList:
    """The provider's first ``count`` related contents, order unchanged.

    Cached flags are annotated for metric computation only.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    entries = oracle.related(seed, count)
    return RecommendationList(entries, tuple(c in cache.ids for c in entries))


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
