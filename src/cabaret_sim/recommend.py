"""Recommendation list construction: cache-aware and provider-style.

Three recommenders share one output type:

* :func:`recommend` is the cache-aware list: explore around the seed, put
  explored-and-cached contents first (in exploration order), then fill from
  the head of the exploration.  :func:`cabaret_list` builds it without
  materialising the exploration's last level: a :class:`CacheIndex` gives
  the cached entries of each last-level parent's related list.
* :func:`baseline_recommender` is the provider's top-N related list, order
  untouched.
* :func:`reordered_recommender` is the provider's top-N list with cached
  entries moved to the front, relative order preserved.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

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


class CacheIndex(dict):
    """Lazy map from a content to the cached entries of its related list.

    The entries keep their order in the content's width-``width`` related
    list.  A content costs one oracle query, on its first lookup, so the
    index grows with the contents looked up, not with the catalog.
    """

    __slots__ = ("ids", "oracle", "width")

    def __init__(self, cache: CacheManifest, oracle: RelationOracle, width: int):
        super().__init__()
        self.ids = cache.ids
        self.oracle = oracle
        self.width = width

    def __missing__(self, content: ContentId) -> tuple[ContentId, ...]:
        related = self.oracle.related(content, self.width)
        found = self[content] = tuple(filter(self.ids.__contains__, related))
        return found


def _unseen(entries: Iterable[ContentId], seen: set[ContentId]) -> Iterator[ContentId]:
    """``entries`` in order, skipping those in ``seen``; each one yielded joins it."""
    for content in entries:
        if content not in seen:
            seen.add(content)
            yield content


def cabaret_list(
    head: ExplorationList, depth: int, count: int, index: CacheIndex
) -> RecommendationList:
    """The cache-aware list over the depth-``depth`` exploration ``head`` begins.

    ``head`` holds the first ``depth - 1`` levels of the exploration around
    ``head.seed`` (no entries at depth 1).  The result equals
    :func:`select_from_exploration` over the full exploration of width
    ``index.width``, but the last level is never materialised.  Phase 1
    takes the cached entries of the head, then those of the last level in
    discovery order, read from ``index`` one parent at a time.  The top-up
    takes the head's uncached entries, and only when they run out queries
    the parents' lists for the last level's uncached entries.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    cached = index.ids
    picked = [c for c in head.entries if c in cached][:count]
    n_cached = len(picked)
    if n_cached < count:
        last = bisect_left(head.depths, depth - 1)
        parents = head.entries[last:] if depth > 1 else (head.seed,)
        # Phase 1 took every cached head entry, so only the picks and the
        # seed can repeat a cached entry of the last level.
        seen = {head.seed, *picked}
        found = chain.from_iterable(map(index.__getitem__, parents))
        picked += islice(_unseen(found, seen), count - n_cached)
        n_cached = len(picked)
        if n_cached < count:
            picked += islice((c for c in head.entries if c not in cached), count - n_cached)
            if len(picked) < count:
                # Phase 1 ran through the whole last level, so ``seen``
                # holds its cached entries and discovery yields the rest.
                seen.update(head.entries)
                oracle, width = index.oracle, index.width
                lists = chain.from_iterable(oracle.related(p, width) for p in parents)
                picked += islice(_unseen(lists, seen), count - len(picked))
    flags = (True,) * n_cached + (False,) * (len(picked) - n_cached)
    return RecommendationList(tuple(picked), flags)


def recommend(
    seed: ContentId,
    count: int,
    cache: CacheManifest,
    params: BfsParams,
    oracle: RelationOracle,
) -> RecommendationList:
    """Build the cache-aware recommendation list for ``seed``.

    Explores the first ``params.depth - 1`` levels around the seed and
    reads the last one through a :class:`CacheIndex`; see
    :func:`cabaret_list`.  An empty exploration yields an empty (flagged,
    non-error) list.
    """
    head = ExplorationList(seed, (), ())
    if params.depth > 1:
        head = bfs(seed, BfsParams(params.depth - 1, params.width), oracle)
    index = CacheIndex(cache, oracle, params.width)
    return cabaret_list(head, params.depth, count, index)


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
