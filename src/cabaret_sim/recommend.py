"""Recommendation rows, the lists that transition tables read.

A CABaRet list holds the explored-and-cached contents first, in
exploration order, then the head of the exploration.  The runner and
``cabaret-sim recommend`` both build it as a row of a
:class:`CandidateStore`.  The per-content lists, of one type
:class:`RecommendationList`, are reference code kept for the tests and
``bench/tracing.py``: :func:`select_from_exploration`, the CABaRet
selection over a given exploration; :func:`baseline_recommender`, the
provider's top-N related list, which also fills the runner's provider
table through :func:`list_rows`; and :func:`reordered_recommender`, that
list with its cached entries first.

A transition table (see :mod:`cabaret_sim.demand`) reads a recommender as
*rows*: per state, the list's width, its cached flags and its entries'
numbers in a run's :class:`StateNumbers`.  This module builds every row
source.  :func:`list_rows` asks a recommender once per state.
:func:`provider_rows` derives any cache's baseline or reordered rows from
the provider's rows, and :meth:`CandidateStore.rows` any cache's cabaret
rows from two lists per content, stored once per run; both read the
cache as a set, in a bool array indexed by state number.  The two lists
are :func:`cached_discovery`, read through one :class:`CacheIndex` over
the union of the run's caches, and :func:`top_up_candidates`, the
exploration's first ``n`` entries.  Both start from the exploration's
*head*, every level but the last (:func:`head_params`), explored once per
content and run; the first reads the last level through the index, the
second only as far as it needs.  Every cached-first selection over rows
is one stable argsort.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import chain, filterfalse
from typing import Callable, Iterable, Sequence

import numpy as np

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
        # utf-8-sig drops a byte-order mark, which would otherwise lead the first id.
        with open(path, encoding="utf-8-sig") as handle, utf8_errors(path, DatasetFormatError):
            ids = [line.strip() for line in handle if line.strip()]
        return cls.from_ids(ids)

    def to_file(self, path: str) -> None:
        """Write one id per line; an id that :meth:`from_file` would read back changed raises.

        Raises:
            ParameterError: naming the first id that is empty, holds a line
                break, starts or ends with whitespace, or starts with a
                byte-order mark; no file is written.
        """
        ids = self.ordered if self.ordered else sorted(self.ids)
        for cid in ids:
            if not cid or cid != cid.strip() or "\n" in cid or "\r" in cid or cid[0] == "\ufeff":
                raise ParameterError(
                    f"cache id {cid!r} cannot be written to a manifest: ids are read back one"
                    " per line, stripped of whitespace and of a leading byte-order mark"
                )
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for cid in ids:
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


Recommender = Callable[[ContentId], RecommendationList]


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


def head_params(params: BfsParams) -> BfsParams:
    """The parameters of an exploration's head: every level but the last, all of it at depth 1."""
    return BfsParams(max(params.depth - 1, 1), params.width)


def _last_level_parents(head: ExplorationList, depth: int) -> tuple[ContentId, ...]:
    """The contents whose related lists make the depth-``depth`` level ``head`` lacks.

    At depth 1 the head is the whole exploration, so there are none.
    """
    return head.entries[bisect_left(head.depths, depth - 1):] if depth > 1 else ()


def cached_discovery(
    head: ExplorationList, depth: int, index: CacheIndex
) -> tuple[ContentId, ...]:
    """The entries of ``index.ids`` in the exploration ``head`` begins, in discovery order.

    ``head`` is the exploration around ``head.seed`` under the
    :func:`head_params` of depth ``depth``; past depth 1 the last level, of
    width ``index.width``, is read from ``index`` one parent at a time.  The
    result holds every entry of ``index.ids`` in the depth-``depth``
    exploration, so for any cache inside ``index.ids`` the entries it holds
    are that cache's explored-and-cached contents, in discovery order.
    """
    found = list(filter(index.ids.__contains__, head.entries))
    # Only the seed and the head's cached entries can repeat a cached
    # entry of the last level before it is found there.
    seen = {head.seed, *found}
    for parent in _last_level_parents(head, depth):
        for content in index[parent]:
            if content not in seen:
                seen.add(content)
                found.append(content)
    return tuple(found)


def top_up_candidates(
    head: ExplorationList, depth: int, count: int, oracle: RelationOracle, width: int
) -> tuple[ContentId, ...]:
    """The first ``count`` entries of the exploration ``head`` begins, or all of it.

    ``head`` is as in :func:`cached_discovery`.  When it holds fewer than
    ``count`` entries, the last level is read from ``oracle``, one parent's
    related list of width ``width`` at a time, until ``count`` are taken.  A
    list that caches ``k`` of its entries tops up with ``count - k``
    uncached ones, and the first ``count`` entries of the exploration hold
    at least that many, so the result holds the top-up of every cache's list.
    """
    if len(head.entries) >= count:
        return head.entries[:count]
    taken = list(head.entries)
    seen = {head.seed, *taken}
    for parent in _last_level_parents(head, depth):
        for content in oracle.related(parent, width):
            if content not in seen:
                seen.add(content)
                taken.append(content)
                if len(taken) == count:
                    return tuple(taken)
    return tuple(taken)


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


class StateNumbers:
    """A numbering of contents as chain states, shared by the tables of a run.

    A content keeps its number for the run.  Numbers follow the calls to
    :meth:`numbers`: the front page, the entries of each row source's rows,
    and every candidate a :class:`CandidateStore` stores, whether or not a
    row shows it.  So they never order anything that reaches output; the
    tables order by id, through :attr:`rank`.
    """

    __slots__ = ("number", "ids", "by_id", "_rank")

    def __init__(self) -> None:
        self.number: dict[ContentId, int] = {}
        self.ids: list[ContentId] = []
        # The states in id order, kept as they are numbered.
        self.by_id: list[int] = []
        self._rank = np.empty(0, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.ids)

    def numbers(self, contents: list[ContentId]) -> list[int]:
        """The state numbers of ``contents``, numbering new states in order."""
        number = self.number
        new = dict.fromkeys(filterfalse(number.__contains__, contents))
        if new:
            first = len(self.ids)
            number.update(zip(new, range(first, first + len(new))))
            self.ids += new
            # The numbers the dict holds, so that no new int object is kept.
            for content in new:
                insort(self.by_id, number[content], key=self.ids.__getitem__)
        return list(map(number.__getitem__, contents))

    @property
    def rank(self) -> np.ndarray:
        """Each state's position in id order: ``states[np.argsort(rank[states])]`` sorts by id."""
        if len(self._rank) < len(self.ids):
            self._rank = np.empty(len(self.ids), dtype=np.intp)
            self._rank[self.by_id] = np.arange(len(self.ids))
        return self._rank


#: The rows of a batch of states: widths, and padded cached flags and int32 entry states.
Rows = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Builds the rows of states given by number, in sorted-id order.
RowSource = Callable[[list[int]], Rows]


def list_rows(recommender: Recommender, n: int, states: StateNumbers) -> RowSource:
    """The row source of a recommender that returns lists.

    A row keeps the first ``n`` entries of the list, as many as a law has
    positions, and numbers them.  The recommender is asked once per state,
    in the order given; an error it raises propagates before any content
    is numbered.
    """
    columns = np.arange(n)

    def rows(fresh: list[int]) -> Rows:
        shown = [recommender(states.ids[s]) for s in fresh]
        widths = [min(len(rec), n) for rec in shown]
        width = np.array(widths, dtype=np.intp)
        filled = columns < width[:, None]
        cached = np.zeros(filled.shape, dtype=bool)
        cached[filled] = [hit for rec, w in zip(shown, widths) for hit in rec.cached[:w]]
        entries = np.full(filled.shape, -1, dtype=np.int32)
        entries[filled] = states.numbers(
            [c for rec, w in zip(shown, widths) for c in rec.entries[:w]]
        )
        return width, cached, entries

    return rows


def _cached_first(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cached-first selection in every row of ``keys``, cut to ``n <= keys.shape[1]``.

    A row takes its columns keyed 0, then those keyed 1, each in column
    order, and drops those keyed 2.  Returns the columns taken (dropped
    ones pad the rest), whether each is keyed 0, and each row's width.
    """
    picked = np.argsort(keys, axis=1, kind="stable")[:, :n]
    kept = np.take_along_axis(keys, picked, axis=1)
    return picked, kept == 0, (kept < 2).sum(axis=1)


#: The most states whose cabaret rows a :meth:`CandidateStore.rows` source derives at once.
ROW_BLOCK = 1024


def _held(flagged: np.ndarray, states: StateNumbers) -> np.ndarray:
    """Whether each state is one of ``flagged``, with one more slot that a ``-1`` pad reads.

    The last slot is never set, so padding is never flagged.
    """
    held = np.zeros(len(states) + 1, dtype=bool)
    held[flagged] = True
    return held


class CandidateStore:
    """Every content's cabaret candidates, stored once per run for every cache inside ``members``.

    ``members`` is the union of every cache the run places, and the
    store's :class:`CacheIndex` covers it, read through ``oracle`` at the
    width of the run's ``params``.  ``explore`` explores a content's head
    (:func:`head_params`) once, as its candidates are stored, and
    ``states`` numbers the candidates.

    A content's candidates are its :func:`cached_discovery`, every entry
    of ``members`` in its exploration, and its :func:`top_up_candidates`,
    the first ``n`` entries of its exploration.  A cache inside
    ``members`` takes its list's cached entries from the first and its
    top-up from the second, so one discovery per content serves every
    cache of the run.  Both are stored once per content, side by side in
    one int32 buffer of state numbers.
    """

    def __init__(
        self, members: frozenset[ContentId], oracle: RelationOracle, params: BfsParams,
        n: int, states: StateNumbers, explore: Callable[..., ExplorationList] = bfs,
    ):
        if n < 1:
            raise ParameterError(f"count must be >= 1, got {n}")
        self.index = CacheIndex(members, oracle, params.width)
        self.depth = params.depth
        self.head_params = head_params(params)
        self.explore = explore
        self.n = n
        self.states = states
        # Per state: where its candidates start in the store, and how many
        # discovery and top-up candidates follow (-1 until stored).
        self.at = np.full((0, 3), -1, dtype=np.intp)
        # The candidates' state numbers; the first ``stored`` slots are used.
        self.candidates = np.empty(0, dtype=np.int32)
        self.stored = 0

    def add(self, fresh: list[int]) -> None:
        """Store the candidates of the states ``fresh`` not stored yet, numbering new ones.

        An error while exploring or discovering propagates before this
        call changes the store or ``states``.  The store's arrays grow by
        doubling.
        """
        if len(self.at) < len(self.states):
            grown = np.full((max(len(self.states), 2 * len(self.at)), 3), -1, dtype=np.intp)
            grown[: len(self.at)] = self.at
            self.at = grown
        fresh = [s for s, stored in zip(fresh, self.at[fresh, 1] >= 0) if not stored]
        if not fresh:
            return
        oracle, width = self.index.oracle, self.index.width
        heads = [self.explore(self.states.ids[s], self.head_params, oracle) for s in fresh]
        found = [cached_discovery(h, self.depth, self.index) for h in heads]
        tops = [top_up_candidates(h, self.depth, self.n, oracle, width) for h in heads]
        found_then_top = chain.from_iterable(chain.from_iterable(zip(found, tops)))
        added = self.states.numbers(list(found_then_top))
        end = self.stored + len(added)
        if end > len(self.candidates):
            grown = np.empty(max(end, 2 * len(self.candidates)), dtype=np.int32)
            grown[: self.stored] = self.candidates[: self.stored]
            self.candidates = grown
        self.candidates[self.stored : end] = added
        found_n = np.fromiter(map(len, found), np.intp, len(found))
        top_n = np.fromiter(map(len, tops), np.intp, len(tops))
        self.at[fresh, 0] = self.stored + np.cumsum(found_n + top_n) - found_n - top_n
        self.at[fresh, 1] = found_n
        self.at[fresh, 2] = top_n
        self.stored = end

    def rows(self, cached: frozenset[ContentId]) -> RowSource:
        """The cabaret row source of the cache ``cached``, a subset of ``members``.

        Phase 1 is the first ``n`` discovery candidates the cache holds, the
        top-up the top-up candidates it does not, each in order: one
        cached-first selection over a state's candidates, where only
        discovery candidates can be keyed 0 and only top-up ones 1.  A row
        is shorter than ``n`` only when the exploration holds fewer than
        ``n`` entries.  A candidate is flagged as :func:`provider_rows`
        flags an entry, through a bool array indexed by state number.

        At most :data:`ROW_BLOCK` states are stored and derived at a
        time, each block as wide as the most candidates of any of its
        states, so the heads, discoveries and scratch follow the block and
        not the batch.  A row depends on its state alone, and the blocks
        store the batch's candidates in its order, so the rows and state
        numbers equal those of one block over the batch.
        """
        flagged = np.array(self.states.numbers(sorted(cached)), dtype=np.intp)

        def rows(fresh: list[int]) -> Rows:
            width = np.empty(len(fresh), dtype=np.intp)
            hits = np.empty((len(fresh), self.n), dtype=bool)
            entries = np.empty((len(fresh), self.n), dtype=np.int32)
            for first in range(0, len(fresh), ROW_BLOCK):
                block = slice(first, first + ROW_BLOCK)
                self.add(fresh[block])
                width[block], hits[block], entries[block] = self._derive(
                    fresh[block], _held(flagged, self.states)
                )
            return width, hits, entries

        return rows

    def _derive(self, fresh: list[int], held: np.ndarray) -> Rows:
        """The rows of the stored states ``fresh`` for the cache that ``held`` flags."""
        start, found_n, top_n = self.at[fresh].T
        columns = np.arange(max(self.n, (found_n + top_n).max(initial=0)))
        flat = start[:, None] + columns
        is_found = columns < found_n[:, None]
        valid = columns < (found_n + top_n)[:, None]
        hit = np.zeros(flat.shape, dtype=bool)
        hit[valid] = held[self.candidates[flat[valid]]]
        keys = np.full(flat.shape, 2, dtype=np.int8)
        keys[is_found & hit] = 0
        keys[valid & ~is_found & ~hit] = 1
        picked, cached, width = _cached_first(keys, self.n)
        filled = np.arange(self.n) < width[:, None]
        entries = np.full(filled.shape, -1, dtype=np.int32)
        entries[filled] = self.candidates[flat[np.nonzero(filled)[0], picked[filled]]]
        return width, cached, entries


def provider_rows(
    kind: str, cached: frozenset[ContentId], provider: RowSource, states: StateNumbers
) -> RowSource:
    """The baseline or reordered rows of the cache ``cached``, from the provider's rows.

    ``provider`` gives each content's baseline row under an empty cache,
    numbered by ``states``.  A baseline row flags the provider's entries
    that ``cached`` holds; a reordered row moves those first, keeping both
    parts in order, which is :func:`select_from_exploration` over the
    provider's list.  An entry is flagged by reading its state number in
    a bool array (see :func:`_held`), so padding is never flagged, and
    stays last.
    """
    flagged = np.array(states.numbers(sorted(cached)), dtype=np.intp)

    def rows(fresh: list[int]) -> Rows:
        width, _, entries = provider(fresh)
        hits = _held(flagged, states)[entries]
        if kind == "reordered":
            keys = np.where(entries < 0, 2, ~hits).astype(np.int8)
            picked, hits, _ = _cached_first(keys, keys.shape[1])
            entries = np.take_along_axis(entries, picked, axis=1)
        return width, hits, entries

    return rows
