"""Shared fixtures and independent reference implementations.

The reference implementations here are deliberately written in a different
style from the package code (level-concatenation instead of incremental
frontiers, full objective re-evaluation instead of inverted-index gains) so
they can serve as oracles for it.  ``reference_exact_hit_rates`` and
``reference_run_session`` evaluate sessions state by state through plain
dicts and lists, and ``reference_walk`` runs one session from given random
numbers; they are the oracles for ``TransitionTable``.
``check_submodularity`` samples nested cache sets to test the placement
objective's monotonicity and diminishing returns, and
``reference_greedy_placement`` runs lazy greedy one heap entry per content,
and ``naive_greedy_placement`` re-evaluates every gain at every pick; they
are the oracles for ``greedy_placement``, which keeps one heap entry per
row signature.
``reference_generate_synthetic`` builds synthetic lists member by member,
and ``reference_load_related_file`` checks every entry of every line; they
are the oracles for ``generate_synthetic`` and ``load_related_file``.
``reference_recommend`` builds one content's CABaRet list by selecting
from its full exploration, one list at a time; it is the oracle for the
rows of ``CandidateStore``, which the runner and ``cabaret-sim recommend``
read.  ``ReferenceSelectionOrderStore`` finds the cabaret candidates of
the nested caches cut from one selection order on its own, over its
largest cache alone, and flags a candidate by its rank in that order; it
is the oracle for ``CandidateStore``, which finds them once for every
cache of a run and reads each cache as a set.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, repeat

import numpy as np
import pytest

from cabaret_sim.catalog import Catalog, ContentId, PopularityRegion, RelationOracle
from cabaret_sim.demand import PositionDistribution, Recommender, Session
from cabaret_sim.errors import (
    DatasetFormatError,
    DuplicateContentError,
    ParameterError,
    utf8_errors,
)
from cabaret_sim.explore import BfsParams, bfs
from cabaret_sim.placement import ObjectiveSpec, PlacementResult
from cabaret_sim.recommend import (
    CacheManifest,
    RecommendationList,
    _cached_first,
    cached_discovery,
    select_from_exploration,
    top_up_candidates,
)
from cabaret_sim.synthetic import _TARGET_COMMUNITY_SIZE, _community_sizes, _zipf_weights


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


def reference_recommend(
    seed: ContentId, count: int, cache: CacheManifest, params: BfsParams, oracle: RelationOracle
) -> RecommendationList:
    """The cache-aware list for ``seed``: the selection over its full exploration.

    An empty exploration yields an empty (flagged, non-error) list.
    """
    return select_from_exploration(bfs(seed, params, oracle).entries, count, cache)


def weighted_spec(support, weights, list_size, dist, params, oracle) -> ObjectiveSpec:
    """``ObjectiveSpec.build`` under the demand ``weights`` (content -> weight)."""
    table = {v: frozenset(bfs(v, params, oracle).entries) for v in support}
    return ObjectiveSpec(support, [weights[v] for v in support], list_size, dist, table)


def reference_greedy_placement(spec: ObjectiveSpec, capacity: int) -> PlacementResult:
    """Lazy greedy over a heap of one (stale gain, content, epoch) entry per content.

    A popped entry whose epoch is not the pick count is re-evaluated and
    pushed back unless its gain still leads the heap.  Every content gets
    its own gain evaluations; ``greedy_placement`` must pick as this does.
    """
    if capacity < 1:
        raise ParameterError(f"capacity must be >= 1, got {capacity}")
    rows = [0] * len(spec.support)
    chosen: list[ContentId] = []
    values: list[float] = []
    gains: list[float] = []

    heap = [(-spec.gain(c, rows), c, 0) for c in spec.universe]
    heapify(heap)
    while len(chosen) < capacity and heap:
        neg, cid, epoch = heappop(heap)
        gain = -neg if epoch == len(chosen) else spec.gain(cid, rows)
        if heap:
            next_neg, next_cid, _ = heap[0]
            stale_next = -next_neg
            if gain < stale_next or (gain == stale_next and next_cid < cid):
                heappush(heap, (-gain, cid, len(chosen)))
                continue
        if gain <= 0.0:
            heappush(heap, (-gain, cid, len(chosen)))
            break
        chosen.append(cid)
        spec.add_to_counts(cid, rows)
        values.append(spec.value_of_counts(rows))
        gains.append(gain)

    # The heap holds every candidate not chosen.
    fill = sorted(c for _, c, _ in heap)[: capacity - len(chosen)]
    chosen += fill
    values += [values[-1] if values else 0.0] * len(fill)
    gains += [0.0] * len(fill)
    return PlacementResult("greedy", tuple(chosen), tuple(values), tuple(gains), len(fill))


def naive_greedy_placement(spec: ObjectiveSpec, capacity: int) -> PlacementResult:
    """Greedy that evaluates every candidate's ``spec.gain`` at every pick.

    Each pick is the first maximum in id order; once no gain is positive,
    the remaining slots are filled in id order.
    """
    if capacity < 1:
        raise ParameterError(f"capacity must be >= 1, got {capacity}")
    rows = [0] * len(spec.support)
    pool = list(spec.universe)
    chosen: list[ContentId] = []
    values: list[float] = []
    gains: list[float] = []
    while len(chosen) < capacity and pool:
        best, best_gain = None, 0.0
        for cid in pool:
            gain = spec.gain(cid, rows)
            if gain > best_gain:
                best, best_gain = cid, gain
        if best is None:
            break
        pool.remove(best)
        chosen.append(best)
        spec.add_to_counts(best, rows)
        values.append(spec.value_of_counts(rows))
        gains.append(best_gain)

    fill = pool[: capacity - len(chosen)]
    values += [values[-1] if values else 0.0] * len(fill)
    gains += [0.0] * len(fill)
    return PlacementResult("greedy", tuple(chosen + fill), tuple(values), tuple(gains), len(fill))


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


def _reference_ring_catalog(size: int, degree: int, rng: np.random.Generator) -> Catalog:
    ids = _reference_make_ids(size, rng)
    related = {
        ids[i]: [ids[(i + j) % size] for j in range(1, degree + 1)]
        for i in range(size)
    }
    weights = _zipf_weights(size)
    popularity = {ids[i]: float(weights[i]) for i in range(size)}
    return Catalog(related, popularity)


def _reference_make_ids(size: int, rng: np.random.Generator) -> list[ContentId]:
    width = len(str(size - 1))
    perm = rng.permutation(size)
    return [f"v{perm[i]:0{width}d}" for i in range(size)]


def reference_generate_synthetic(
    size: int, out_degree: int, overlap: float, seed: int
) -> Catalog:
    """The synthetic generator as a per-member loop: the oracle for ``generate_synthetic``.

    Args:
        size: number of contents (must be at least ``out_degree + 1``).
        out_degree: length of every related list.
        overlap: target fraction, in [0, 1], of a popular seed's direct
            neighbors re-found among its two-hop neighbors.
        seed: RNG seed; identical arguments produce identical catalogs.

    Raises:
        ParameterError: on an infeasible parameter combination.
    """
    if out_degree < 1:
        raise ParameterError(f"out_degree must be >= 1, got {out_degree}")
    if size < out_degree + 1:
        raise ParameterError(
            f"size must be at least out_degree + 1 ({out_degree + 1}), got {size}"
        )
    if not 0.0 <= overlap <= 1.0:
        raise ParameterError(f"overlap must be in [0, 1], got {overlap}")

    rng = np.random.Generator(np.random.PCG64(seed))

    min_community = out_degree + 2
    if size < 2 * min_community:
        return _reference_ring_catalog(size, out_degree, rng)

    n_in = round(overlap * out_degree)
    n_out = out_degree - n_in
    core_size = n_in + 1
    zone_size = max(0, n_out - core_size)
    head_size = core_size + zone_size  # == max(core_size, n_out)

    n_comm = max(2, round(size / _TARGET_COMMUNITY_SIZE))
    if size // n_comm < min_community:
        n_comm = max(2, size // min_community)
    sizes = _community_sizes(size, n_comm)

    starts = np.cumsum([0] + sizes[:-1])
    cores = [list(range(s, s + core_size)) for s in starts]
    heads = [list(range(s, s + head_size)) for s in starts]
    pools = [
        list(range(s + head_size, s + sz)) for s, sz in zip(starts, sizes)
    ]
    pool_flat: list[int] = [m for pool in pools for m in pool]
    pool_len = len(pool_flat)

    # Private far segments: one disjoint slice of the global pool per core
    # member, at a per-community random base.  Disjointness holds whenever
    # the pool can host core_size * n_out slots; smaller catalogs degrade
    # to wrapped (possibly shared) slices.
    seg_bases = rng.integers(0, max(1, pool_len), size=n_comm)

    def core_far(c: int, j: int) -> list[int]:
        if n_out == 0:
            return []
        if pool_len >= n_out:
            base = (int(seg_bases[c]) + j * n_out) % pool_len
            idx = [(base + t) % pool_len for t in range(n_out)]
            return [pool_flat[i] for i in idx]
        picked = list(pool_flat)
        for m in heads[(c + 1) % n_comm]:
            if len(picked) >= n_out:
                break
            picked.append(m)
        return picked[:n_out]

    related_idx: dict[int, list[int]] = {}
    for c in range(n_comm):
        core = cores[c]
        core_set = set(core)
        next_head = heads[(c + 1) % n_comm][:n_out]
        members = range(starts[c], starts[c] + sizes[c])
        for m in members:
            others = [x for x in core if x != m]
            if others:
                rot = int(rng.integers(0, len(others)))
                others = others[rot:] + others[:rot]
            within = others[:n_in]
            if m in core_set:
                far = core_far(c, core.index(m))
            else:
                far = next_head
            related_idx[m] = within + far

    # Popularity rank order: cores first, cycling across communities in
    # blocks of two, so the front page is spread over communities while
    # every popular content keeps one popular sibling inside its own
    # related list (pure round-robin would leave the provider's own lists
    # with no cached entries at all).  Shared zones and pools follow.
    rank_order: list[int] = []
    block = min(2, core_size)
    for b in range(0, core_size, block):
        for c in range(n_comm):
            for j in range(b, min(b + block, core_size)):
                rank_order.append(cores[c][j])
    for j in range(zone_size):
        for c in range(n_comm):
            rank_order.append(starts[c] + core_size + j)
    max_pool = max((len(p) for p in pools), default=0)
    for j in range(max_pool):
        for pool in pools:
            if j < len(pool):
                rank_order.append(pool[j])

    ids = _reference_make_ids(size, rng)
    weights = _zipf_weights(size)
    popularity = {ids[m]: float(weights[r]) for r, m in enumerate(rank_order)}
    related = {ids[m]: [ids[x] for x in lst] for m, lst in related_idx.items()}
    return Catalog(related, popularity)


def reference_parse_related_line(line: str, lineno: int) -> tuple[ContentId, list[ContentId]]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON ({exc.msg})", line=lineno) from None
    if not isinstance(record, dict):
        raise DatasetFormatError("record is not an object", line=lineno)
    if "id" not in record or "related" not in record:
        raise DatasetFormatError('record must have "id" and "related" keys', line=lineno)
    cid = record["id"]
    rel = record["related"]
    if not isinstance(cid, str) or not cid:
        raise DatasetFormatError('"id" must be a non-empty string', line=lineno)
    if not isinstance(rel, list) or not set(map(type, rel)) <= {str}:
        raise DatasetFormatError('"related" must be an array of strings', line=lineno)
    if "" in rel:
        raise DatasetFormatError('"related" must not hold an empty id', line=lineno)
    return cid, rel


def reference_load_related_file(path: str) -> dict[ContentId, tuple[ContentId, ...]]:
    """The loader checking every entry of every line: the oracle for ``load_related_file``.

    Every occurrence of an id, as a key or in a list, is one shared string
    object, so the parser's strings are freed line by line.
    """
    related: dict[ContentId, tuple[ContentId, ...]] = {}
    canon: dict[ContentId, ContentId] = {}
    with open(path, encoding="utf-8") as handle, utf8_errors(path, DatasetFormatError):
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            cid, rel = reference_parse_related_line(line, lineno)
            if cid in related:
                raise DuplicateContentError(
                    f"content {cid!r} defined more than once", line=lineno
                )
            related[canon.setdefault(cid, cid)] = tuple(map(canon.setdefault, rel, rel))
    return related


#: The rank of a content outside a selection order: no cache cut from it holds it.
_OUTSIDE = np.iinfo(np.int32).max


class ReferenceSelectionOrderStore:
    """One selection order's own cabaret candidates: the oracle for ``CandidateStore``.

    The caches cut from one selection order are nested.  ``order`` is the
    largest of them in selection order and ``index`` that cache's
    :class:`CacheIndex`.  A content's candidates are its cached discovery
    over ``index`` and the first ``n`` entries of its exploration, stored
    as ranks in ``order`` (``_OUTSIDE`` for a content outside it), so the
    cache of capacity ``c`` holds the ranks below ``c``.  The run's store
    finds them over the union of every cache and reads each cache as a set.
    """

    def __init__(self, order, index, head, depth, n, states):
        self.order = order
        self.rank = {content: rank for rank, content in enumerate(order)}
        self.index = index
        self.head = head
        self.depth = depth
        self.n = n
        self.states = states
        # Per state: where its candidates start in the store, and how many
        # discovery and top-up candidates follow (-1 until stored).
        self.at = np.full((0, 3), -1, dtype=np.intp)
        self.ranks = np.empty(0, dtype=np.int32)
        self.numbers = np.empty(0, dtype=np.int32)
        self.cands: list[ContentId] = []

    def add(self, fresh: list[int]) -> None:
        if len(self.at) < len(self.states):
            grow = ((0, len(self.states) - len(self.at)), (0, 0))
            self.at = np.pad(self.at, grow, constant_values=-1)
        fresh = [s for s, stored in zip(fresh, self.at[fresh, 1] >= 0) if not stored]
        if not fresh:
            return
        heads = [self.head(self.states.ids[s]) for s in fresh]
        found = [cached_discovery(h, self.depth, self.index) for h in heads]
        tops = [
            top_up_candidates(h, self.depth, self.n, self.index.oracle, self.index.width)
            for h in heads
        ]
        added = list(chain.from_iterable(chain.from_iterable(zip(found, tops))))
        ranks = np.fromiter(map(self.rank.get, added, repeat(_OUTSIDE)), np.int32, len(added))
        found_n = np.fromiter(map(len, found), np.intp, len(found))
        top_n = np.fromiter(map(len, tops), np.intp, len(tops))
        self.at[fresh, 0] = len(self.cands) + np.cumsum(found_n + top_n) - found_n - top_n
        self.at[fresh, 1] = found_n
        self.at[fresh, 2] = top_n
        self.ranks = np.concatenate((self.ranks, ranks))
        self.numbers = np.concatenate((self.numbers, np.full(len(added), -1, dtype=np.int32)))
        self.cands += added

    def rows(self, fresh: list[int], capacity: int):
        """The cabaret rows of the states ``fresh`` for the cache of ``capacity``."""
        self.add(fresh)
        start, found_n, top_n = self.at[fresh].T
        columns = np.arange(max(self.n, (found_n + top_n).max(initial=0)))
        flat = start[:, None] + columns
        is_found = columns < found_n[:, None]
        valid = columns < (found_n + top_n)[:, None]
        held = np.zeros(flat.shape, dtype=bool)
        held[valid] = self.ranks[flat[valid]] < capacity
        keys = np.full(flat.shape, 2, dtype=np.int8)
        keys[is_found & held] = 0
        keys[valid & ~is_found & ~held] = 1
        picked, cached, width = _cached_first(keys, self.n)
        filled = np.arange(self.n) < width[:, None]
        taken = flat[np.nonzero(filled)[0], picked[filled]]
        unseen = taken[self.numbers[taken] < 0].tolist()
        self.numbers[unseen] = self.states.numbers([self.cands[i] for i in unseen])
        entries = np.full(filled.shape, -1, dtype=np.intp)
        entries[filled] = self.numbers[taken]
        return width, cached, entries


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))
