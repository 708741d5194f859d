"""Synthetic catalog generation with a controllable depth-overlap level.

The generator plants communities.  Each community has an ordered *core*
whose members appear in every member's related list, a small *shared zone*
used as a spill-over target, and a *pool* of tail members.  A related list
is ``n_in`` core members followed by ``n_out = W - n_in`` far entries:

* core members point their far entries at private, pairwise-disjoint pool
  segments, so those entries are never re-discovered one hop later;
* everyone else points at the head of the next community.

Because core entries are re-listed by every community sibling while private
segments are not re-listed by anyone, the fraction of a popular seed's
direct neighbors that reappear among its two-hop neighbors is ``n_in / W``,
i.e. the requested overlap, up to rounding.  The calibration is documented
for catalogs with at least 1000 contents and width 50; smaller catalogs
fall back to a ring construction whose overlap is not calibrated.

Popularity follows a Zipf(1) law over a rank order that cycles core members
first, so the most popular contents are exactly the well-connected ones.
All randomness comes from a single numpy PCG64 generator seeded by the
caller; generation is a pure function of its arguments.  The related lists
are built as one int32 matrix of row numbers, one community's rows at a
time, and ``Catalog.from_arrays`` checks it and maps it to ids.
"""

from __future__ import annotations

import numpy as np

from .catalog import Catalog, ContentId
from .errors import ParameterError

_TARGET_COMMUNITY_SIZE = 200


def _community_sizes(total: int, count: int) -> list[int]:
    base, extra = divmod(total, count)
    return [base + 1 if c < extra else base for c in range(count)]


def _zipf_weights(count: int) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks**-1.0
    return weights / weights.sum()


def _ring_catalog(size: int, degree: int, rng: np.random.Generator) -> Catalog:
    ids = _make_ids(size, rng)
    lists = (np.arange(size)[:, None] + np.arange(1, degree + 1)) % size
    return Catalog.from_arrays(ids, lists, _zipf_weights(size))


def _make_ids(size: int, rng: np.random.Generator) -> list[ContentId]:
    width = len(str(size - 1))
    return [f"v{p:0{width}d}" for p in rng.permutation(size).tolist()]


def generate_synthetic(
    size: int, out_degree: int, overlap: float, seed: int
) -> Catalog:
    """Generate a clustered catalog whose popular-seed depth overlap tracks ``overlap``.

    Args:
        size: number of contents (must be at least ``out_degree + 1``).
        out_degree: length of every related list.
        overlap: target fraction, in [0, 1], of a popular seed's direct
            neighbors re-found among its two-hop neighbors.
        seed: RNG seed, an integer >= 0; identical arguments produce
            identical catalogs.

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
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")

    rng = np.random.Generator(np.random.PCG64(seed))

    min_community = out_degree + 2
    if size < 2 * min_community:
        return _ring_catalog(size, out_degree, rng)

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
    core = starts[:, None] + np.arange(core_size)
    # Every community has a pool: it holds more than ``head_size`` members.
    pools = [np.arange(s + head_size, s + sz) for s, sz in zip(starts, sizes)]
    pool_flat = np.concatenate(pools)
    pool_len = len(pool_flat)

    # Private far segments: one disjoint slice of the global pool per core
    # member, at a per-community random base.  Disjointness holds whenever
    # the pool can host core_size * n_out slots; smaller catalogs degrade
    # to wrapped (possibly shared) slices.
    seg_bases = rng.integers(0, max(1, pool_len), size=n_comm)

    # Each member's list opens with a random rotation of the core members
    # other than itself: n_in of them for a core member, all core_size for
    # anyone else.  A member with none to rotate draws nothing, and one
    # call draws what a scalar call per member, in member order, would.
    lengths = np.full(size, core_size)
    lengths[core] = n_in
    rot = np.zeros(size, dtype=np.int64)
    draws = lengths > 0
    rot[draws] = rng.integers(0, lengths[draws])

    # Popularity rank order: cores first, cycling across communities in
    # blocks of two, so the front page is spread over communities while
    # every popular content keeps one popular sibling inside its own
    # related list (pure round-robin would leave the provider's own lists
    # with no cached entries at all).  Shared zones and pools follow.
    block = min(2, core_size)
    core_blocks = [core[:, b : b + block].ravel() for b in range(0, core_size, block)]
    zones = (starts + core_size + np.arange(zone_size)[:, None]).ravel()
    # Pools in round robin: a stable sort by position within the pool.
    pool_pos = np.concatenate([np.arange(len(p)) for p in pools])
    round_robin = pool_flat[np.argsort(pool_pos, kind="stable")]
    rank_order = np.concatenate([*core_blocks, zones, round_robin])

    ids = _make_ids(size, rng)
    weights = np.empty(size)
    weights[rank_order] = _zipf_weights(size)

    # A related list is n_in rotated core members, then n_out far entries:
    # a core member's private pool segment, or for anyone else the head of
    # the next community.  Each community writes its rows of one matrix of
    # row numbers, which ``Catalog.from_arrays`` checks and maps to ids.
    t_in = np.arange(n_in)
    t_out = np.arange(n_out)
    j = np.arange(core_size)[:, None]
    related = np.empty((size, out_degree), dtype=np.int32)
    for c, (s, sz) in enumerate(zip(starts, sizes)):
        next_head = starts[(c + 1) % n_comm] + t_out
        lists = related[s : s + sz]
        if n_in:
            k = (rot[s : s + core_size, None] + t_in) % n_in
            lists[:core_size, :n_in] = s + k + (k >= j)  # core member j skips itself
            lists[core_size:, :n_in] = s + (rot[s + core_size : s + sz, None] + t_in) % core_size
        if pool_len >= n_out:
            lists[:core_size, n_in:] = pool_flat[(seg_bases[c] + j * n_out + t_out) % pool_len]
        else:
            lists[:core_size, n_in:] = np.concatenate((pool_flat, next_head[: n_out - pool_len]))
        lists[core_size:, n_in:] = next_head
    return Catalog.from_arrays(ids, related, weights)
