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
caller; generation is a pure function of its arguments.
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
    related = {
        ids[i]: [ids[(i + j) % size] for j in range(1, degree + 1)]
        for i in range(size)
    }
    weights = _zipf_weights(size)
    popularity = {ids[i]: float(weights[i]) for i in range(size)}
    return Catalog(related, popularity)


def _make_ids(size: int, rng: np.random.Generator) -> list[ContentId]:
    width = len(str(size - 1))
    perm = rng.permutation(size)
    return [f"v{perm[i]:0{width}d}" for i in range(size)]


def generate_synthetic(
    size: int, out_degree: int, overlap: float, seed: int
) -> Catalog:
    """Generate a clustered catalog whose popular-seed depth overlap tracks ``overlap``.

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

    ids = _make_ids(size, rng)
    weights = _zipf_weights(size)
    popularity = {ids[m]: float(weights[r]) for r, m in enumerate(rank_order)}
    related = {ids[m]: [ids[x] for x in lst] for m, lst in related_idx.items()}
    return Catalog(related, popularity)
