"""Evaluation metrics: depth-overlap of related lists and cache hit ratios.

The depth-overlap of a seed measures how many of its directly related
contents are re-found among the related lists of those same contents.  It
is computed from raw second-hop query results on purpose: under
first-discovery de-duplication a direct neighbor re-found one hop later
would never appear in the exploration's depth-2 slice, and the overlap
would be zero by construction.

The cache hit ratio of sessions of K requests counts the hits over steps
2..K, normalized by ``sessions * (K - 1)`` so the value stays in [0, 1];
at K = 2 it is the fraction of second requests served from cache.
Reports also carry the per-step rates so hit-rate decay over a session
can be plotted directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import ContentId, PopularityRegion, RelationOracle
from .demand import Session, ordered_sum
from .errors import ParameterError, UndefinedMetricError


@dataclass(frozen=True)
class OverlapReport:
    """Per-seed depth-overlap values with their median and mean.

    The median is the lower middle order statistic (an actual sample
    value) for even-length inputs.
    """

    per_seed: tuple[tuple[ContentId, float], ...]
    median: float
    mean: float
    width: int
    seed_count: int

    def summary_rows(self) -> list[tuple[str, object]]:
        return [
            ("median_overlap", self.median),
            ("mean_overlap", self.mean),
            ("width", self.width),
            ("seeds", self.seed_count),
        ]


def _lower_median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def eval_iv(
    seeds: PopularityRegion, width: int, oracle: RelationOracle
) -> OverlapReport:
    """Depth-overlap report over the given seed contents.

    For each seed: the direct neighbor set is its width-limited related
    list; the two-hop set is the union of the raw width-limited related
    lists of those neighbors; the overlap is the fraction of direct
    neighbors contained in the two-hop set (0 when there are no direct
    neighbors).
    """
    if not seeds.ids:
        raise ParameterError("no seeds given")
    per_seed: list[tuple[ContentId, float]] = []
    for seed in seeds.ids:
        direct = oracle.related(seed, width)
        if not direct:
            per_seed.append((seed, 0.0))
            continue
        second_hop: set[ContentId] = set()
        for neighbor in direct:
            second_hop.update(oracle.related(neighbor, width))
        refound = sum(1 for c in direct if c in second_hop)
        per_seed.append((seed, refound / len(direct)))
    values = [v for _, v in per_seed]
    return OverlapReport(
        per_seed=tuple(per_seed),
        median=_lower_median(values),
        mean=ordered_sum(values) / len(values),
        width=width,
        seed_count=len(per_seed),
    )


@dataclass(frozen=True)
class ChrReport:
    """Cache-hit-ratio summary for a batch of same-length sessions.

    ``per_step`` holds the hit rate of each step 2..K.  ``chr`` is their
    mean, which equals total hits divided by ``sessions * (K - 1)`` for
    sampled data.  ``mode`` records whether the numbers come from sampled
    sessions or an exact computation (``sessions`` is None).
    """

    chr: float
    per_step: tuple[float, ...]
    mode: str = "sampled"
    sessions: int | None = None

    def per_step_rows(self) -> list[tuple[int, float]]:
        return [(k, rate) for k, rate in enumerate(self.per_step, start=2)]

    @classmethod
    def from_hits(cls, hits: np.ndarray) -> "ChrReport":
        """Summary of a sessions × steps matrix of hit flags for steps 2..K."""
        sessions, steps = hits.shape
        per_step = tuple(h / sessions for h in hits.sum(axis=0).tolist())
        return cls(
            chr=ordered_sum(per_step) / steps,
            per_step=per_step,
            mode="sampled",
            sessions=sessions,
        )

    @classmethod
    def from_exact(cls, per_step: Sequence[float], length: int) -> "ChrReport":
        per_step = tuple(per_step)
        if len(per_step) != length - 1:
            raise ParameterError("need one rate per step 2..length")
        return cls(
            chr=ordered_sum(per_step) / len(per_step),
            per_step=per_step,
            mode="exact",
        )


def chr_sequential(sessions: Sequence[Session]) -> ChrReport:
    """Hit ratio over steps 2..K of same-length sampled sessions."""
    if not sessions:
        raise UndefinedMetricError("no sessions")
    length = sessions[0].requested_length
    if any(s.requested_length != length for s in sessions):
        raise ParameterError("sessions have mixed requested lengths")
    # Steps lost to truncation count as misses.
    hits = [s.hits[1:] + (False,) * (length - len(s.hits)) for s in sessions]
    return ChrReport.from_hits(np.array(hits, dtype=bool))
