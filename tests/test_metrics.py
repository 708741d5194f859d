from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cabaret_sim.catalog import Catalog, PopularityRegion, RelationOracle
from cabaret_sim.demand import Session
from cabaret_sim.errors import ParameterError, UndefinedMetricError
from cabaret_sim.metrics import ChrReport, chr_sequential, eval_iv

from conftest import random_catalog


def overlap_of(related: dict, seed: str, width: int) -> float:
    oracle = RelationOracle(Catalog(related))
    report = eval_iv(PopularityRegion((seed,)), width, oracle)
    return report.per_seed[0][1]


class TestEvalIv:
    # Each fixture's expected value is hand-computed from the definition:
    # |direct ∩ two_hop| / |direct| over raw width-limited lists.

    def test_all_neighbors_refound(self):
        # direct {a,b}; two-hop lists re-list both: overlap 1.
        value = overlap_of({"v": ["a", "b"], "a": ["b", "x"], "b": ["a", "y"]}, "v", 2)
        assert value == 1.0

    def test_disjoint_two_hop(self):
        value = overlap_of({"v": ["a", "b"], "a": ["x", "y"], "b": ["y", "z"]}, "v", 2)
        assert value == 0.0

    def test_half(self):
        # two-hop = {b, x, y}; direct {a, b}; only b refound: 1/2.
        value = overlap_of({"v": ["a", "b"], "a": ["b", "x"], "b": ["x", "y"]}, "v", 2)
        assert value == 0.5

    def test_two_thirds(self):
        # two-hop = {b, c}; direct {a, b, c}: 2/3.
        value = overlap_of({"v": ["a", "b", "c"], "a": ["b", "c"], "b": [], "c": []}, "v", 3)
        assert value == pytest.approx(2 / 3)

    def test_three_fifths(self):
        # two-hop = {b, c, d}; direct {a..e}: 3/5.
        related = {
            "v": ["a", "b", "c", "d", "e"],
            "a": ["b"],
            "b": ["c"],
            "c": ["d"],
            "d": ["b"],
            "e": [],
        }
        assert overlap_of(related, "v", 5) == pytest.approx(3 / 5)

    def test_no_direct_neighbors_is_zero(self):
        assert overlap_of({"v": [], "w": ["v"]}, "v", 5) == 0.0

    def test_width_limits_both_hops(self):
        # Width 1: direct {a}; two-hop = first entry of a's list only.
        related = {"v": ["a", "b"], "a": ["x", "v"], "x": []}
        assert overlap_of(related, "v", 1) == 0.0
        # Width 2 lets a's second entry re-find nothing new about {a, b}.
        assert overlap_of(related, "v", 2) == 0.0

    def test_rediscovery_at_depth_two_counts(self):
        # b is both direct and inside a's list: a first-discovery
        # exploration would drop it from depth 2, the metric must not.
        value = overlap_of({"v": ["a", "b"], "a": ["b"], "b": []}, "v", 2)
        assert value == 0.5

    def test_median_is_lower_order_statistic(self, rng):
        cat = random_catalog(rng, 12, 3)
        oracle = RelationOracle(cat)
        seeds = PopularityRegion(tuple(cat.ids()[:6]))
        report = eval_iv(seeds, 3, oracle)
        values = sorted(v for _, v in report.per_seed)
        assert report.median == values[(len(values) - 1) // 2]
        assert report.median in values
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_empty_seeds_rejected(self):
        oracle = RelationOracle(Catalog({"v": []}))
        with pytest.raises(ParameterError):
            eval_iv(PopularityRegion(()), 5, oracle)


def session(hits: list[bool], requested: int, truncated=False) -> Session:
    watched = tuple(f"w{i}" for i in range(len(hits)))
    return Session(watched, tuple(hits), requested, truncated)


class TestChrSingle:
    """The hit ratio of two-request sessions: served second requests."""

    def test_all_second_requests_cached(self):
        sessions = [session([False, True], 2) for _ in range(5)]
        assert chr_sequential(sessions).chr == 1.0

    def test_empty_cache(self):
        sessions = [session([False, False], 2) for _ in range(5)]
        assert chr_sequential(sessions).chr == 0.0

    def test_zero_sessions_rejected(self):
        with pytest.raises(UndefinedMetricError):
            chr_sequential([])

    def test_truncated_session_counts_as_miss(self):
        sessions = [session([False, True], 2), session([False], 2, truncated=True)]
        assert chr_sequential(sessions).chr == 0.5


class TestChrSequential:
    def test_reduces_to_single_at_length_two(self, rng):
        sessions = [
            session([False, bool(rng.integers(2))], 2) for _ in range(20)
        ]
        report = chr_sequential(sessions)
        second = sum(s.hits[1] for s in sessions) / len(sessions)
        assert report.chr == report.per_step[0] == second

    def test_all_steps_hit(self):
        sessions = [session([True, True, True, True], 4) for _ in range(3)]
        report = chr_sequential(sessions)
        assert report.chr == 1.0
        assert report.per_step == (1.0, 1.0, 1.0)

    def test_per_step_slicing_identity(self, rng):
        # The step-2 rate equals the single-request metric computed on the
        # two-step prefixes alone.
        sessions = [
            session([False] + [bool(b) for b in rng.integers(0, 2, size=3)], 4)
            for _ in range(30)
        ]
        report = chr_sequential(sessions)
        prefixes = [Session(s.watched[:2], s.hits[:2], 2) for s in sessions]
        assert report.per_step[0] == chr_sequential(prefixes).chr

    def test_aggregate_is_mean_of_per_step(self, rng):
        sessions = [
            session([False] + [bool(b) for b in rng.integers(0, 2, size=4)], 5)
            for _ in range(25)
        ]
        report = chr_sequential(sessions)
        assert report.chr == pytest.approx(sum(report.per_step) / 4, abs=1e-15)
        total_hits = sum(sum(s.hits[1:]) for s in sessions)
        assert report.chr * len(sessions) * 4 == pytest.approx(total_hits, abs=1e-9)
        assert all(0.0 <= r <= 1.0 for r in report.per_step)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ParameterError):
            chr_sequential([session([False, True], 2), session([False, True, False], 3)])


class TestChrReport:
    def test_from_exact(self):
        report = ChrReport.from_exact((0.5, 0.25), 3)
        assert report.mode == "exact"
        assert report.chr == pytest.approx(0.375)
        assert report.sessions is None
        assert report.se is None
        assert report.per_step_rows() == [(2, 0.5), (3, 0.25)]

    def test_from_exact_validates_length(self):
        with pytest.raises(ParameterError):
            ChrReport.from_exact((0.5,), 3)

    def test_chr_adds_rates_left_to_right(self):
        # Python 3.12's sum() would give 1.0 for these rates.
        assert ChrReport.from_exact((0.1,) * 10, 11).chr == 0.9999999999999999 / 10
        hits = np.zeros((10, 10), dtype=bool)
        hits[0] = True
        assert ChrReport.from_hits(hits).chr == 0.9999999999999999 / 10

    @settings(max_examples=300, deadline=None)
    @given(arrays(bool, st.tuples(st.integers(1, 40), st.integers(1, 6))))
    # Three equal means of 1/5, whose np.std is not exactly 0.
    @example(np.tile([True, False, False, False, False], (3, 1)))
    def test_from_hits_standard_error(self, hits):
        report = ChrReport.from_hits(hits)
        sessions, steps = hits.shape
        means = hits.sum(axis=1) / steps
        if sessions == 1:
            assert report.se is None
        elif means.min() == means.max():
            assert report.se == 0.0
        else:
            assert report.se == np.std(means, ddof=1) / np.sqrt(sessions)
            assert type(report.se) is float
