from __future__ import annotations

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cabaret_sim.catalog import Catalog, PopularityRegion, RelationOracle
from cabaret_sim.demand import (
    TransitionTable,
    enumerate_single_requests,
    exact_hit_rates,
    position_probs,
    run_session,
)
from cabaret_sim.errors import ParameterError
from cabaret_sim.explore import BfsParams
from cabaret_sim.recommend import CacheManifest, RecommendationList, recommend

from conftest import (
    random_catalog,
    reference_exact_hit_rates,
    reference_run_session,
    reference_walk,
)


def fixed_list_recommender(entries, cached):
    shown = RecommendationList(tuple(entries), tuple(cached))
    return lambda v: shown


class TestPositionProbs:
    def test_uniform(self):
        assert position_probs("uniform", n=4).probs == (0.25, 0.25, 0.25, 0.25)

    def test_zipf_alpha_zero_is_uniform(self):
        assert position_probs("zipf", 0.0, 4).probs == pytest.approx(
            position_probs("uniform", n=4).probs
        )

    def test_zipf_alpha_one(self):
        # Harmonic weights 1, 1/2, 1/3, 1/4 normalize to /25 fractions.
        probs = position_probs("zipf", 1.0, 4).probs
        assert probs == pytest.approx((12 / 25, 6 / 25, 4 / 25, 3 / 25), abs=1e-15)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ParameterError):
            position_probs("zipf", -0.5, 4)

    def test_bad_kind_and_n(self):
        with pytest.raises(ParameterError):
            position_probs("pareto", 1.0, 4)
        with pytest.raises(ParameterError):
            position_probs("uniform", n=0)

    @settings(max_examples=80, deadline=None)
    @given(
        alpha=st.floats(0.0, 4.0, allow_nan=False),
        n=st.integers(1, 60),
    )
    def test_normalized_and_non_increasing(self, alpha, n):
        probs = position_probs("zipf", alpha, n).probs
        assert abs(sum(probs) - 1.0) < 1e-12
        assert all(p >= 0 for p in probs)
        assert all(probs[i] >= probs[i + 1] for i in range(n - 1))

    def test_zipf_weights_that_overflow_are_zero(self):
        probs = position_probs("zipf", 1000.0, 20).probs
        assert probs[0] == 1.0 and probs[2:] == (0.0,) * 18
        assert position_probs("zipf", 300.0, 20).probs[-1] == 0.0

    def test_zipf_bits_unchanged_where_nothing_overflows(self):
        for alpha in (0.5, 1.0, 2.0):
            weights = [1.0 / (i**alpha) for i in range(1, 21)]
            total = sum(weights)
            assert position_probs("zipf", alpha, 20).probs == tuple(w / total for w in weights)

    def test_truncated_renormalizes(self):
        dist = position_probs("zipf", 1.0, 4)
        head = dist.truncated(2)
        assert abs(sum(head) - 1.0) < 1e-12
        assert head[0] / head[1] == pytest.approx(2.0)
        assert dist.truncated(4) == dist.probs


class TestRunSession:
    def test_deterministic_given_seed(self):
        rec = fixed_list_recommender("abcd", [True, False, True, False])
        front = PopularityRegion(("x", "y", "z"))
        dist = position_probs("zipf", 1.0, 4)
        one = run_session(5, front, rec, dist, seed=99)
        two = run_session(5, front, rec, dist, seed=99)
        assert one == two
        assert len(one.watched) == 5

    def test_single_front_page_all_cached(self):
        rec = fixed_list_recommender(["a"], [True])
        front = PopularityRegion(("p",))
        cache = CacheManifest.from_ids(["p", "a"])
        session = run_session(2, front, rec, position_probs("uniform", n=1), seed=1, cache=cache)
        assert session.watched == ("p", "a")
        assert session.hits == (True, True)

    def test_truncates_on_empty_list(self):
        rec = fixed_list_recommender([], [])
        front = PopularityRegion(("p",))
        session = run_session(4, front, rec, position_probs("uniform", n=3), seed=0)
        assert session.truncated
        assert session.watched == ("p",)
        assert session.requested_length == 4

    def test_length_below_two_rejected(self):
        front = PopularityRegion(("p",))
        with pytest.raises(ParameterError):
            run_session(1, front, lambda v: None, position_probs("uniform", n=2), seed=0)

    def test_position_frequencies_match_distribution(self):
        # Chi-square goodness of fit at 0.999 confidence over 1e5 draws.
        n = 6
        dist = position_probs("zipf", 1.0, n)
        entries = [f"e{i}" for i in range(n)]
        rec = fixed_list_recommender(entries, [False] * n)
        front = PopularityRegion(("p",))
        rng = np.random.Generator(np.random.PCG64(7))
        draws = 100_000
        counts = dict.fromkeys(entries, 0)
        for _ in range(draws):
            session = run_session(2, front, rec, dist, rng=rng)
            counts[session.watched[1]] += 1
        observed = [counts[e] for e in entries]
        expected = [p * draws for p in dist.probs]
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_short_list_renormalization_frequencies(self):
        # A 2-entry list under an n=4 zipf law selects entry 1 vs entry 2
        # at odds 2:1 after renormalization.
        dist = position_probs("zipf", 1.0, 4)
        rec = fixed_list_recommender(["a", "b"], [False, False])
        front = PopularityRegion(("p",))
        rng = np.random.Generator(np.random.PCG64(21))
        draws = 60_000
        hits_a = sum(
            run_session(2, front, rec, dist, rng=rng).watched[1] == "a"
            for _ in range(draws)
        )
        assert hits_a / draws == pytest.approx(2 / 3, abs=0.01)


def scenario(rng, size=20, degree=6, n=5, cached_count=6, front=8):
    cat = random_catalog(rng, size, degree)
    oracle = RelationOracle(cat)
    ids = cat.ids()
    cache = CacheManifest.from_ids(
        ids[i] for i in rng.choice(size, size=cached_count, replace=False)
    )
    front_page = PopularityRegion(tuple(ids[:front]))
    params = BfsParams(2, n)
    rec = lambda v: recommend(v, n, cache, params, oracle)
    return front_page, rec, cache


class TestEnumerateSingleRequests:
    def test_empty_cache_zero(self):
        rec = fixed_list_recommender("abc", [False, False, False])
        front = PopularityRegion(("p", "q"))
        assert enumerate_single_requests(front, rec, position_probs("uniform", n=3)) == 0.0

    def test_everything_cached_one(self):
        rec = fixed_list_recommender("abc", [True, True, True])
        front = PopularityRegion(("p", "q"))
        value = enumerate_single_requests(front, rec, position_probs("zipf", 1.0, 3))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_agrees_within_three_standard_errors(self, rng):
        front_page, rec, cache = scenario(rng)
        dist = position_probs("zipf", 0.7, 5)
        exact = enumerate_single_requests(front_page, rec, dist)
        assert 0.0 < exact < 1.0
        draws = 100_000
        gen = np.random.Generator(np.random.PCG64(1234))
        hits = sum(
            run_session(2, front_page, rec, dist, rng=gen).hits[1]
            for _ in range(draws)
        )
        estimate = hits / draws
        se = math.sqrt(exact * (1 - exact) / draws)
        assert abs(estimate - exact) <= 3 * se


class TestExactHitRates:
    def test_two_step_equals_enumeration(self, rng):
        for _ in range(10):
            front_page, rec, _ = scenario(rng)
            dist = position_probs("zipf", 1.1, 5)
            rates = exact_hit_rates(front_page, rec, dist, 2)
            assert rates[0] == pytest.approx(
                enumerate_single_requests(front_page, rec, dist), abs=1e-12
            )

    def test_matches_sampling_for_longer_sessions(self, rng):
        front_page, rec, cache = scenario(rng)
        dist = position_probs("zipf", 0.5, 5)
        rates = exact_hit_rates(front_page, rec, dist, 4)
        assert len(rates) == 3
        draws = 40_000
        gen = np.random.Generator(np.random.PCG64(77))
        sums = np.zeros(3)
        for _ in range(draws):
            session = run_session(4, front_page, rec, dist, rng=gen, cache=cache)
            for k in range(1, len(session.hits)):
                sums[k - 1] += session.hits[k]
        for k in range(3):
            se = math.sqrt(max(rates[k] * (1 - rates[k]), 1e-9) / draws)
            assert abs(sums[k] / draws - rates[k]) <= 3.5 * se

    def test_dead_end_mass_drops(self):
        # One content recommends a dead end; rates beyond it are zero.
        cat = Catalog({"p": ["d"], "d": []})
        oracle = RelationOracle(cat)
        cache = CacheManifest.from_ids(["d"])
        rec = lambda v: recommend(v, 3, cache, BfsParams(1, 3), oracle)
        rates = exact_hit_rates(PopularityRegion(("p",)), rec, position_probs("uniform", n=3), 4)
        assert rates == (1.0, 0.0, 0.0)


@st.composite
def markov_scenarios(draw):
    """A small catalog with leaves, a cache, a front page, a law and a recommender."""
    size = draw(st.integers(1, 15))
    ids = [f"c{i:02d}" for i in range(size)]
    leaves = [f"leaf{i}" for i in range(draw(st.integers(0, 3)))]
    related = {}
    for cid in ids:
        others = [x for x in ids + leaves if x != cid]
        related[cid] = (
            draw(st.lists(st.sampled_from(others), unique=True, max_size=8)) if others else []
        )
    catalog = Catalog(related)
    every = catalog.ids()
    cached = draw(
        st.sampled_from([(), tuple(every)])
        | st.lists(st.sampled_from(every), unique=True).map(tuple)
    )
    cache = CacheManifest.from_ids(cached)
    front = PopularityRegion(tuple(draw(st.lists(st.sampled_from(every), min_size=1, max_size=6))))
    n = draw(st.integers(1, 6))
    # zipf:1000 leaves zero-probability tail positions, so equal cumulative sums.
    dist = draw(
        st.just(position_probs("uniform", n=n))
        | st.floats(0.0, 3.0).map(lambda alpha: position_probs("zipf", alpha, n))
        | st.just(position_probs("zipf", 1000.0, n))
    )
    params = BfsParams(draw(st.integers(1, 3)), draw(st.integers(1, 8)))
    oracle = RelationOracle(catalog)
    return front, lambda v: recommend(v, n, cache, params, oracle), dist, cache


def recording(recommender):
    """``recommender`` plus the list of contents it was asked about, in order."""
    calls = []

    def rec(v):
        calls.append(v)
        return recommender(v)

    return rec, calls


class TestTransitionTable:
    @settings(max_examples=150, deadline=None)
    @given(
        scenario=markov_scenarios(),
        lengths=st.lists(st.integers(2, 8), min_size=2, max_size=2, unique=True),
    )
    def test_rates_equal_dict_propagation_bit_for_bit(self, scenario, lengths):
        front, rec, dist, _ = scenario
        short, long = sorted(lengths)
        expected_calls = recording(rec)
        reference_exact_hit_rates(front, expected_calls[0], dist, long)
        for order in ([short, long], [long, short]):
            table_rec, calls = recording(rec)
            table = TransitionTable(front, table_rec, dist)
            for k in order:
                assert table.hit_rates(k) == reference_exact_hit_rates(front, rec, dist, k)
            # The table asks about the same states in the same order.
            assert calls == expected_calls[1]

    @settings(max_examples=60, deadline=None)
    @given(
        scenario=markov_scenarios(),
        length=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sessions_equal_reference_draws(self, scenario, length, seed):
        front, rec, dist, cache = scenario
        table = TransitionTable(front, rec, dist)
        ours = np.random.Generator(np.random.PCG64(seed))
        theirs = np.random.Generator(np.random.PCG64(seed))
        for _ in range(20):
            assert table.session(length, cache=cache, rng=ours) == reference_run_session(
                length, front, rec, dist, cache=cache, rng=theirs
            )
        assert run_session(length, front, rec, dist, seed=seed, cache=cache) == (
            reference_run_session(length, front, rec, dist, seed=seed, cache=cache)
        )

    def test_error_fails_exactly_the_sessions_that_reach_it(self):
        # A chain c0 -> c1 -> ... -> c9 with c0 on the front page: c{j-1} is
        # first watched as request j, and its list is asked only by
        # sessions longer than j.
        chain = [f"c{i}" for i in range(10)]
        cat = Catalog({a: [b] for a, b in zip(chain, chain[1:])})
        oracle = RelationOracle(cat)
        cache = CacheManifest.from_ids(chain[::2])
        dist = position_probs("uniform", n=2)
        front = PopularityRegion(("c0",))

        def rec(v):
            return recommend(v, 2, cache, BfsParams(1, 2), oracle)

        for j in range(1, 8):
            def raising(v, bad=chain[j - 1]):
                if v == bad:
                    raise ValueError(f"no list for {v}")
                return rec(v)

            for order in (range(2, 10), range(9, 1, -1)):
                table = TransitionTable(front, raising, dist)
                for k in order:
                    if k > j:
                        with pytest.raises(ValueError, match="no list"):
                            table.hit_rates(k)
                    else:
                        assert table.hit_rates(k) == reference_exact_hit_rates(front, rec, dist, k)

    def test_states_reached_with_zero_mass_are_visited(self):
        # The second position has probability 2**-1000, so "e" is reached
        # with mass 2**-2000, which underflows to 0.0.
        cat = Catalog({"a": ["b", "c"], "c": ["d", "e"], "e": ["f"]})
        oracle = RelationOracle(cat)
        cache = CacheManifest.from_ids(["f"])
        front = PopularityRegion(("a",))
        dist = position_probs("zipf", 1000.0, 2)
        rec, calls = recording(lambda v: recommend(v, 2, cache, BfsParams(1, 2), oracle))
        reference, reference_calls = recording(
            lambda v: recommend(v, 2, cache, BfsParams(1, 2), oracle)
        )
        assert TransitionTable(front, rec, dist).hit_rates(5) == reference_exact_hit_rates(
            front, reference, dist, 5
        )
        assert calls == reference_calls
        assert "e" in calls

    def test_lost_mass_pads_with_zeros_after_a_shorter_prefix(self):
        cat = Catalog({"p": ["d"], "d": []})
        oracle = RelationOracle(cat)
        cache = CacheManifest.from_ids(["d"])
        table = TransitionTable(
            PopularityRegion(("p",)),
            lambda v: recommend(v, 3, cache, BfsParams(1, 3), oracle),
            position_probs("uniform", n=3),
        )
        assert table.hit_rates(2) == (1.0,)
        assert table.hit_rates(5) == (1.0, 0.0, 0.0, 0.0)
        assert table.hit_rates(3) == (1.0, 0.0)


def tie_draws(dist):
    """Uniforms that land a pick on a cumulative sum of ``dist`` truncated to some length.

    These are the draws where ``bisect_right`` and ``bisect_left`` part.
    """
    draws = [0.0]
    for length in range(2, dist.n + 1):
        cum = list(accumulate(dist.truncated(length)))
        draws += [c / cum[-1] for c in cum[:-1] if c < cum[-1]]
    return np.array(draws)


class TestBatchedSampler:
    @settings(max_examples=200, deadline=None)
    @given(
        scenario=markov_scenarios(),
        length=st.integers(2, 8),
        sessions=st.integers(1, 50),
        exact_first=st.integers(1, 8),
        edge_share=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_walk_equals_reference_loops_bit_for_bit(
        self, scenario, length, sessions, exact_first, edge_share, seed
    ):
        front, rec, dist, cache = scenario
        rng = np.random.Generator(np.random.PCG64(seed))
        starts = rng.integers(len(front.ids), size=sessions)
        shape = (sessions, length - 1)
        uniforms = np.where(
            rng.random(shape) < edge_share, rng.choice(tie_draws(dist), shape), rng.random(shape)
        )
        table_rec, calls = recording(rec)
        table = TransitionTable(front, table_rec, dist)
        # Exact cells may have built rows of the same table first.
        if exact_first > 1:
            table.hit_rates(exact_first)
        asked = set(calls)
        del calls[:]
        hits = table.walk(starts, uniforms)

        walks = [
            reference_walk(length, int(start), row, front, rec, dist, cache)
            for start, row in zip(starts, uniforms)
        ]
        expected = [w.hits[1:] + (False,) * (length - len(w.hits)) for w in walks]
        assert hits.dtype == bool
        assert hits.tolist() == [list(row) for row in expected]
        # Request j + 1 asks for its row at step j, fresh states in id order.
        expected_calls = []
        for j in range(length - 1):
            reached = {w.watched[j] for w in walks if j < len(w.watched)}
            expected_calls += sorted(reached - asked)
            asked |= reached
        assert calls == expected_calls

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=markov_scenarios(),
        length=st.integers(2, 8),
        sessions=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sample_draws_starts_then_one_uniform_per_step(self, scenario, length, sessions, seed):
        front, rec, dist, _ = scenario
        got = TransitionTable(front, rec, dist).sample(
            length, sessions, np.random.Generator(np.random.PCG64(seed))
        )
        rng = np.random.Generator(np.random.PCG64(seed))
        starts = rng.integers(len(front.ids), size=sessions)
        uniforms = np.stack([rng.random(sessions) for _ in range(length - 1)], axis=1)
        want = TransitionTable(front, rec, dist).walk(starts, uniforms)
        assert got.shape == (sessions, length - 1)
        assert np.array_equal(got, want)

    def test_recommender_error_propagates(self):
        cat = Catalog({"p": ["d"], "d": ["p"]})
        oracle = RelationOracle(cat)

        def rec(v):
            if v == "d":
                raise ValueError("no list for d")
            return recommend(v, 1, CacheManifest.from_ids([]), BfsParams(1, 1), oracle)

        table = TransitionTable(PopularityRegion(("p",)), rec, position_probs("uniform", n=1))
        assert table.sample(2, 5, np.random.Generator(np.random.PCG64(0))).shape == (5, 1)
        with pytest.raises(ValueError, match="no list"):
            table.sample(3, 5, np.random.Generator(np.random.PCG64(0)))
