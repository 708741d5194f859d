from __future__ import annotations

import math
import tracemalloc
from itertools import accumulate
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cabaret_sim.catalog import Catalog, PopularityRegion, RelationOracle
from cabaret_sim import demand
from cabaret_sim.demand import (
    PositionDistribution,
    TransitionTable,
    exact_hit_rates,
    ordered_sum,
    position_probs,
    run_session,
)
from cabaret_sim.errors import ParameterError
from cabaret_sim.explore import BfsParams
from cabaret_sim.recommend import (
    CacheManifest,
    RecommendationList,
    StateNumbers,
    list_rows,
)

from conftest import (
    random_catalog,
    reference_exact_hit_rates,
    reference_recommend,
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

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # A NaN alpha gave NaN probabilities, so NaN exact rates and a
        # sampled chr of 1.0.
        with pytest.raises(ParameterError, match="alpha"):
            position_probs("zipf", alpha, 3)

    @pytest.mark.parametrize(
        "n, probs",
        [
            # Sums to 3: exact rates read 1.0 where sampling read 0.28.
            (3, (1.0, 1.0, 1.0)),
            (3, (0.6, 0.4)),
            (2, (0.5, 0.5, 0.0)),
            (2, (1.5, -0.5)),
            (2, (math.nan, 0.5)),
            (2, (math.inf, 0.0)),
            (2, (0.5, 0.5 - 1e-8)),
            # A list of one entry would renormalize 0.0 by itself.
            (2, (0.0, 1.0)),
            (0, ()),
        ],
    )
    def test_malformed_law_rejected(self, n, probs):
        with pytest.raises(ParameterError, match="position"):
            PositionDistribution("uniform", 0.0, n, probs)

    def test_law_within_rounding_of_one_accepted(self):
        probs = (0.5, 0.5 - 1e-10)
        assert PositionDistribution("custom", 0.0, 2, probs).probs == probs

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

    def test_truncated_normalises_with_the_in_order_total(self):
        # Left to right, ten 0.1s add to 0.9999999999999999; Python 3.12's
        # compensated sum() would give 1.0 and leave the 0.1s as they are.
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        dist = PositionDistribution("custom", 0.0, 11, (0.1,) * 10 + (0.0,))
        assert dist.truncated(10) == (0.1 / 0.9999999999999999,) * 10
        assert dist.truncated(10)[0] != 0.1


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
    rec = lambda v: reference_recommend(v, n, cache, params, oracle)
    return front_page, rec, cache


class TestEnumerateSingleRequests:
    def test_empty_cache_zero(self):
        rec = fixed_list_recommender("abc", [False, False, False])
        front = PopularityRegion(("p", "q"))
        assert exact_hit_rates(front, rec, position_probs("uniform", n=3), 2) == (0.0,)

    def test_everything_cached_one(self):
        rec = fixed_list_recommender("abc", [True, True, True])
        front = PopularityRegion(("p", "q"))
        (value,) = exact_hit_rates(front, rec, position_probs("zipf", 1.0, 3), 2)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_agrees_within_three_standard_errors(self, rng):
        front_page, rec, cache = scenario(rng)
        dist = position_probs("zipf", 0.7, 5)
        (exact,) = exact_hit_rates(front_page, rec, dist, 2)
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
            assert rates == reference_exact_hit_rates(front_page, rec, dist, 2)

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
        rec = lambda v: reference_recommend(v, 3, cache, BfsParams(1, 3), oracle)
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
    # A front page never repeats an id: PopularityRegion refuses one.
    front = PopularityRegion(
        tuple(draw(st.lists(st.sampled_from(every), min_size=1, max_size=6, unique=True)))
    )
    # Lists may be longer or shorter than the law.  Laws of 9 and more
    # positions tell an in-order sum from numpy's pairwise one.
    count = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    # zipf:1000 leaves zero-probability tail positions, so equal cumulative sums.
    dist = draw(
        st.just(position_probs("uniform", n=n))
        | st.floats(0.0, 3.0).map(lambda alpha: position_probs("zipf", alpha, n))
        | st.just(position_probs("zipf", 1000.0, n))
    )
    params = BfsParams(draw(st.integers(1, 3)), draw(st.integers(1, 8)))
    oracle = RelationOracle(catalog)
    return front, lambda v: reference_recommend(v, count, cache, params, oracle), dist, cache


@st.composite
def drawn_lists(draw):
    """A front page, a list per state and a law, drawn without a catalog.

    The front page holds ``s00``, whose list is empty, and ``s01``, whose
    list is shorter than the law; other lists may be longer.  zipf:1000
    gives every position past the second probability 0.0.
    """
    n = draw(st.integers(1, 12))
    size = draw(st.integers(2, 20))
    ids = [f"s{i:02d}" for i in range(size)]
    lists = {}
    for i, cid in enumerate(ids):
        most = 0 if i == 0 else n - 1 if i == 1 else n + 2
        entries = draw(st.lists(st.sampled_from(ids), unique=True, max_size=min(most, size)))
        cached = draw(st.lists(st.booleans(), min_size=len(entries), max_size=len(entries)))
        lists[cid] = RecommendationList(tuple(entries), tuple(cached))
    front = draw(st.lists(st.sampled_from(ids[2:]), unique=True)) if size > 2 else []
    dist = draw(st.sampled_from([
        position_probs("uniform", n=n),
        position_probs("zipf", 1.0, n),
        position_probs("zipf", 1000.0, n),
    ]))
    return PopularityRegion(("s00", "s01", *front)), lists.__getitem__, dist


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
            table = TransitionTable.from_recommender(front, table_rec, dist.n)
            for k in order:
                assert table.hit_rates(dist, k) == reference_exact_hit_rates(front, rec, dist, k)
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
        ours = np.random.Generator(np.random.PCG64(seed))
        theirs = np.random.Generator(np.random.PCG64(seed))
        for _ in range(20):
            assert run_session(length, front, rec, dist, cache=cache, rng=ours) == (
                reference_run_session(length, front, rec, dist, cache=cache, rng=theirs)
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
            return reference_recommend(v, 2, cache, BfsParams(1, 2), oracle)

        for j in range(1, 8):
            def raising(v, bad=chain[j - 1]):
                if v == bad:
                    raise ValueError(f"no list for {v}")
                return rec(v)

            for order in (range(2, 10), range(9, 1, -1)):
                table = TransitionTable.from_recommender(front, raising, dist.n)
                for k in order:
                    if k > j:
                        with pytest.raises(ValueError, match="no list"):
                            table.hit_rates(dist, k)
                    else:
                        expected = reference_exact_hit_rates(front, rec, dist, k)
                        assert table.hit_rates(dist, k) == expected

    def test_states_reached_with_zero_mass_are_visited(self):
        # The second position has probability 2**-1000, so "e" is reached
        # with mass 2**-2000, which underflows to 0.0.
        cat = Catalog({"a": ["b", "c"], "c": ["d", "e"], "e": ["f"]})
        oracle = RelationOracle(cat)
        cache = CacheManifest.from_ids(["f"])
        front = PopularityRegion(("a",))
        dist = position_probs("zipf", 1000.0, 2)
        rec, calls = recording(
            lambda v: reference_recommend(v, 2, cache, BfsParams(1, 2), oracle)
        )
        reference, reference_calls = recording(
            lambda v: reference_recommend(v, 2, cache, BfsParams(1, 2), oracle)
        )
        assert TransitionTable.from_recommender(front, rec, dist.n).hit_rates(dist, 5) == reference_exact_hit_rates(
            front, reference, dist, 5
        )
        assert calls == reference_calls
        assert "e" in calls

    def test_hit_mass_adds_in_position_order(self):
        # Adding 0.1 ten times in order gives 0.9999999999999999; numpy's
        # pairwise np.sum gives 1.0.
        rec = fixed_list_recommender([f"e{i}" for i in range(10)], [True] * 10)
        front = PopularityRegion(("p",))
        dist = position_probs("uniform", n=10)
        expected = reference_exact_hit_rates(front, rec, dist, 2)
        assert expected == (0.9999999999999999,)
        assert TransitionTable.from_recommender(front, rec, dist.n).hit_rates(dist, 2) == expected

    @settings(max_examples=150, deadline=None)
    @given(scenario=drawn_lists(), length=st.integers(2, 8))
    def test_rates_equal_reference_on_drawn_lists(self, scenario, length):
        front, rec, dist = scenario
        got = TransitionTable.from_recommender(front, rec, dist.n).hit_rates(dist, length)
        assert got == reference_exact_hit_rates(front, rec, dist, length)

    @settings(max_examples=150, deadline=None)
    @given(scenario=drawn_lists(), length=st.integers(2, 8), block=st.integers(1, 4))
    def test_blocked_steps_equal_whole_batch_steps(self, scenario, length, block):
        # Blocks of a few states split every step's batch; the whole batch
        # is one block of the default size.
        front, rec, dist = scenario
        whole = TransitionTable.from_recommender(front, rec, dist.n).hit_rates(dist, length)
        with patch.object(demand, "STEP_BLOCK", block):
            blocked = TransitionTable.from_recommender(front, rec, dist.n).hit_rates(dist, length)
        assert blocked == whole

    def test_a_step_holds_little_more_than_the_rows_it_reads(self):
        # Each of S states lists the next n states of a ring, so the second
        # step reads the S rows that the first built, and builds none.  The
        # rows it reads, as probabilities, next states and cached flags,
        # take 1.6 times S × n floats at their widest; masked copies of
        # them and a kept cumsum take about 4.9 times.
        size, n = 2000, 20
        ids = [f"c{i:04d}" for i in range(size)]
        flags = tuple(k % 3 == 0 for k in range(n))
        lists = {
            cid: RecommendationList(tuple(ids[(i + k) % size] for k in range(1, n + 1)), flags)
            for i, cid in enumerate(ids)
        }
        dist = position_probs("zipf", 1.0, n)
        table = TransitionTable.from_recommender(PopularityRegion(tuple(ids)), lists.__getitem__, n)
        table.hit_rates(dist, 2)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            table.hit_rates(dist, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < 3.5 * size * n * 8

    def test_a_blocked_step_holds_one_block_of_rows(self, monkeypatch):
        # The ring of the test above, read in blocks of 250 of its 2000
        # states: a step holds one block's rows, not the batch's, beside
        # a few arrays with a slot per state.
        size, n, block = 2000, 20, 250
        ids = [f"c{i:04d}" for i in range(size)]
        flags = tuple(k % 3 == 0 for k in range(n))
        lists = {
            cid: RecommendationList(tuple(ids[(i + k) % size] for k in range(1, n + 1)), flags)
            for i, cid in enumerate(ids)
        }
        dist = position_probs("zipf", 1.0, n)
        table = TransitionTable.from_recommender(PopularityRegion(tuple(ids)), lists.__getitem__, n)
        table.hit_rates(dist, 2)
        monkeypatch.setattr(demand, "STEP_BLOCK", block)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            table.hit_rates(dist, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 6 times one block's (block × n) floats here; a step over the
        # whole batch holds about 22 times.
        assert peak - held < 10 * block * n * 8

    def test_entries_past_the_law_are_never_picked(self):
        # Only "a" and "b" fall within the two-position law; "c" and "d" are
        # cached, as are the lists they lead to.
        lists = {
            "p": RecommendationList(("a", "b", "c", "d"), (True, False, True, True)),
            "c": RecommendationList(("c",), (True,)),
            "d": RecommendationList(("d",), (True,)),
        }
        rec = lambda v: lists.get(v, RecommendationList((), ()))
        front = PopularityRegion(("p",))
        dist = position_probs("uniform", n=2)
        expected = reference_exact_hit_rates(front, rec, dist, 3)
        assert expected == (0.5, 0.0)
        table_rec, calls = recording(rec)
        assert TransitionTable.from_recommender(front, table_rec, dist.n).hit_rates(dist, 3) == expected
        assert calls == ["p", "a", "b"]

    def test_lost_mass_pads_with_zeros_after_a_shorter_prefix(self):
        cat = Catalog({"p": ["d"], "d": []})
        oracle = RelationOracle(cat)
        cache = CacheManifest.from_ids(["d"])
        dist = position_probs("uniform", n=3)
        table = TransitionTable.from_recommender(
            PopularityRegion(("p",)),
            lambda v: reference_recommend(v, 3, cache, BfsParams(1, 3), oracle),
            dist.n,
        )
        assert table.hit_rates(dist, 2) == (1.0,)
        assert table.hit_rates(dist, 5) == (1.0, 0.0, 0.0, 0.0)
        assert table.hit_rates(dist, 3) == (1.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(scenario=markov_scenarios(), alpha=st.floats(0.0, 3.0), data=st.data())
    def test_one_table_reads_several_laws_as_separate_tables_do(self, scenario, alpha, data):
        front, rec, dist, _ = scenario
        n = dist.n
        laws = data.draw(st.lists(
            st.sampled_from([
                position_probs("uniform", n=n),
                position_probs("zipf", alpha, n),
                position_probs("zipf", 1000.0, n),
            ]),
            min_size=2, max_size=3, unique=True,
        ))
        reads = data.draw(st.lists(
            st.tuples(
                st.integers(0, len(laws) - 1),
                st.sampled_from(["hit_rates", "walk"]),
                st.integers(2, 8),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1, max_size=8,
        ))
        table_rec, calls = recording(rec)
        table = TransitionTable.from_recommender(front, table_rec, n)
        alone = [TransitionTable.from_recommender(front, rec, n) for _ in laws]
        for i, read, length, seed in reads:
            law = laws[i]
            if read == "hit_rates":
                assert table.hit_rates(law, length) == alone[i].hit_rates(law, length)
            else:
                rng = np.random.Generator(np.random.PCG64(seed))
                starts = rng.integers(len(front.ids), size=20)
                shape = (20, length - 1)
                uniforms = np.where(
                    rng.random(shape) < 0.5, rng.choice(tie_draws(law), shape), rng.random(shape)
                )
                got = table.walk(law, starts, uniforms)
                assert np.array_equal(got, alone[i].walk(law, starts, uniforms))
        # Every state's list is asked for once, whichever law reaches it first.
        assert len(calls) == len(set(calls))

    def test_law_of_another_size_rejected(self):
        rec = fixed_list_recommender(["a", "b"], [True, False])
        table = TransitionTable.from_recommender(PopularityRegion(("p",)), rec, 2)
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ParameterError, match="law has n=3, the table n=2"):
            table.hit_rates(position_probs("uniform", n=3), 2)
        with pytest.raises(ParameterError, match="law has n=1, the table n=2"):
            table.sample(position_probs("zipf", 1.0, 1), 3, 4, rng)
        with pytest.raises(ParameterError, match="law has n=3, the table n=2"):
            table.walk(position_probs("uniform", n=3), np.array([0]), np.array([[0.5]]))
        assert table.hit_rates(position_probs("uniform", n=2), 2) == (0.5,)


LAWS = [("uniform", 0.0)] + [("zipf", alpha) for alpha in (0.0, 0.5, 1.0, 1000.0)]


class TestLaw:
    @settings(max_examples=150, deadline=None)
    @given(law=st.sampled_from(LAWS), n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    def test_below_equals_the_comparison_count(self, law, n, seed):
        # The oracle counts the cumulative sums at or below each draw, in
        # a matrix padded with inf past each width.
        dist = position_probs(law[0], law[1], n)
        cum = np.full((n + 1, n), np.inf)
        for width in range(1, n + 1):
            cum[width, :width] = list(accumulate(dist.truncated(width)))
        rng = np.random.Generator(np.random.PCG64(seed))
        widths, draws = [], []
        for width in range(1, n + 1):
            sums = cum[width, :width]
            # 0.0, every cumulative sum and its neighbours, and draws between.
            at = [0.0, *sums, *np.nextafter(sums, 0.0), *np.nextafter(sums, 2.0)]
            at += list(rng.random(4) * sums[-1])
            widths += [width] * len(at)
            draws += at
        width, drawn = np.array(widths), np.array(draws)
        got = demand._law_arrays(dist).below(width, drawn)
        assert np.array_equal(got, (cum[width] <= drawn[:, None]).sum(axis=1))

    def test_tables_share_one_read_only_law(self):
        rec = fixed_list_recommender(["a", "b"], [True, False])
        dist = position_probs("zipf", 1.0, 2)
        tables = [TransitionTable.from_recommender(PopularityRegion(("p",)), rec, 2) for _ in "ab"]
        assert tables[0].hit_rates(dist, 3) == tables[1].hit_rates(dist, 3)
        law = demand._law_arrays(dist)
        assert all(table._law(dist) is law for table in tables)
        for array in (law.p, law.last, law.keys):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


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
        table = TransitionTable.from_recommender(front, table_rec, dist.n)
        # Exact cells may have built rows of the same table first.
        if exact_first > 1:
            table.hit_rates(dist, exact_first)
        asked = set(calls)
        del calls[:]
        hits = table.walk(dist, starts, uniforms)

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

    @settings(max_examples=150, deadline=None)
    @given(
        scenario=markov_scenarios(),
        length=st.integers(2, 8),
        sessions=st.integers(1, 50),
        exact_first=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_step_asks_for_the_unique_live_states_without_a_row(
        self, scenario, length, sessions, exact_first, seed
    ):
        # One row-source call per step that reaches a state without a row,
        # for np.unique of those states, in id order; np.unique is the oracle.
        front, rec, dist, cache = scenario
        states = StateNumbers()
        source = list_rows(rec, dist.n, states)
        batches = []

        def rows(fresh):
            batches.append(list(fresh))
            return source(fresh)

        table = TransitionTable(front, rows, dist.n, states)
        if exact_first > 1:
            table.hit_rates(dist, exact_first)
        built = {s for batch in batches for s in batch}
        del batches[:]
        rng = np.random.Generator(np.random.PCG64(seed))
        starts = rng.integers(len(front.ids), size=sessions)
        uniforms = rng.random((sessions, length - 1))
        table.walk(dist, starts, uniforms)

        walks = [
            reference_walk(length, int(start), row, front, rec, dist, cache)
            for start, row in zip(starts, uniforms)
        ]
        want = []
        for j in range(length - 1):
            live = [states.number[w.watched[j]] for w in walks if j < len(w.watched)]
            fresh = np.unique([s for s in live if s not in built]).astype(np.intp)
            if len(fresh):
                want.append(fresh.tolist())
            built.update(live)
        assert [sorted(batch) for batch in batches] == want
        for batch in batches:
            assert batch == sorted(batch, key=states.ids.__getitem__)

    @settings(max_examples=150, deadline=None)
    @given(
        scenario=markov_scenarios(),
        walked=st.integers(2, 8),
        length=st.integers(2, 8),
        sessions=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rates_after_a_walk_equal_dict_propagation_bit_for_bit(
        self, scenario, walked, length, sessions, seed
    ):
        # The order of an ``auto`` sweep whose sampled K comes before K = 2.
        front, rec, dist, _ = scenario
        table_rec, calls = recording(rec)
        table = TransitionTable.from_recommender(front, table_rec, dist.n)
        table.sample(dist, walked, sessions, np.random.Generator(np.random.PCG64(seed)))
        assert table.hit_rates(dist, length) == reference_exact_hit_rates(front, rec, dist, length)
        # Rows the walk built are read, not rebuilt.
        assert len(calls) == len(set(calls))

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=markov_scenarios(),
        length=st.integers(2, 8),
        sessions=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sample_draws_starts_then_one_uniform_per_step(self, scenario, length, sessions, seed):
        front, rec, dist, _ = scenario
        got = TransitionTable.from_recommender(front, rec, dist.n).sample(
            dist, length, sessions, np.random.Generator(np.random.PCG64(seed))
        )
        rng = np.random.Generator(np.random.PCG64(seed))
        starts = rng.integers(len(front.ids), size=sessions)
        uniforms = np.stack([rng.random(sessions) for _ in range(length - 1)], axis=1)
        want = TransitionTable.from_recommender(front, rec, dist.n).walk(dist, starts, uniforms)
        assert got.shape == (sessions, length - 1)
        assert np.array_equal(got, want)

    def test_recommender_error_propagates(self):
        cat = Catalog({"p": ["d"], "d": ["p"]})
        oracle = RelationOracle(cat)

        def rec(v):
            if v == "d":
                raise ValueError("no list for d")
            return reference_recommend(v, 1, CacheManifest.from_ids([]), BfsParams(1, 1), oracle)

        dist = position_probs("uniform", n=1)
        table = TransitionTable.from_recommender(PopularityRegion(("p",)), rec, dist.n)
        assert table.sample(dist, 2, 5, np.random.Generator(np.random.PCG64(0))).shape == (5, 1)
        with pytest.raises(ValueError, match="no list"):
            table.sample(dist, 3, 5, np.random.Generator(np.random.PCG64(0)))
