from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from cabaret_sim.catalog import Catalog, RelationOracle
from cabaret_sim.demand import exact_hit_rates, position_probs
from cabaret_sim.catalog import PopularityRegion
from cabaret_sim.errors import ParameterError
from cabaret_sim.explore import BfsParams, ExplorationList, bfs
from cabaret_sim.recommend import (
    CacheIndex,
    CacheManifest,
    RecommendationList,
    baseline_recommender,
    cabaret_list,
    recommend,
    reordered_recommender,
    select_from_exploration,
)

from conftest import random_catalog


@pytest.fixture
def flat_catalog():
    # One seed whose exploration at depth 1, width 12 is a..l in order.
    return Catalog({"s": list("abcdefghijkl")})


def cache_of(*ids, capacity=None):
    return CacheManifest.from_ids(ids, capacity)


class TestCacheManifest:
    def test_capacity_enforced(self):
        with pytest.raises(ParameterError):
            CacheManifest.from_ids(["a", "b"], capacity=1)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cache.txt"
        manifest = CacheManifest.from_ids(["b", "a"])
        manifest.to_file(str(path))
        assert path.read_text() == "b\na\n"
        again = CacheManifest.from_file(str(path))
        assert again.ids == manifest.ids
        assert again.ordered == ("b", "a")


class TestRecommend:
    def test_no_cached_gives_exploration_head(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        shown = recommend("s", 6, cache_of("x", "y"), BfsParams(1, 12), oracle)
        assert shown.entries == tuple("abcdef")
        assert shown.cached == (False,) * 6

    def test_worked_example_cached_then_head(self, flat_catalog):
        # Hand execution: phase 1 picks d then f; phase 2 tops up with
        # a, b, c, then e (d and f already selected).
        oracle = RelationOracle(flat_catalog)
        shown = recommend("s", 6, cache_of("d", "f", "x"), BfsParams(1, 12), oracle)
        assert shown.entries == ("d", "f", "a", "b", "c", "e")
        assert shown.cached == (True, True, False, False, False, False)

    def test_all_cached_short_circuits(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        shown = recommend("s", 4, cache_of(*"abcdefghijkl"), BfsParams(1, 12), oracle)
        assert shown.entries == ("a", "b", "c", "d")
        assert all(shown.cached)

    def test_empty_exploration_flagged_not_error(self):
        oracle = RelationOracle(Catalog({"s": []}))
        shown = recommend("s", 5, cache_of("a"), BfsParams(2, 3), oracle)
        assert shown.empty
        assert len(shown) == 0

    def test_short_exploration_returns_short_list(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        shown = recommend("s", 100, cache_of("g"), BfsParams(1, 12), oracle)
        assert len(shown) == 12
        assert shown.entries[0] == "g"

    def test_cached_prefix_property(self, rng):
        for _ in range(50):
            cat = random_catalog(rng, 20, 5)
            oracle = RelationOracle(cat)
            ids = cat.ids()
            cached = [ids[i] for i in rng.choice(20, size=6, replace=False)]
            shown = recommend(
                ids[0], 8, cache_of(*cached), BfsParams(2, 3), oracle
            )
            flags = list(shown.cached)
            assert flags == sorted(flags, reverse=True)
            assert len(set(shown.entries)) == len(shown.entries)

    def test_monotone_in_cache(self, rng):
        for _ in range(30):
            cat = random_catalog(rng, 18, 4)
            oracle = RelationOracle(cat)
            ids = cat.ids()
            small = [ids[i] for i in rng.choice(18, size=4, replace=False)]
            large = small + [ids[i] for i in rng.choice(18, size=6, replace=False)]
            shown_small = recommend(ids[0], 6, cache_of(*small), BfsParams(2, 3), oracle)
            shown_large = recommend(ids[0], 6, cache_of(*large), BfsParams(2, 3), oracle)
            assert sum(shown_large.cached) >= sum(shown_small.cached)

    def test_deterministic(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        first = recommend("s", 6, cache_of("d"), BfsParams(1, 12), oracle)
        second = recommend("s", 6, cache_of("d"), BfsParams(1, 12), oracle)
        assert first == second


@st.composite
def small_catalogs(draw):
    """Catalogs of up to 12 contents; empty related lists make leaf seeds."""
    ids = [f"c{i}" for i in range(draw(st.integers(1, 12)))]
    related = {}
    for cid in ids:
        others = draw(st.permutations([x for x in ids if x != cid]))
        related[cid] = others[: draw(st.integers(0, len(others)))]
    return Catalog(related)


class TestCabaretList:
    """The D-1 levels plus cache index path against the full exploration."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_selection_over_full_exploration(self, data):
        cat = data.draw(small_catalogs())
        ids = cat.ids()
        oracle = RelationOracle(cat, w_max=data.draw(st.integers(1, 8)))
        cached = data.draw(st.one_of(
            st.just([]), st.just(ids), st.lists(st.sampled_from(ids), unique=True)
        ))
        cache = CacheManifest.from_ids(cached)
        params = BfsParams(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8)))
        count = data.draw(st.integers(1, 14))
        # One index serves every seed, as it does in the runner.
        index = CacheIndex(cache, oracle, params.width)
        for seed in ids:
            want = select_from_exploration(bfs(seed, params, oracle).entries, count, cache)
            assert recommend(seed, count, cache, params, oracle) == want
            head = ExplorationList(seed, (), ())
            if params.depth > 1:
                head = bfs(seed, BfsParams(params.depth - 1, params.width), oracle)
            assert cabaret_list(head, params.depth, count, index) == want

    def test_rejects_zero_count(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        with pytest.raises(ParameterError):
            recommend("s", 0, cache_of("a"), BfsParams(2, 3), oracle)


class TestPerRequestDominance:
    def test_cached_mass_at_least_baseline(self, rng):
        # With non-increasing position probabilities and exploration width
        # >= the list size, the cache-aware list's cached probability mass
        # dominates the provider baseline's on every single request.
        n = 5
        dist = position_probs("zipf", 0.8, n)
        for _ in range(60):
            cat = random_catalog(rng, 20, 6)
            oracle = RelationOracle(cat)
            ids = cat.ids()
            cached = cache_of(*(ids[i] for i in rng.choice(20, size=7, replace=False)))
            seed = ids[int(rng.integers(20))]
            ours = recommend(seed, n, cached, BfsParams(2, n), oracle)
            base = baseline_recommender(seed, n, oracle, cached)
            mass_ours = sum(p for p, hit in zip(dist.probs, ours.cached) if hit)
            mass_base = sum(p for p, hit in zip(dist.probs, base.cached) if hit)
            assert mass_ours >= mass_base - 1e-12


class TestCountCachedIn:
    """A list flags as many entries as its exploration holds cached, up to n."""

    def test_empty_cache(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        shown = recommend("s", 12, cache_of("zz"), BfsParams(1, 12), oracle)
        assert shown.cached == (False,) * 12

    def test_superset_cache(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        full = cache_of(*"abcdefghijkl")
        shown = recommend("s", 12, full, BfsParams(1, 12), oracle)
        assert shown.cached == (True,) * 12

    def test_consistent_with_recommend_flags(self, rng):
        # min(count, n) equals the number of cached-flagged entries when
        # the exploration has at least n entries.
        for _ in range(40):
            cat = random_catalog(rng, 22, 6)
            oracle = RelationOracle(cat)
            ids = cat.ids()
            cached = cache_of(*(ids[i] for i in rng.choice(22, size=8, replace=False)))
            seed = ids[int(rng.integers(22))]
            params = BfsParams(2, 4)
            n = 6
            explored = bfs(seed, params, oracle).entries
            if len(explored) < n:
                continue
            total = sum(c in cached for c in explored)
            shown = recommend(seed, n, cached, params, oracle)
            assert min(total, n) == sum(shown.cached)


class TestProviderRecommenders:
    def test_baseline_keeps_oracle_order(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        shown = baseline_recommender("s", 4, oracle, cache_of("c"))
        assert shown.entries == ("a", "b", "c", "d")
        assert shown.cached == (False, False, True, False)

    def test_reordered_without_hits_is_baseline(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        assert reordered_recommender("s", 4, cache_of("zz"), oracle).entries == (
            "a",
            "b",
            "c",
            "d",
        )

    def test_reordered_moves_cached_forward(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        shown = reordered_recommender("s", 5, cache_of("c", "e"), oracle)
        assert shown.entries == ("c", "e", "a", "b", "d")
        assert shown.cached == (True, True, False, False, False)

    def test_baseline_equals_depth1_cache_aware_with_empty_cache(self, rng):
        # With nothing cached, phase 2 returns the head of the depth-1
        # exploration, which is exactly the provider's top-n list.
        empty = CacheManifest(frozenset(), 1)
        for _ in range(20):
            cat = random_catalog(rng, 15, 8)
            oracle = RelationOracle(cat)
            seed = cat.ids()[int(rng.integers(15))]
            ours = recommend(seed, 5, empty, BfsParams(1, 5), oracle)
            base = baseline_recommender(seed, 5, oracle, empty)
            assert ours.entries == base.entries
            assert not any(base.cached)

    def test_reordered_equals_depth1_cache_aware(self, rng):
        # Both are the cached-first stable permutation of the provider's
        # top-n list.
        for _ in range(40):
            cat = random_catalog(rng, 20, 8)
            oracle = RelationOracle(cat)
            ids = cat.ids()
            cached = cache_of(*(ids[i] for i in rng.choice(20, size=6, replace=False)))
            seed = ids[int(rng.integers(20))]
            n = 5
            assert reordered_recommender(seed, n, cached, oracle) == recommend(
                seed, n, cached, BfsParams(1, n), oracle
            )

    def test_uniform_demand_sees_no_reordering_gain(self, rng):
        # Reordering the same item set cannot change a position-uniform
        # expectation.
        cat = random_catalog(rng, 25, 8)
        oracle = RelationOracle(cat)
        ids = cat.ids()
        cached = cache_of(*(ids[i] for i in rng.choice(25, size=8, replace=False)))
        front = PopularityRegion(tuple(ids[:10]))
        dist = position_probs("uniform", n=5)
        chr_base = exact_hit_rates(
            front, lambda v: baseline_recommender(v, 5, oracle, cached), dist, 2
        )[0]
        chr_reord = exact_hit_rates(
            front, lambda v: reordered_recommender(v, 5, cached, oracle), dist, 2
        )[0]
        assert chr_base == pytest.approx(chr_reord, abs=1e-15)


class TestRecommendationList:
    def test_alignment_enforced(self):
        with pytest.raises(ParameterError):
            RecommendationList(("a",), (True, False))
