from __future__ import annotations

import ast
import re
import tracemalloc
import types
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cabaret_sim.recommend as recommend_module
from cabaret_sim.catalog import Catalog, RelationOracle
from cabaret_sim.demand import exact_hit_rates, position_probs
from cabaret_sim.catalog import PopularityRegion
from cabaret_sim.errors import ParameterError
from cabaret_sim.explore import BfsParams, bfs
from cabaret_sim.recommend import (
    CacheIndex,
    CacheManifest,
    CandidateStore,
    RecommendationList,
    StateNumbers,
    baseline_recommender,
    cached_discovery,
    head_params,
    provider_rows,
    reordered_recommender,
    select_from_exploration,
    top_up_candidates,
)

from conftest import ReferenceSelectionOrderStore, random_catalog, reference_recommend


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

    def test_a_byte_order_mark_does_not_lead_the_first_id(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_bytes("\ufeffb\na\n".encode("utf-8"))
        assert CacheManifest.from_file(str(path)).ordered == ("b", "a")

    @pytest.mark.parametrize("bad", [" a", "b\n", "c ", "d\re", "\t", "", "\ufeffe"])
    def test_an_id_that_reads_back_changed_is_not_written(self, tmp_path, bad):
        path = tmp_path / "cache.txt"
        with pytest.raises(ParameterError, match=f"^cache id {re.escape(repr(bad))} cannot"):
            CacheManifest.from_ids(["ok", bad, " z"]).to_file(str(path))
        assert not path.exists()


class TestRecommend:
    def test_no_cached_gives_exploration_head(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        shown = reference_recommend("s", 6, cache_of("x", "y"), BfsParams(1, 12), oracle)
        assert shown.entries == tuple("abcdef")
        assert shown.cached == (False,) * 6

    def test_worked_example_cached_then_head(self, flat_catalog):
        # Hand execution: phase 1 picks d then f; phase 2 tops up with
        # a, b, c, then e (d and f already selected).
        oracle = RelationOracle(flat_catalog)
        shown = reference_recommend("s", 6, cache_of("d", "f", "x"), BfsParams(1, 12), oracle)
        assert shown.entries == ("d", "f", "a", "b", "c", "e")
        assert shown.cached == (True, True, False, False, False, False)

    def test_all_cached_short_circuits(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        shown = reference_recommend("s", 4, cache_of(*"abcdefghijkl"), BfsParams(1, 12), oracle)
        assert shown.entries == ("a", "b", "c", "d")
        assert all(shown.cached)

    def test_empty_exploration_flagged_not_error(self):
        oracle = RelationOracle(Catalog({"s": []}))
        shown = reference_recommend("s", 5, cache_of("a"), BfsParams(2, 3), oracle)
        assert shown.empty
        assert len(shown) == 0

    def test_short_exploration_returns_short_list(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        shown = reference_recommend("s", 100, cache_of("g"), BfsParams(1, 12), oracle)
        assert len(shown) == 12
        assert shown.entries[0] == "g"

    def test_cached_prefix_property(self, rng):
        for _ in range(50):
            cat = random_catalog(rng, 20, 5)
            oracle = RelationOracle(cat)
            ids = cat.ids()
            cached = [ids[i] for i in rng.choice(20, size=6, replace=False)]
            shown = reference_recommend(
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
            shown_small = reference_recommend(ids[0], 6, cache_of(*small), BfsParams(2, 3), oracle)
            shown_large = reference_recommend(ids[0], 6, cache_of(*large), BfsParams(2, 3), oracle)
            assert sum(shown_large.cached) >= sum(shown_small.cached)

    def test_deterministic(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        first = reference_recommend("s", 6, cache_of("d"), BfsParams(1, 12), oracle)
        second = reference_recommend("s", 6, cache_of("d"), BfsParams(1, 12), oracle)
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


def head_of(seed, params, oracle):
    """The head of the exploration around ``seed``, under the store's own rule."""
    return bfs(seed, head_params(params), oracle)


def selection_order_list(found, tops, count, cache):
    """A cache's list from its selection order's discovery and top-up candidates."""
    picked = [c for c in found if c in cache.ids][:count]
    n_cached = len(picked)
    picked += [c for c in tops if c not in cache.ids][: count - n_cached]
    flags = (True,) * n_cached + (False,) * (len(picked) - n_cached)
    return RecommendationList(tuple(picked), flags)


class TestCabaretList:
    """The D-1 levels plus cache index path against the full exploration."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_selection_over_full_exploration(self, data):
        cat = data.draw(small_catalogs())
        ids = cat.ids()
        oracle = RelationOracle(cat)
        cached = data.draw(st.one_of(
            st.just([]), st.just(ids), st.lists(st.sampled_from(ids), unique=True)
        ))
        cache = CacheManifest.from_ids(cached)
        params = BfsParams(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8)))
        count = data.draw(st.integers(1, 14))
        # One index serves every seed, as it does in the runner.
        index = CacheIndex(cache.ids, oracle, params.width)
        for seed in ids:
            explored = bfs(seed, params, oracle).entries
            want = select_from_exploration(explored, count, cache)
            assert reference_recommend(seed, count, cache, params, oracle) == want
            head = head_of(seed, params, oracle)
            tops = top_up_candidates(head, params.depth, count, oracle, params.width)
            assert tops == explored[:count]
            found = cached_discovery(head, params.depth, index)
            assert found == tuple(filter(index.ids.__contains__, explored))
            n_cached = sum(want.cached)
            assert tuple(c for c in found if c in cache.ids)[:count] == want.entries[:n_cached]
            assert selection_order_list(found, tops, count, cache) == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_discovery_serves_every_cache_of_a_selection_order(self, data):
        # The caches cut from one order each lie inside the largest, whose
        # index, discovery and top-up candidates they share.
        cat = data.draw(small_catalogs())
        ids = cat.ids()
        oracle = RelationOracle(cat)
        # Two ids outside the catalog let a cache miss every exploration.
        order = data.draw(st.permutations(ids + ["x0", "x1"]))
        sizes = data.draw(st.lists(st.integers(0, len(order)), min_size=1, max_size=4))
        # Add the empty cache, the full one, or both.
        sizes += data.draw(st.sampled_from([[], [0], [len(order)], [0, len(order)]]))
        sizes = sorted(set(sizes))
        caches = [CacheManifest.from_ids(order[:size]) for size in sizes]
        params = BfsParams(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8)))
        count = data.draw(st.integers(1, 14))
        index = CacheIndex(caches[-1].ids, oracle, params.width)
        for seed in ids:
            explored = bfs(seed, params, oracle).entries
            head = head_of(seed, params, oracle)
            found = cached_discovery(head, params.depth, index)
            assert found == tuple(filter(index.ids.__contains__, explored))
            tops = top_up_candidates(head, params.depth, count, oracle, params.width)
            for cache in caches:
                want = select_from_exploration(explored, count, cache)
                n_cached = sum(want.cached)
                cached = tuple(c for c in found if c in cache.ids)
                assert cached[:count] == want.entries[:n_cached]
                assert selection_order_list(found, tops, count, cache) == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_selection_order_store_derives_the_rows_of_every_cache(self, data):
        # The store built from its inputs alone, with no runner: every
        # nested cache's rows against the selection over the full
        # exploration, at depths 1 to 3.
        cat = data.draw(small_catalogs())
        ids = sorted(cat.ids())
        oracle = RelationOracle(cat)
        # Two ids outside the catalog let a cache miss every exploration.
        order = tuple(data.draw(st.permutations(ids + ["x0", "x1"])))
        sizes = data.draw(st.lists(st.integers(1, len(order)), min_size=1, max_size=4))
        sizes = sorted(set(sizes))
        params = BfsParams(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8)))
        n = data.draw(st.integers(1, 14))
        # Blocks of a few states split the batch; a second store derives
        # it whole, and both must give the same rows and state numbers.
        # Rows are asked for some contents, so that they number the rest.
        block = data.draw(st.integers(1, 4), label="block")
        asked = data.draw(st.permutations(ids), label="asked")
        asked = asked[: data.draw(st.integers(1, len(ids)), label="asked count")]
        stores = []
        for _ in range(2):
            states = StateNumbers()
            store = CandidateStore(frozenset(order[: sizes[-1]]), oracle, params, n, states)
            stores.append((store, states, states.numbers(asked)))
        (store, states, fresh), (whole, whole_states, whole_fresh) = stores
        for size in sizes:
            cache = CacheManifest.from_ids(order[:size])
            with patch.object(recommend_module, "ROW_BLOCK", block):
                width, cached, entries = store.rows(cache.ids)(fresh)
            whole_rows = whole.rows(cache.ids)(whole_fresh)
            for got, want in zip((width, cached, entries), whole_rows):
                assert (got == want).all()
            assert states.ids == whole_states.ids
            for v, w, flags, row in zip(asked, width, cached, entries):
                want = select_from_exploration(bfs(v, params, oracle).entries, n, cache)
                assert w == len(want)
                assert tuple(states.ids[s] for s in row[:w]) == want.entries
                assert tuple(flags[:w].tolist()) == want.cached
                assert not flags[w:].any() and (row[w:] == -1).all()

    @staticmethod
    def ring_store(size):
        """A store over ``size`` contents whose lists are the next 40 around a ring.

        Each content has 30 candidates: the 20 cached entries of its list,
        all of its discovery, and its first 10.  Returns the store, the
        states and the cache.
        """
        n, width = 10, 40
        ids = [f"c{i:04d}" for i in range(size)]
        cat = Catalog({c: [ids[(i + k) % size] for k in range(1, width + 1)]
                       for i, c in enumerate(ids)})
        oracle = RelationOracle(cat)
        order = tuple(ids[::2])
        states = StateNumbers()
        store = CandidateStore(frozenset(order), oracle, BfsParams(1, width), n, states)
        return store, states.numbers(ids), frozenset(order)

    def test_rows_hold_scratch_for_one_block_at_a_time(self, monkeypatch):
        # 512 states, eight blocks.  A derivation over the whole batch
        # holds several (states × candidates) arrays at once: here over 40
        # times one block's (block × candidates) int64s.
        block = 64
        store, fresh, cache = self.ring_store(512)
        store.add(fresh)
        columns = (store.at[fresh, 1] + store.at[fresh, 2]).max()
        assert columns == 30
        monkeypatch.setattr(recommend_module, "ROW_BLOCK", block)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            rows = store.rows(cache)(fresh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(array.nbytes for array in rows)
        assert peak - held < output + 10 * block * columns * 8

    def test_rows_store_one_block_at_a_time(self, monkeypatch):
        # 1,024 states not stored yet, sixteen blocks.  Storing the whole
        # batch before deriving rows holds every state's head, discovery,
        # top-up and candidate ids at once: about 460 kB here, where one
        # block's take about 70 kB.  What the call keeps, the rows and the
        # store, is left out.
        block, columns = 64, 30
        store, fresh, cache = self.ring_store(1024)
        monkeypatch.setattr(recommend_module, "ROW_BLOCK", block)
        tracemalloc.start()
        try:
            store.rows(cache)(fresh)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (store.at[fresh, 1] + store.at[fresh, 2] == columns).all()
        assert peak - kept < 10 * block * columns * 8

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_run_store_serves_every_selection_order(self, data):
        # Up to four unrelated selection orders share one store, which
        # indexes the union of their caches.  Every cache's rows equal those
        # of its order's own store, which flags candidates by rank, and the
        # selection over the full exploration, at depths 1 to 3.
        cat = data.draw(small_catalogs())
        ids = sorted(cat.ids())
        oracle = RelationOracle(cat)
        params = BfsParams(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8)))
        n = data.draw(st.integers(1, 14))
        head = lambda v: head_of(v, params, oracle)  # noqa: E731
        families = []
        for _ in range(data.draw(st.integers(1, 4), label="families")):
            # Two ids outside the catalog let a cache miss every exploration.
            order = data.draw(st.permutations(ids + ["x0", "x1"]))
            sizes = data.draw(st.lists(st.integers(1, len(order)), min_size=1, max_size=3))
            if data.draw(st.booleans(), label="holds a head"):
                # A cache that holds all but a few entries of one head, so
                # its rows top up from the rest of that head and past it.
                held = head(data.draw(st.sampled_from(ids))).entries
                drop = data.draw(st.integers(0, min(3, len(held))))
                held = [c for c in held if c not in data.draw(st.permutations(held))[:drop]]
                order = held + [c for c in order if c not in held]
                sizes.append(max(len(held), 1))
            sizes = sorted(set(sizes))
            families.append((tuple(order[: sizes[-1]]), sizes))
        states = StateNumbers()
        store = CandidateStore(
            frozenset().union(*(order for order, _ in families)), oracle, params, n, states
        )
        fresh = states.numbers(ids)
        for order, sizes in families:
            own_states = StateNumbers()
            own = ReferenceSelectionOrderStore(
                order, CacheIndex(frozenset(order), oracle, params.width), head,
                params.depth, n, own_states,
            )
            own_fresh = own_states.numbers(ids)
            for size in sizes:
                cache = CacheManifest.from_ids(order[:size])
                width, cached, entries = store.rows(cache.ids)(fresh)
                own_width, own_cached, own_entries = own.rows(own_fresh, size)
                assert (width == own_width).all() and (cached == own_cached).all()
                for v, w, flags, row, own_row in zip(ids, width, cached, entries, own_entries):
                    shown = tuple(states.ids[s] for s in row[:w])
                    assert shown == tuple(own_states.ids[s] for s in own_row[:w])
                    want = select_from_exploration(bfs(v, params, oracle).entries, n, cache)
                    assert w == len(want)
                    assert shown == want.entries
                    assert tuple(flags[:w].tolist()) == want.cached
                    assert not flags[w:].any() and (row[w:] == -1).all()

    def test_rejects_zero_count(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        with pytest.raises(ParameterError):
            reference_recommend("s", 0, cache_of("a"), BfsParams(2, 3), oracle)

    def test_store_rejects_zero_count(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        with pytest.raises(ParameterError, match=r"^count must be >= 1, got 0$"):
            CandidateStore(frozenset("a"), oracle, BfsParams(2, 3), 0, StateNumbers())


class TestStateNumbers:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.text(max_size=4)), max_size=6))
    @example([["a\x00b", "a", "b"], ["a\x00", "", "a"]])
    def test_rank_orders_states_by_id(self, batches):
        # Ids may hold any characters, "\x00" included, and batches repeat
        # ids already numbered.
        states = StateNumbers()
        for batch in batches:
            numbers = states.numbers(batch)
            assert [states.ids[s] for s in numbers] == batch
            every = np.arange(len(states))
            by_rank = every[np.argsort(states.rank[every])]
            assert by_rank.tolist() == sorted(every.tolist(), key=states.ids.__getitem__)
            assert states.by_id == by_rank.tolist()


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
            ours = reference_recommend(seed, n, cached, BfsParams(2, n), oracle)
            base = baseline_recommender(seed, n, oracle, cached)
            mass_ours = sum(p for p, hit in zip(dist.probs, ours.cached) if hit)
            mass_base = sum(p for p, hit in zip(dist.probs, base.cached) if hit)
            assert mass_ours >= mass_base - 1e-12


class TestCountCachedIn:
    """A list flags as many entries as its exploration holds cached, up to n."""

    def test_empty_cache(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        shown = reference_recommend("s", 12, cache_of("zz"), BfsParams(1, 12), oracle)
        assert shown.cached == (False,) * 12

    def test_superset_cache(self, flat_catalog):
        oracle = RelationOracle(flat_catalog)
        full = cache_of(*"abcdefghijkl")
        shown = reference_recommend("s", 12, full, BfsParams(1, 12), oracle)
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
            shown = reference_recommend(seed, n, cached, params, oracle)
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
            ours = reference_recommend(seed, 5, empty, BfsParams(1, 5), oracle)
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
            assert reordered_recommender(seed, n, cached, oracle) == reference_recommend(
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


class TestProviderRows:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flags_equal_isin_of_the_cached_numbers(self, data):
        # The rows flag an entry by reading a dense per-state array;
        # np.isin over the cache's state numbers is the oracle.  The
        # provider may number new contents while it builds the rows, and
        # the cache may hold contents no row shows.
        ids = [f"c{i:02d}" for i in range(data.draw(st.integers(1, 12), label="size"))]
        late = [f"late{i}" for i in range(data.draw(st.integers(0, 2), label="late"))]
        outside = ["x0", "x1"]
        cached = data.draw(st.one_of(
            st.just([]),
            st.just(ids + late + outside),
            st.lists(st.sampled_from(ids + late + outside), unique=True),
        ), label="cached")
        n = data.draw(st.integers(1, 6), label="n")
        rows_of = data.draw(st.lists(
            st.lists(st.integers(0, len(ids) + len(late) - 1), unique=True, max_size=n),
            min_size=1, max_size=8,
        ), label="rows")
        states = StateNumbers()
        fresh = states.numbers(ids)

        def provider(asked):
            states.numbers(late)
            width = np.array([len(row) for row in rows_of], dtype=np.intp)
            entries = np.full((len(rows_of), n), -1, dtype=np.intp)
            for entry_row, row in zip(entries, rows_of):
                entry_row[: len(row)] = [states.number[(ids + late)[i]] for i in row]
            return width, np.zeros(entries.shape, dtype=bool), entries

        for kind in ("baseline", "reordered"):
            rows = provider_rows(kind, frozenset(cached), provider, states)
            width, hits, entries = rows(fresh)
            flagged = np.array([states.number[c] for c in cached], dtype=np.intp)
            assert (width == [len(row) for row in rows_of]).all()
            assert (hits == np.isin(entries, flagged)).all()
            assert ((entries < 0) == (np.arange(n) >= width[:, None])).all()
            if kind == "baseline":
                assert (entries == provider(fresh)[2]).all()


class TestRecommendationList:
    def test_alignment_enforced(self):
        with pytest.raises(ParameterError):
            RecommendationList(("a",), (True, False))


def imported_modules(name):
    """Every module name, and name imported from a module, in ``cabaret_sim/<name>.py``."""
    path = Path(__file__).resolve().parent.parent / "src" / "cabaret_sim" / f"{name}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(part for alias in node.names for part in alias.name.split("."))
    return found


def test_the_package_does_not_hide_its_recommend_module():
    # The package must bind no name ``recommend`` of its own, or this
    # import binds that name instead of the module.
    import cabaret_sim.recommend as module

    assert isinstance(module, types.ModuleType)
    assert module.StateNumbers is StateNumbers


def test_row_building_sits_below_the_modules_that_read_rows():
    # recommend.py builds every row that a table reads, and demand.py
    # evaluates rows for the runner, so neither imports a layer above it.
    assert not imported_modules("recommend") & {"demand", "placement", "metrics", "experiment"}
    assert "experiment" not in imported_modules("demand")
    assert "recommend" in imported_modules("demand")
