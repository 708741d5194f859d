from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cabaret_sim.catalog import Catalog, RelationOracle
from cabaret_sim.errors import ParameterError
from cabaret_sim.explore import BfsParams, bfs

from conftest import CountingOracle, random_catalog, reference_bfs


def fig2_catalog() -> Catalog:
    """Three related per content, no shared neighbors, two levels."""
    return Catalog(
        {
            "s": ["a", "b", "c"],
            "a": ["d", "e", "f"],
            "b": ["g", "h", "i"],
            "c": ["j", "k", "l"],
        }
    )


class TestBfs:
    def test_depth_one_equals_related(self):
        oracle = RelationOracle(fig2_catalog())
        result = bfs("s", BfsParams(1, 3), oracle)
        assert result.entries == oracle.related("s", 3)
        assert result.depths == (1, 1, 1)

    def test_depth_one_is_one_query_taken_as_it_is(self):
        oracle = CountingOracle(fig2_catalog())
        result = bfs("s", BfsParams(1, 2), oracle)
        assert oracle.queries == 1
        assert result.entries == ("a", "b")
        assert result.depths == (1, 1)

    def test_two_levels_no_sharing(self):
        # depth 2, width 3, disjoint lists: 3 + 9 = 12 entries.
        oracle = RelationOracle(fig2_catalog())
        result = bfs("s", BfsParams(2, 3), oracle)
        assert result.entries == tuple("abcdefghijkl")
        assert len(result) == 12
        assert result.depths == (1,) * 3 + (2,) * 9

    def test_cycle_skips_seed_on_rediscovery(self):
        # Hand trace: level 1 [b], level 2 [c], level 3 rediscovers the
        # seed a, which is skipped, leaving [b, c].
        oracle = RelationOracle(Catalog({"a": ["b"], "b": ["c"], "c": ["a"]}))
        result = bfs("a", BfsParams(3, 1), oracle)
        assert result.entries == ("b", "c")
        assert result.depths == (1, 2)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            BfsParams(0, 3)
        with pytest.raises(ParameterError):
            BfsParams(2, 0)

    def test_matches_reference_on_random_catalogs(self, rng):
        for _ in range(40):
            size = int(rng.integers(3, 25))
            degree = int(rng.integers(1, 6))
            cat = random_catalog(rng, size, degree)
            oracle = RelationOracle(cat)
            seed = cat.ids()[int(rng.integers(size))]
            depth = int(rng.integers(1, 5))
            width = int(rng.integers(1, 7))
            got = bfs(seed, BfsParams(depth, width), oracle)
            entries, depths = reference_bfs(seed, depth, width, oracle)
            assert list(got.entries) == entries
            assert list(got.depths) == depths

    def test_query_budget(self, rng):
        # At most one query for the seed plus one per entry discovered
        # before the final level.
        for _ in range(20):
            cat = random_catalog(rng, 20, 4)
            oracle = CountingOracle(cat)
            depth = int(rng.integers(1, 4))
            result = bfs("c000", BfsParams(depth, 3), oracle)
            before_last = sum(1 for d in result.depths if d < depth)
            assert oracle.queries <= 1 + before_last


class TestBfsInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_structural_invariants(self, data):
        gen = np.random.Generator(
            np.random.PCG64(data.draw(st.integers(0, 2**32 - 1)))
        )
        cat = random_catalog(gen, data.draw(st.integers(3, 18)), 4)
        oracle = RelationOracle(cat)
        seed = cat.ids()[0]
        depth = data.draw(st.integers(1, 4))
        width = data.draw(st.integers(1, 5))
        result = bfs(seed, BfsParams(depth, width), oracle)
        # No duplicates, never the seed, bounded size.
        assert seed not in result.entries
        assert len(set(result.entries)) == len(result.entries)
        assert len(result) <= sum(width**d for d in range(1, depth + 1))
        # Depth annotations non-decreasing; depth-1 slice equals the
        # oracle's own answer, in order.
        assert list(result.depths) == sorted(result.depths)
        first = tuple(e for e, d in zip(result.entries, result.depths) if d == 1)
        assert first == oracle.related(seed, width)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_monotone_in_width_and_depth(self, data):
        gen = np.random.Generator(
            np.random.PCG64(data.draw(st.integers(0, 2**32 - 1)))
        )
        cat = random_catalog(gen, data.draw(st.integers(3, 15)), 5)
        oracle = RelationOracle(cat)
        seed = cat.ids()[0]
        w1 = data.draw(st.integers(1, 4))
        w2 = data.draw(st.integers(w1, 5))
        d1 = data.draw(st.integers(1, 3))
        d2 = data.draw(st.integers(d1, 4))
        assert set(bfs(seed, BfsParams(d1, w1), oracle).entries) <= set(
            bfs(seed, BfsParams(d1, w2), oracle).entries
        )
        assert set(bfs(seed, BfsParams(d1, w1), oracle).entries) <= set(
            bfs(seed, BfsParams(d2, w1), oracle).entries
        )


def depth_sets(result) -> dict[int, set]:
    """The explored entries grouped by their first-discovery depth."""
    sets: dict[int, set] = {}
    for entry, depth in zip(result.entries, result.depths):
        sets.setdefault(depth, set()).add(entry)
    return sets


class TestDepthSets:
    def test_depth_one_single_set(self):
        oracle = RelationOracle(fig2_catalog())
        assert depth_sets(bfs("s", BfsParams(1, 3), oracle)) == {1: {"a", "b", "c"}}

    def test_fig2_shape_sizes(self):
        oracle = RelationOracle(fig2_catalog())
        sets = depth_sets(bfs("s", BfsParams(2, 3), oracle))
        assert (len(sets[1]), len(sets[2])) == (3, 9)

    def test_partition_properties(self, rng):
        # Every depth up to the last one reached is populated, and each
        # level holds exactly the unseen entries of the previous level's
        # related lists.
        for _ in range(20):
            cat = random_catalog(rng, 15, 4)
            oracle = RelationOracle(cat)
            params = BfsParams(int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            result = bfs("c000", params, oracle)
            sets = depth_sets(result)
            assert sorted(sets) == list(range(1, len(sets) + 1))
            seen, level = {"c000"}, {"c000"}
            for depth in range(1, params.depth + 1):
                found = {c for u in level for c in oracle.related(u, params.width)} - seen
                assert sets.get(depth, set()) == found
                seen |= found
                level = found
