from __future__ import annotations

import math
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from cabaret_sim.catalog import Catalog, PopularityRegion, RelationOracle, top_popular
from cabaret_sim.demand import PositionDistribution, exact_hit_rates, position_probs
from cabaret_sim.errors import InstanceTooLargeError, ParameterError
from cabaret_sim.explore import BfsParams
from cabaret_sim.placement import (
    ObjectiveSpec,
    exact_placement,
    greedy_placement,
    objective,
    top_placement,
)
from cabaret_sim.recommend import CacheManifest

from conftest import (
    check_submodularity, naive_greedy_placement, random_catalog, reference_greedy_placement,
    reference_recommend, weighted_spec,
)


def spec_of(table: dict, list_size: int, weights=None) -> ObjectiveSpec:
    support = tuple(sorted(table))
    if weights is None:
        weights = [1.0] * len(support)
    dist = position_probs("uniform", n=list_size)
    return ObjectiveSpec(support, weights, list_size, dist, table)


def random_spec(rng, size=10, degree=4, support_size=5, list_size=3) -> ObjectiveSpec:
    cat = random_catalog(rng, size, degree)
    oracle = RelationOracle(cat)
    ids = cat.ids()
    support = [ids[i] for i in rng.choice(size, size=support_size, replace=False)]
    weights = {v: float(rng.random()) + 0.05 for v in support}
    dist = position_probs("zipf", float(rng.random() * 1.5), list_size)
    return weighted_spec(support, weights, list_size, dist, BfsParams(2, 3), oracle)


def naive_greedy(spec, capacity):
    """Reference greedy: full objective re-evaluation for every candidate."""
    pool = sorted(spec.universe)
    chosen = []
    while len(chosen) < capacity and pool:
        base = objective(spec, chosen)
        best_id, best_gain = None, None
        for cid in pool:
            gain = objective(spec, chosen + [cid]) - base
            if best_gain is None or gain > best_gain:
                best_id, best_gain = cid, gain
        if best_gain <= 0.0:
            fill = pool[: capacity - len(chosen)]
            chosen.extend(fill)
            break
        chosen.append(best_id)
        pool.remove(best_id)
    return chosen


class TestObjective:
    def test_empty_cache_zero(self):
        spec = spec_of({"v": frozenset("abc")}, 2)
        assert objective(spec, set()) == 0.0

    def test_saturation_hits_one(self):
        spec = spec_of({"v": frozenset("abc"), "w": frozenset("cd")}, 2)
        assert objective(spec, set("abcd")) == pytest.approx(1.0, abs=1e-12)

    def test_partial_coverage_uniform(self):
        # Single demand row, uniform over 20 slots, 5 cached: 5/20.
        spec = spec_of({"v": frozenset(f"x{i}" for i in range(30))}, 20)
        cached = {f"x{i}" for i in range(5)}
        assert objective(spec, cached) == pytest.approx(0.25, abs=1e-12)

    def test_cap_at_list_size(self):
        spec = spec_of({"v": frozenset(f"x{i}" for i in range(30))}, 4)
        assert objective(spec, {f"x{i}" for i in range(10)}) == pytest.approx(1.0)

    def test_monotone(self, rng):
        for _ in range(30):
            spec = random_spec(rng)
            universe = list(spec.universe)
            b_idx = rng.choice(len(universe), size=min(6, len(universe)), replace=False)
            b_set = [universe[i] for i in b_idx]
            a_set = b_set[: int(rng.integers(0, len(b_set) + 1))]
            assert objective(spec, a_set) <= objective(spec, b_set) + 1e-12

    def test_weights_normalized(self):
        spec = spec_of({"v": frozenset("ab"), "w": frozenset("cd")}, 2, weights=[3.0, 1.0])
        assert objective(spec, {"a", "b"}) == pytest.approx(0.75)

    def test_duplicate_ids_counted_once(self):
        spec = spec_of({"v": frozenset("abc")}, 3)
        assert objective(spec, ["a", "a", "b"]) == objective(spec, ["a", "b"])


@st.composite
def objective_cases(draw):
    """A catalog with leaves and short lists, a front page, a cache and a law."""
    size = draw(st.integers(2, 10))
    ids = [f"c{i}" for i in range(size)]
    # Ids past the catalog's own become leaves once a list names them.
    pool = ids + ["leaf0", "leaf1", "leaf2"]
    related = {
        cid: draw(st.lists(st.sampled_from([x for x in pool if x != cid]), unique=True, max_size=4))
        for cid in ids
    }
    catalog = Catalog(related)
    known = catalog.ids()
    front = draw(st.lists(st.sampled_from(known), min_size=1, max_size=5, unique=True))
    cached = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    # The law spans the list, as the runner pairs them: a spec refuses
    # any other width.
    list_size = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["uniform", "zipf"]))
    dist = position_probs(kind, draw(st.floats(0.0, 2.0)) if kind == "zipf" else 0.0, list_size)
    params = BfsParams(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    return catalog, PopularityRegion(tuple(front)), cached, dist, list_size, params


class TestObjectiveIsTheEvaluatedRate:
    def test_short_list_priced_with_its_truncated_law(self):
        # Front page {a, b}, uniform law over N = 5, depth 1: a's list is
        # [x] and b's is c1..c5.  Caching x serves every request after a,
        # while c1 serves a fifth of those after b.
        catalog = Catalog({"a": ["x"], "b": ["c1", "c2", "c3", "c4", "c5"]})
        oracle = RelationOracle(catalog)
        front = PopularityRegion(("a", "b"))
        dist = position_probs("uniform", n=5)
        params = BfsParams(1, 5)
        spec = ObjectiveSpec.build(front.ids, 5, dist, params, oracle)

        def rate(cached):
            cache = CacheManifest.from_ids(cached)
            rec = lambda v: reference_recommend(v, 5, cache, params, oracle)
            return exact_hit_rates(front, rec, dist, 2)[0]

        assert objective(spec, ["x"]) == rate(["x"]) == 0.5
        assert objective(spec, ["c1"]) == pytest.approx(rate(["c1"])) == 0.1
        assert greedy_placement(spec, 1).chosen == ("x",)
        assert exact_placement(spec, 1).chosen == ("x",)

    @settings(max_examples=200, deadline=None)
    @given(objective_cases())
    def test_objective_equals_exact_two_request_rate(self, case):
        catalog, front, cached, dist, list_size, params = case
        oracle = RelationOracle(catalog)
        spec = ObjectiveSpec.build(front.ids, list_size, dist, params, oracle)
        cache = CacheManifest.from_ids(cached)
        rec = lambda v: reference_recommend(v, list_size, cache, params, oracle)
        rate = exact_hit_rates(front, rec, dist, 2)[0]
        assert objective(spec, cached) == pytest.approx(rate, abs=1e-12)


@st.composite
def saturating_specs(draw):
    """Few short rows over a small pool: greedy often fills zero-gain slots."""
    pool = [f"x{i}" for i in range(draw(st.integers(1, 10)))]
    rows = draw(st.lists(st.frozensets(st.sampled_from(pool)), min_size=1, max_size=5))
    weights = draw(st.lists(st.floats(0.05, 2.0), min_size=len(rows), max_size=len(rows)))
    list_size = draw(st.integers(1, 4))
    dist = position_probs("zipf", draw(st.floats(0.0, 2.0)), list_size)
    table = {f"v{i}": row for i, row in enumerate(rows)}
    return ObjectiveSpec(tuple(table), weights, list_size, dist, table)


@st.composite
def signature_specs(draw):
    """Uniform weights over rows that share many contents: whole runs of
    candidates have equal inverted rows, and a uniform law over up to 25
    positions has prefix differences that round."""
    pool = [f"x{i:02d}" for i in range(draw(st.integers(1, 40)))]
    blocks = draw(st.lists(st.frozensets(st.sampled_from(pool)), min_size=1, max_size=4))
    rows = draw(st.lists(
        st.lists(st.sampled_from(blocks), max_size=3).map(lambda parts: frozenset().union(*parts)),
        min_size=1, max_size=8,
    ))
    list_size = draw(st.integers(1, 25))
    kind = draw(st.sampled_from(["uniform", "zipf"]))
    alpha = draw(st.floats(0.0, 2.0)) if kind == "zipf" else 0.0
    dist = position_probs(kind, alpha, list_size)
    table = {f"v{i}": row for i, row in enumerate(rows)}
    return ObjectiveSpec(tuple(table), [1.0] * len(rows), list_size, dist, table)


class TestGreedy:
    @settings(max_examples=300, deadline=None)
    @given(saturating_specs(), st.integers(1, 12))
    def test_smaller_capacities_are_prefixes(self, spec, top):
        full = greedy_placement(spec, top)
        picked = len(full) - full.filled
        for c in range(1, top + 1):
            part = greedy_placement(spec, c)
            assert part.chosen == full.chosen[:c]
            assert part.objective_values == full.objective_values[:c]
            assert part.gains == full.gains[:c]
            # A capacity past the universe keeps only what the universe holds.
            assert part.filled == max(0, min(c, len(full)) - picked)

    @settings(max_examples=400, deadline=None)
    @given(saturating_specs() | signature_specs(), st.integers(1, 45))
    def test_equals_the_reference_heap(self, spec, capacity):
        # Picks, values, gains and fill, bit for bit.
        assert greedy_placement(spec, capacity) == reference_greedy_placement(spec, capacity)

    @settings(max_examples=400, deadline=None)
    @given(saturating_specs() | signature_specs(), st.integers(1, 45))
    def test_equals_naive_greedy(self, spec, capacity):
        # Picks, values, gains and fill, bit for bit: a stale gain is never
        # below the fresh one, and equal gains go to the smaller id.
        assert greedy_placement(spec, capacity) == naive_greedy_placement(spec, capacity)

    def test_single_slot_is_argmax(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            result = greedy_placement(spec, 1)
            values = {c: objective(spec, [c]) for c in spec.universe}
            top_value = max(values.values())
            ties = sorted(c for c, v in values.items() if v == top_value)
            assert result.chosen == (ties[0],)

    def test_matches_naive_on_random_instances(self, rng):
        for _ in range(100):
            spec = random_spec(
                rng,
                size=int(rng.integers(6, 14)),
                degree=int(rng.integers(2, 5)),
                support_size=int(rng.integers(2, 6)),
            )
            capacity = int(rng.integers(1, 6))
            lazy = greedy_placement(spec, capacity)
            assert list(lazy.chosen) == naive_greedy(spec, capacity)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_naive_when_every_gain_is_exact(self, data):
        # A uniform law over 2**k positions, rows as long as a power of two
        # and 2**j support contents make every gain a sum of exact powers
        # of two, so a stale gain never rounds below its content's true
        # gain.  Lazy greedy may part from naive greedy only by rounding.
        n = 2 ** data.draw(st.integers(0, 3), label="log2 positions")
        pool = [f"c{i:02d}" for i in range(12)]
        lengths = st.sampled_from([0, *(2**i for i in range(4) if 2**i < n)]) | st.integers(
            n, len(pool)
        )
        table = {}
        for i in range(2 ** data.draw(st.integers(0, 3), label="log2 support")):
            size = data.draw(lengths, label="exploration size")
            table[f"v{i}"] = frozenset(data.draw(st.permutations(pool))[:size])
        spec = spec_of(table, n)
        if not spec.universe:
            return
        capacity = data.draw(st.integers(1, len(spec.universe)), label="capacity")
        assert list(greedy_placement(spec, capacity).chosen) == naive_greedy(spec, capacity)

    def test_trajectory_non_decreasing_gains_non_increasing(self, rng):
        for _ in range(20):
            spec = random_spec(rng, size=12, support_size=5)
            result = greedy_placement(spec, 6)
            values = result.objective_values
            assert all(values[i] <= values[i + 1] + 1e-15 for i in range(len(values) - 1))
            real_gains = [g for g in result.gains if g > 0]
            assert all(
                real_gains[i] + 1e-12 >= real_gains[i + 1]
                for i in range(len(real_gains) - 1)
            )
            # Trajectory points equal the objective of each prefix.
            for i in range(len(result.chosen)):
                assert values[i] == pytest.approx(
                    objective(spec, result.chosen[: i + 1]), abs=1e-15
                )

    def test_tie_breaks_toward_smaller_id(self):
        spec = spec_of({"v": frozenset(["b", "d"]), "w": frozenset(["a", "c"])}, 2)
        result = greedy_placement(spec, 2)
        assert result.chosen == ("a", "b")

    def test_tie_breaks_toward_smaller_id_where_prefix_sums_round(self):
        # After x03 and x00, x01 would fill the second third of row v and
        # x04 the last third of row w.  As a prefix-sum difference, that
        # last third is 1 - 0.6666666666666666, which rounds above 1/3; as
        # gains both are equal, so x01 goes first.
        table = {"v": frozenset(["x01", "x03", "x05"]), "w": frozenset(["x00", "x03", "x04"])}
        spec = spec_of(table, 3)
        result = greedy_placement(spec, 5)
        assert result.chosen == ("x03", "x00", "x01", "x04", "x05")
        assert result == naive_greedy_placement(spec, 5)

    def test_zero_gain_fill_by_id_order(self):
        # One slot per row: the first pick saturates the universe, so the
        # other contents fill the remaining slots in id order.
        spec = spec_of({"v": frozenset("dbca")}, 1)
        result = greedy_placement(spec, 3)
        assert result.chosen == ("a", "b", "c")
        assert result.filled == 2
        assert result.gains == (1.0, 0.0, 0.0)
        assert result.objective_values == (1.0, 1.0, 1.0)

    def test_capacity_validation(self, rng):
        with pytest.raises(ParameterError):
            greedy_placement(random_spec(rng), 0)

    def test_beats_top_placement(self, rng):
        for _ in range(15):
            cat = random_catalog(rng, 15, 4)
            oracle = RelationOracle(cat)
            front = top_popular(cat, 6)
            dist = position_probs("uniform", n=3)
            spec = ObjectiveSpec.build(front.ids, 3, dist, BfsParams(2, 3), oracle)
            capacity = 4
            greedy = greedy_placement(spec, capacity)
            top = top_placement(cat, capacity, spec)
            assert objective(spec, greedy.chosen) >= objective(spec, top.chosen) - 1e-12


class TestExact:
    def test_hand_computed_optimum(self):
        # Enumerated by hand: with rows {a,b,c} and {c,d}, two slots and
        # p = (1/2, 1/2), the optima are {a,c}, {b,c}, {c,d} at 0.75; the
        # lexicographically smallest is {a, c}.
        spec = spec_of({"v1": frozenset("abc"), "v2": frozenset("cd")}, 2)
        result = exact_placement(spec, 2)
        assert result.chosen == ("a", "c")
        assert result.objective_values[-1] == pytest.approx(0.75)

    def test_greedy_matches_hand_fixture(self):
        # First pick is c (covers both rows), then the a/b/d tie resolves
        # to a; trajectory 0.5 -> 0.75.
        spec = spec_of({"v1": frozenset("abc"), "v2": frozenset("cd")}, 2)
        result = greedy_placement(spec, 2)
        assert result.chosen == ("c", "a")
        assert result.objective_values == pytest.approx((0.5, 0.75))

    def test_capacity_covers_everything(self, rng):
        spec = random_spec(rng, size=8)
        result = exact_placement(spec, len(spec.universe) + 5)
        assert result.chosen == spec.universe

    def test_never_below_greedy(self, rng):
        for _ in range(30):
            spec = random_spec(rng, size=int(rng.integers(6, 12)))
            capacity = int(rng.integers(1, 4))
            exact = exact_placement(spec, capacity)
            greedy = greedy_placement(spec, capacity)
            assert (
                objective(spec, exact.chosen)
                >= objective(spec, greedy.chosen) - 1e-12
            )

    def test_guard_rejects_large_instances(self):
        table = {"v": frozenset(f"x{i:02d}" for i in range(50))}
        spec = spec_of(table, 5)
        with pytest.raises(InstanceTooLargeError):
            exact_placement(spec, 10)
        assert math.comb(50, 10) > 10_000_000


class TestTopPlacement:
    def test_single_most_popular(self, rng):
        cat = random_catalog(rng, 10, 3)
        result = top_placement(cat, 1)
        assert result.chosen == top_popular(cat, 1).ids

    def test_subset_chain(self, rng):
        cat = random_catalog(rng, 12, 3)
        small = set(top_placement(cat, 3).chosen)
        large = set(top_placement(cat, 7).chosen)
        assert small <= large

    def test_full_front_page(self, rng):
        cat = random_catalog(rng, 60, 3)
        assert top_placement(cat, 50).chosen == top_popular(cat, 50).ids

    def test_trajectory_with_spec(self, rng):
        spec = random_spec(rng)
        cat = random_catalog(rng, 10, 3)
        result = top_placement(cat, 4, spec)
        assert len(result.objective_values) == 4
        values = result.objective_values
        assert all(values[i] <= values[i + 1] + 1e-15 for i in range(3))


class TestSubmodularity:
    def test_random_specs_clean(self, rng):
        for _ in range(5):
            spec = random_spec(rng, size=12, support_size=4)
            report = check_submodularity(spec, trials=2000, seed=int(rng.integers(1 << 30)))
            assert report.ok
            assert report.violations == 0

    @settings(max_examples=300, deadline=None)
    @given(saturating_specs() | signature_specs(), st.data())
    def test_adding_a_content_never_raises_a_gain(self, spec, data):
        # Bit for bit, after each content added in a drawn order: this lets
        # lazy greedy trust a stale gain as a bound.
        rows = [0] * len(spec.support)
        last = {c: spec.gain(c, rows) for c in spec.universe}
        for added in data.draw(st.permutations(spec.universe), label="order"):
            spec.add_to_counts(added, rows)
            for c, before in last.items():
                last[c] = spec.gain(c, rows)
                assert last[c] <= before

    def test_equal_sets_equal_gains(self, rng):
        spec = random_spec(rng)
        rows = spec.counts(["x"])  # arbitrary context
        for cid in spec.universe[:5]:
            assert spec.gain(cid, rows) == spec.gain(cid, list(rows))

    def test_modular_instance_context_free_gains(self):
        # Disjoint demand rows make the objective modular: a content's
        # gain never depends on what else is cached.
        spec = spec_of({"v1": frozenset("ab"), "v2": frozenset("cd")}, 2)
        for x in "abcd":
            empty = spec.gain(x, spec.counts([]))
            for context in (["a"], ["c"], ["a", "c"], ["b", "d"]):
                if x in context:
                    continue
                assert spec.gain(x, spec.counts(context)) == pytest.approx(
                    empty, abs=1e-15
                )

    def test_report_fields(self, rng):
        spec = random_spec(rng)
        report = check_submodularity(spec, trials=100, seed=3)
        assert report.trials == 100
        assert report.tolerance == 1e-12
        assert report.max_violation <= report.tolerance


class TestSpecValidation:
    def test_empty_support_rejected(self):
        with pytest.raises(ParameterError):
            ObjectiveSpec((), (), 2, position_probs("uniform", n=2), {})

    def test_misaligned_weights_rejected(self):
        with pytest.raises(ParameterError):
            ObjectiveSpec(
                ("v",), (1.0, 2.0), 2, position_probs("uniform", n=2), {"v": frozenset("a")}
            )

    @pytest.mark.parametrize("weights, bad", [
        ((math.nan, 1.0), "v"), ((1.0, math.inf), "w"), ((-1.0, 2.0), "v"),
        ((-math.inf, 1.0), "v"),
    ])
    def test_weights_that_are_no_demand_share_are_rejected(self, weights, bad):
        table = {"v": frozenset("ab"), "w": frozenset("bc")}
        with pytest.raises(ParameterError, match=f"'{bad}'"):
            ObjectiveSpec(("v", "w"), weights, 2, position_probs("uniform", n=2), table)

    def test_weights_whose_total_overflows_are_rejected(self):
        table = {"v": frozenset("ab"), "w": frozenset("bc")}
        with pytest.raises(ParameterError, match="finite positive total"):
            ObjectiveSpec(("v", "w"), (1e308, 1e308), 2, position_probs("uniform", n=2), table)

    def test_zero_weights_keep_their_rows(self):
        spec = spec_of({"v": frozenset("ab"), "w": frozenset("cd")}, 2, weights=[0.0, 1.0])
        assert objective(spec, "ab") == 0.0
        assert objective(spec, "cd") == 1.0

    @pytest.mark.parametrize("list_size", [0, -1])
    def test_empty_lists_are_rejected(self, list_size):
        # Lists of no entries would price every cache at zero.
        with pytest.raises(ParameterError, match="list_size"):
            ObjectiveSpec(
                ("v",), (1.0,), list_size, position_probs("uniform", n=1), {"v": frozenset("a")}
            )

    @pytest.mark.parametrize("n", [2, 4])
    def test_a_law_of_another_width_is_rejected(self, n):
        # As TransitionTable does: the law's n is the lists' length.
        table = {"v": frozenset("abcd")}
        with pytest.raises(ParameterError, match=f"n={n}"):
            ObjectiveSpec(("v",), (1.0,), 3, position_probs("uniform", n=n), table)
        spec = spec_of(table, 3)
        with pytest.raises(ParameterError, match=f"n={n}"):
            spec.under(position_probs("uniform", n=n))

    def test_a_rising_law_is_rejected(self):
        # A non-increasing law is what makes the objective submodular and
        # a stale gain an upper bound.
        rising = PositionDistribution("zipf", 0.0, 3, (0.2, 0.3, 0.5))
        table = {"v": frozenset("abcd")}
        with pytest.raises(ParameterError, match="non-increasing"):
            ObjectiveSpec(("v",), (1.0,), 3, rising, table)
        with pytest.raises(ParameterError, match="non-increasing"):
            spec_of(table, 3).under(rising)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["uniform", "zipf"]), st.floats(0.0, 400.0), st.integers(1, 500),
    )
    def test_every_built_law_is_accepted_at_every_truncation(self, kind, alpha, n):
        law = position_probs(kind, alpha, n)
        for length in range(1, n + 1):
            truncated = PositionDistribution(kind, law.alpha, length, law.truncated(length))
            ObjectiveSpec(("v",), (1.0,), length, truncated, {"v": frozenset(range(length))})


class TestRepricing:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.frozensets(st.sampled_from("abcdefgh")), min_size=1, max_size=5),
        st.integers(1, 6), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
    )
    def test_a_repriced_spec_equals_one_built_under_its_law(self, rows, n, alpha, beta):
        table = {f"v{i}": row for i, row in enumerate(rows)}
        weights = [1.0 + i / 3 for i in range(len(rows))]
        laws = [position_probs("zipf", a, n) for a in (alpha, beta)]
        spec, built = (ObjectiveSpec(tuple(table), weights, n, law, table) for law in laws)
        priced = spec.under(laws[1])
        assert priced.masses == built.masses
        assert (priced.weights, priced.inverted, priced.universe) == (
            built.weights, built.inverted, built.universe
        )
        capacity = len(spec.universe) + 1
        assert greedy_placement(priced, capacity) == greedy_placement(built, capacity)

    def test_repricing_keeps_the_type_and_leaves_the_spec(self):
        class Sub(ObjectiveSpec):
            __slots__ = ()

        table = {"v": frozenset("abc")}
        spec = Sub(("v",), (1.0,), 3, position_probs("uniform", n=3), table)
        priced = spec.under(position_probs("zipf", 1.0, 3))
        assert type(priced) is Sub
        assert spec.masses[0] == (0.0, *accumulate((1 / 3,) * 3))
        assert priced.masses != spec.masses
