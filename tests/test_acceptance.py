"""Acceptance suite.

Each test exercises one release criterion end to end and prints a
``criterion N PASS/FAIL`` line (run pytest with ``-s`` or ``-rP`` to see
them).  The expensive shared artifacts (the calibrated 10k-content
catalog and the standard scenario matrix) are built once per session.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from cabaret_sim.catalog import Catalog, PopularityRegion, RelationOracle, top_popular
from cabaret_sim.demand import TransitionTable, exact_hit_rates, position_probs
from cabaret_sim.experiment import config_from_mapping, iter_cells, run_experiment
from cabaret_sim.explore import BfsParams, bfs
from cabaret_sim.metrics import ChrReport, eval_iv
from cabaret_sim.placement import (
    ObjectiveSpec,
    exact_placement,
    greedy_placement,
    objective,
    top_placement,
)
from cabaret_sim.recommend import CacheManifest, select_from_exploration
from cabaret_sim.synthetic import generate_synthetic

from conftest import check_submodularity, random_catalog, reference_recommend, weighted_spec

GREEDY_BOUND = 1.0 - 1.0 / math.e

# Calibrated catalog: overlap target at the level where the depth-2
# exploration re-finds nearly every direct neighbor of a popular seed.
CATALOG_SIZE = 10_000
CATALOG_DEGREE = 50
CATALOG_OVERLAP = 0.92
CATALOG_SEED = 2024

STANDARD_CONFIG = {
    "seed": 20240509,
    "catalog_kind": "synthetic",
    "catalog_size": CATALOG_SIZE,
    "catalog_out_degree": CATALOG_DEGREE,
    "catalog_overlap": CATALOG_OVERLAP,
    "catalog_seed": CATALOG_SEED,
    "front_page_size": 50,
    "recommender": ["baseline", "reordered", "cabaret"],
    "bfs_depth": 2,
    "bfs_width": 50,
    "list_size": 20,
    "cache_policy": "top",
    "cache_capacity": [1, 5, 10, 20, 50],
    "demand": ["uniform", "zipf:0.5", "zipf:1"],
    "session_length": [2, 5],
    "sessions": 1000,
    "evaluator": "exact",
}


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def calibrated():
    catalog = generate_synthetic(
        CATALOG_SIZE, CATALOG_DEGREE, CATALOG_OVERLAP, CATALOG_SEED
    )
    return catalog, RelationOracle(catalog)


@pytest.fixture(scope="session")
def standard_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("standard")
    config = config_from_mapping(STANDARD_CONFIG)
    result = run_experiment(config, out_dir=out)
    return config, result, out


# --------------------------------------------------------------------------
# 1. Algorithm fidelity: hand-executed recommendation traces.
# --------------------------------------------------------------------------

FANOUT = Catalog(
    {"s": ["a", "b", "c"], "a": ["d", "e", "f"], "b": ["g", "h", "i"], "c": ["j", "k", "l"]}
)
DIAMOND = Catalog({"s": ["a", "b"], "a": ["b", "c"], "b": ["a", "c"], "c": ["s", "a"]})
CYCLE = Catalog({"a": ["b"], "b": ["c"], "c": ["a"]})
DEAD_END = Catalog({"s": []})

# (catalog, seed, depth, width, n, cache, expected entries, expected flags)
ALGORITHM_TRACES = [
    # Fan-out shape, depth 2 width 3: exploration is a..l in order.
    (FANOUT, "s", 2, 3, 6, {"d", "f", "k"},
     ("d", "f", "k", "a", "b", "c"), (True, True, True, False, False, False)),
    (FANOUT, "s", 2, 3, 6, set(),
     ("a", "b", "c", "d", "e", "f"), (False,) * 6),
    (FANOUT, "s", 2, 3, 6, set("abcdefghijkl"),
     ("a", "b", "c", "d", "e", "f"), (True,) * 6),
    (FANOUT, "s", 2, 3, 6, {"b"},
     ("b", "a", "c", "d", "e", "f"), (True, False, False, False, False, False)),
    (FANOUT, "s", 2, 3, 6, {"l"},
     ("l", "a", "b", "c", "d", "e"), (True, False, False, False, False, False)),
    (FANOUT, "s", 2, 3, 12, {"d", "f"},
     ("d", "f", "a", "b", "c", "e", "g", "h", "i", "j", "k", "l"),
     (True, True) + (False,) * 10),
    (FANOUT, "s", 2, 3, 20, {"g"},
     ("g", "a", "b", "c", "d", "e", "f", "h", "i", "j", "k", "l"),
     (True,) + (False,) * 11),
    (FANOUT, "s", 2, 3, 6, {"d", "f", "x"},
     ("d", "f", "a", "b", "c", "e"), (True, True, False, False, False, False)),
    # Shared neighbors: duplicates vanish at first discovery.
    (DIAMOND, "s", 2, 2, 2, {"c"}, ("c", "a"), (True, False)),
    (DIAMOND, "s", 3, 2, 3, set(), ("a", "b", "c"), (False, False, False)),
    # Cycle: the seed is skipped on rediscovery.
    (CYCLE, "a", 3, 1, 5, {"c"}, ("c", "b"), (True, False)),
    (DEAD_END, "s", 2, 3, 5, {"a"}, (), ()),
]


def test_criterion_1_algorithm_fidelity():
    started = time.perf_counter()
    for catalog, seed, depth, width, n, cache, entries, flags in ALGORITHM_TRACES:
        oracle = RelationOracle(catalog)
        manifest = CacheManifest.from_ids(cache) if cache else CacheManifest(
            frozenset(), 1
        )
        shown = reference_recommend(seed, n, manifest, BfsParams(depth, width), oracle)
        assert shown.entries == entries, (seed, n, cache, shown.entries)
        assert shown.cached == flags
    elapsed = time.perf_counter() - started
    report(
        1,
        elapsed < 1.0,
        f"{len(ALGORITHM_TRACES)} hand-executed traces matched exactly in {elapsed:.3f}s",
    )


# --------------------------------------------------------------------------
# 2. Greedy approximation bound on brute-forceable instances.
# --------------------------------------------------------------------------


def small_random_spec(rng):
    size = int(rng.integers(5, 13))
    cat = random_catalog(rng, size, int(rng.integers(2, 5)))
    oracle = RelationOracle(cat)
    ids = cat.ids()
    support_size = int(rng.integers(2, min(6, size)))
    support = [ids[i] for i in rng.choice(size, size=support_size, replace=False)]
    weights = {v: float(rng.random()) + 0.05 for v in support}
    list_size = int(rng.integers(1, 5))
    dist = position_probs("zipf", float(rng.random() * 1.5), list_size)
    return weighted_spec(support, weights, list_size, dist, BfsParams(2, 3), oracle)


def test_criterion_2_greedy_bound():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(424242))
    instances = 0
    worst = math.inf
    while instances < 200:
        spec = small_random_spec(rng)
        capacity = int(rng.integers(1, 5))
        best = exact_placement(spec, capacity)
        greedy = greedy_placement(spec, capacity)
        value_best = objective(spec, best.chosen)
        value_greedy = objective(spec, greedy.chosen)
        assert value_greedy >= GREEDY_BOUND * value_best - 1e-12
        if value_best > 0:
            worst = min(worst, value_greedy / value_best)
        instances += 1
    elapsed = time.perf_counter() - started
    report(
        2,
        elapsed < 60.0,
        f"greedy/optimal >= {worst:.4f} (bound {GREEDY_BOUND:.4f}) "
        f"on {instances} instances in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 3. Submodularity and monotonicity of the objective.
# --------------------------------------------------------------------------


def test_criterion_3_submodularity():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(3131))
    total_violations = 0
    for i in range(20):
        size = int(rng.integers(8, 16))
        cat = random_catalog(rng, size, int(rng.integers(2, 6)))
        oracle = RelationOracle(cat)
        ids = cat.ids()
        support = [ids[j] for j in rng.choice(size, size=5, replace=False)]
        weights = {v: float(rng.random()) + 0.05 for v in support}
        list_size = int(rng.integers(1, 6))
        dist = position_probs("zipf", float(rng.random() * 2), list_size)
        spec = weighted_spec(support, weights, list_size, dist, BfsParams(2, 4), oracle)
        outcome = check_submodularity(spec, trials=10_000, seed=1000 + i)
        total_violations += outcome.violations
    elapsed = time.perf_counter() - started
    report(
        3,
        total_violations == 0 and elapsed < 60.0,
        f"20 specs x 10^4 sampled triples, {total_violations} violations "
        f"at 1e-12 in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 4. Dominance ordering across the standard scenario matrix.
# --------------------------------------------------------------------------


def test_criterion_4_dominance_ordering(standard_run):
    config, result, _ = standard_run
    assert not result.failures
    assert len(result.rows) == len(iter_cells(config)) == 90
    rows = {
        (r["recommender"], r["cache_capacity"], r["demand"], r["k"]): r["chr"]
        for r in result.rows
    }
    order_violations = 0
    equality_violations = 0
    for capacity in config.capacities:
        for demand in config.demands:
            for k in config.session_lengths:
                base = rows[("baseline", capacity, demand, k)]
                reord = rows[("reordered", capacity, demand, k)]
                cab = rows[("cabaret", capacity, demand, k)]
                if not (base <= reord <= cab):
                    order_violations += 1
                if demand == "uniform" and base != reord:
                    equality_violations += 1
    ok = (
        order_violations == 0
        and equality_violations == 0
        and result.wall_clock < 600.0
    )
    report(
        4,
        ok,
        f"baseline <= reordered <= cabaret on all 30 cell groups, uniform "
        f"equality exact, matrix in {result.wall_clock:.1f}s",
    )


# --------------------------------------------------------------------------
# 5. Relative gain of cache-aware recommendations on the calibrated catalog.
# --------------------------------------------------------------------------


def test_criterion_5_relative_gain(calibrated, standard_run):
    catalog, oracle = calibrated
    overlap = eval_iv(top_popular(catalog, 50), 50, oracle).median
    assert overlap >= 0.9
    _, result, _ = standard_run
    rows = {
        (r["recommender"], r["demand"]): r["chr"]
        for r in result.rows
        if r["cache_capacity"] == 50 and r["k"] == 2
    }
    ratios = {}
    for demand in ("uniform", "zipf:1"):
        base = rows[("baseline", demand)]
        cab = rows[("cabaret", demand)]
        assert base > 0
        ratios[demand] = cab / base
    ok = all(ratio >= 3.0 for ratio in ratios.values())
    report(
        5,
        ok,
        "cache-aware/baseline hit-ratio gain at C=50: "
        + ", ".join(f"{d}={r:.1f}x" for d, r in ratios.items())
        + f" (floor 3x, median overlap {overlap:.2f})",
    )


# --------------------------------------------------------------------------
# 6. Greedy placement beats top-popularity placement.
# --------------------------------------------------------------------------


def test_criterion_6_greedy_vs_top(calibrated):
    catalog, oracle = calibrated
    front = top_popular(catalog, 50)
    params = BfsParams(2, 50)
    dist = position_probs("uniform", n=20)
    spec = ObjectiveSpec.build(front.ids, 20, dist, params, oracle)
    explore = lru_cache(maxsize=None)(lambda v: bfs(v, params, oracle).entries)

    details = []
    ok = True
    for capacity in (10, 20):
        greedy = greedy_placement(spec, capacity)
        top = top_placement(catalog, capacity, spec)
        obj_ratio = greedy.objective_values[-1] / top.objective_values[-1]

        def chr_with(chosen, cap=capacity):
            cache = CacheManifest.from_ids(chosen, cap)
            rec = lru_cache(maxsize=None)(
                lambda v: select_from_exploration(explore(v), 20, cache)
            )
            return exact_hit_rates(front, rec, dist, 2)[0]

        chr_ratio = chr_with(greedy.chosen) / chr_with(top.chosen)
        details.append(f"C={capacity}: objective {obj_ratio:.2f}x, chr {chr_ratio:.2f}x")
        ok = ok and obj_ratio >= 1.3 and chr_ratio >= 1.3
    report(6, ok, "greedy/top gains " + "; ".join(details) + " (floor 1.3x)")


# --------------------------------------------------------------------------
# 7. Monte-Carlo sampling agrees with exact enumeration.
# --------------------------------------------------------------------------


def test_criterion_7_sampling_agreement():
    rng = np.random.Generator(np.random.PCG64(777))
    draws = 100_000
    checked = 0
    details = []
    while checked < 10:
        cat = random_catalog(rng, 25, 6)
        oracle = RelationOracle(cat)
        ids = cat.ids()
        cache = CacheManifest.from_ids(
            ids[i] for i in rng.choice(25, size=7, replace=False)
        )
        front = PopularityRegion(tuple(ids[i] for i in rng.choice(25, size=8, replace=False)))
        n = 5
        params = BfsParams(2, n)
        dist = position_probs("zipf", float(rng.random() * 1.2), n)
        rec = lru_cache(maxsize=None)(
            lambda v, c=cache, p=params, o=oracle: reference_recommend(v, n, c, p, o)
        )
        (expected,) = exact_hit_rates(front, rec, dist, 2)
        if not 0.02 < expected < 0.98:
            continue
        gen = np.random.Generator(np.random.PCG64(int(rng.integers(1 << 62))))
        hits = TransitionTable.from_recommender(front, rec, dist.n).sample(dist, 2, draws, gen)
        estimate = ChrReport.from_hits(hits).chr
        stderr = math.sqrt(expected * (1 - expected) / draws)
        deviation = abs(estimate - expected) / stderr
        assert deviation <= 3.0, (expected, estimate, deviation)
        details.append(f"{deviation:.2f}")
        checked += 1
    report(
        7,
        True,
        f"10 scenarios, |sampled-exact| in standard errors: {', '.join(details)}",
    )


# --------------------------------------------------------------------------
# 8. Byte-identical reruns of the standard configuration.
# --------------------------------------------------------------------------


def test_criterion_8_determinism(standard_run, tmp_path):
    config, _, first_dir = standard_run
    run_experiment(config, out_dir=tmp_path)
    same = all(
        (first_dir / name).read_bytes() == (tmp_path / name).read_bytes()
        for name in ("results.csv", "failures.csv", "config.json")
    )
    report(8, same, "two runs of the standard config are byte-identical")


def test_criterion_8_determinism_sampled(tmp_path):
    config = config_from_mapping({**STANDARD_CONFIG, "evaluator": "sampled"})
    run_experiment(config, out_dir=tmp_path / "first")
    run_experiment(config, out_dir=tmp_path / "second")
    same = all(
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in ("results.csv", "failures.csv", "config.json")
    )
    report(8, same, "two runs of the standard config, sampled, are byte-identical")


# --------------------------------------------------------------------------
# 9. Depth-overlap metric on hand-computed fixtures.
# --------------------------------------------------------------------------

OVERLAP_FIXTURES = [
    ({"v": ["a", "b"], "a": ["b", "x"], "b": ["a", "y"]}, 2, 1.0),
    ({"v": ["a", "b"], "a": ["x", "y"], "b": ["y", "z"]}, 2, 0.0),
    ({"v": ["a", "b"], "a": ["b", "x"], "b": ["x", "y"]}, 2, 0.5),
    ({"v": ["a", "b", "c"], "a": ["b", "c"], "b": [], "c": []}, 3, 2 / 3),
    (
        {"v": ["a", "b", "c", "d", "e"], "a": ["b"], "b": ["c"], "c": ["d"], "d": ["b"], "e": []},
        5,
        3 / 5,
    ),
]


def test_criterion_9_overlap_fixtures():
    for related, width, expected in OVERLAP_FIXTURES:
        oracle = RelationOracle(Catalog(related))
        got = eval_iv(PopularityRegion(("v",)), width, oracle).per_seed[0][1]
        assert got == expected, (related, got, expected)
    # Degenerate conventions: no direct neighbors means zero.
    empty = eval_iv(
        PopularityRegion(("v",)), 3, RelationOracle(Catalog({"v": [], "w": ["v"]}))
    )
    assert empty.per_seed[0][1] == 0.0
    report(9, True, f"{len(OVERLAP_FIXTURES)} hand-computed overlaps exact, empty-seed convention holds")


# --------------------------------------------------------------------------
# 10. Hit-rate decay over long sessions stays bounded.
# --------------------------------------------------------------------------


def test_criterion_10_sequential_decay(calibrated):
    catalog, oracle = calibrated
    front = top_popular(catalog, 50)
    params = BfsParams(2, 20)
    cache = CacheManifest.from_ids(top_popular(catalog, 20).ids, 20)
    explore = lru_cache(maxsize=None)(lambda v: bfs(v, params, oracle).entries)
    rec = lru_cache(maxsize=None)(
        lambda v: select_from_exploration(explore(v), 20, cache)
    )
    details = []
    ok = True
    for label, dist in (
        ("uniform", position_probs("uniform", n=20)),
        ("zipf:1", position_probs("zipf", 1.0, 20)),
    ):
        rates = exact_hit_rates(front, rec, dist, 10)
        assert all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in rates)
        long_chr = sum(rates) / len(rates)
        short_chr = rates[0]
        ratio = long_chr / short_chr
        details.append(f"{label}: K=10/K=2 = {ratio:.2f}")
        ok = ok and ratio >= 0.5
    report(10, ok, "; ".join(details) + " (floor 0.5)")
