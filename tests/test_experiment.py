from __future__ import annotations

import csv
import dataclasses
import functools
import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import types
import weakref
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cabaret_sim.demand as demand_module
import cabaret_sim.recommend as recommend_module
from cabaret_sim import experiment
from cabaret_sim.catalog import Catalog, RelationOracle, save_dataset
from cabaret_sim.demand import position_probs
from cabaret_sim.errors import ConfigError
from cabaret_sim.experiment import (
    REQUIRED,
    SCHEMA,
    CellSpec,
    ExperimentConfig,
    config_from_mapping,
    derive_catalog_seed,
    derive_cell_seed,
    iter_cells,
    load_config,
    parse_demand,
    read_results_csv,
    run_experiment,
)
from cabaret_sim.explore import bfs
from cabaret_sim.metrics import chr_sequential
from cabaret_sim.placement import ObjectiveSpec, exact_placement, greedy_placement
from cabaret_sim.recommend import (
    CacheIndex,
    baseline_recommender,
    reordered_recommender,
    select_from_exploration,
)

from conftest import (
    naive_greedy_placement, reference_greedy_placement, reference_recommend, reference_walk,
)


def tiny_mapping(**over):
    base = {
        "seed": 42,
        "catalog_kind": "synthetic",
        "catalog_size": 300,
        "catalog_out_degree": 10,
        "catalog_overlap": 0.8,
        "front_page_size": 10,
        "recommender": ["baseline", "reordered", "cabaret"],
        "bfs_depth": 2,
        "bfs_width": 8,
        "list_size": 5,
        "cache_policy": "top",
        "cache_capacity": [2, 5],
        "demand": ["uniform", "zipf:1"],
        "session_length": [2, 3],
        "sessions": 50,
        "evaluator": "auto",
    }
    base.update(over)
    return base


def bench_workloads() -> types.ModuleType:
    """``bench/workloads.py``, which holds the benchmark's configs."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@functools.lru_cache(maxsize=None)
def bench_run() -> types.ModuleType:
    """``bench/run.py``: its ``build_reference`` and the independent ``reference`` it imports."""
    path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    run = importlib.util.module_from_spec(spec)
    # run.py puts bench/ on sys.path to import its siblings; keep that local.
    with patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(run)
    return run


@functools.lru_cache(maxsize=None)
def readme_greedy_specs(seed: int) -> tuple[ObjectiveSpec, ...]:
    """The README greedy sweep's spec at ``seed``, priced under each demand."""
    config = config_from_mapping(bench_workloads().config_for("readme-exact-greedy", seed, None))
    runner = experiment._Runner(config)
    spec = ObjectiveSpec.build(
        runner.front_page.ids, config.list_size, runner.dists["uniform"],
        runner.params, runner.oracle,
    )
    assert len(config.demands) == 3
    return tuple(spec.under(runner.dists[demand]) for demand in config.demands)


@pytest.fixture
def tiny_config():
    return config_from_mapping(tiny_mapping())


def oracle_recommender(runner, kind, capacity, demand):
    """The lists a cell's table must hold, built one at a time for its cache."""
    cache, n = runner.placement(capacity, demand), runner.config.list_size
    if kind == "cabaret":
        return lambda v: reference_recommend(v, n, cache, runner.params, runner.oracle)
    if kind == "baseline":
        return lambda v: baseline_recommender(v, n, runner.oracle, cache)
    return lambda v: reordered_recommender(v, n, cache, runner.oracle)


_JUNK = st.booleans() | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)


def malformed(key):
    """Values that the schema row ``key`` must reject."""
    if key.kind is str:
        bad = st.one_of(_JUNK, st.integers(), st.floats())
        if key.choices:
            bad |= st.text(max_size=8).filter(lambda s: s not in key.choices)
        if key.name == "demand":
            bad |= st.text(max_size=8).filter(
                lambda s: s != "uniform" and not s.startswith("zipf:")
            )
            bad |= st.floats().filter(lambda a: not a >= 0 or math.isinf(a)).map(
                lambda a: f"zipf:{a}"
            )
    else:
        bad = st.one_of(_JUNK, st.text(max_size=4))
        if key.kind is int:
            bad |= st.floats()
        else:
            bad |= st.floats().filter(lambda x: not key.low <= x <= key.high)
            bad |= st.integers().filter(lambda x: not key.low <= x <= key.high)
        if key.low is not None:
            bad |= st.integers(max_value=int(key.low) - 1)
    if key.sweep:
        bad |= st.just([]) | st.lists(bad, min_size=1, max_size=3)
    else:
        bad |= st.lists(st.integers(), max_size=2)
    if key.default is not None:
        bad |= st.none()
    return bad


#: The catalog kinds; each catalog key's row names the one that reads it.
CATALOG_KINDS = next(key for key in SCHEMA if key.name == "catalog_kind").choices


def kind_mapping(kind, related):
    """tiny_mapping() as a config of catalog ``kind``, reading ``related`` if it is files."""
    unset = {key.name: None for key in SCHEMA if key.catalog not in (None, kind)}
    if kind == "synthetic":
        return {**tiny_mapping(), **unset}
    return {**tiny_mapping(catalog_kind=kind, catalog_related_file=str(related)), **unset}


def valid(key):
    """Values that the schema row ``key`` accepts."""
    if key.choices:
        one = st.sampled_from(key.choices)
    elif key.name == "demand":
        one = st.just("uniform") | st.floats(0, 1e3).map(lambda a: f"zipf:{a}")
    elif key.kind is int:
        one = st.integers(key.low, key.high)
    elif key.kind is float:
        one = st.integers(key.low, key.high) | st.floats(key.low, key.high)
    else:
        # The free-form strings are paths, which must name a file.
        one = st.just(__file__)
    return (one | st.lists(one, min_size=1, max_size=3)) if key.sweep else one


@st.composite
def valid_mappings(draw):
    """A valid flat config: any subset of optional keys, one catalog kind."""
    kind = draw(st.sampled_from(CATALOG_KINDS))
    mapping = {}
    for key in SCHEMA:
        if key.catalog not in (None, kind):
            continue
        required = key.default is REQUIRED or key.needed
        if required or draw(st.booleans()):
            mapping[key.name] = draw(valid(key))
    mapping["catalog_kind"] = kind
    if kind == "synthetic":
        mapping["catalog_size"] = mapping["catalog_out_degree"] + draw(st.integers(1, 10**6))
    return mapping


class TestConfigValidation:
    def test_round_trips_through_mapping(self, tiny_config):
        assert config_from_mapping(tiny_config.to_mapping()) == tiny_config

    @settings(max_examples=300, deadline=None)
    @given(valid_mappings())
    def test_every_valid_config_round_trips(self, mapping):
        config = config_from_mapping(mapping)
        echo = config.to_mapping()
        assert config_from_mapping(echo) == config
        assert config_from_mapping(json.loads(json.dumps(echo))) == config
        # Unset optional keys stay out of the echo; every other key is in it.
        assert set(echo) == {k.name for k in SCHEMA if getattr(config, k.field) is not None}
        assert set(mapping) <= set(echo)

    def test_readme_configs_parse(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        assert blocks
        for block in blocks:
            config_from_mapping(json.loads(block))

    def test_schema_lists_every_field_once(self):
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(fields) == sorted(key.field for key in SCHEMA)
        assert all(key.doc for key in SCHEMA)

    def test_defaults_fill_unset_keys(self):
        mapping = tiny_mapping()
        for name in ("w_max", "bfs_depth", "list_size", "sessions", "evaluator"):
            mapping.pop(name, None)
        config = config_from_mapping(mapping)
        assert (config.w_max, config.bfs_depth, config.list_size) == (50, 2, 20)
        assert (config.sessions, config.evaluator) == (1000, "auto")
        assert "catalog_seed" not in config.to_mapping()

    def test_numbers_accept_int_or_float(self):
        assert config_from_mapping(tiny_mapping(catalog_overlap=1)).catalog_overlap == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("list_size", 2.5),
            ("catalog_overlap", "0.5"),
            ("front_page_size", "a"),
            ("catalog_seed", "x"),
            ("list_size", 0),
            ("bfs_depth", 0),
            ("bfs_width", -1),
            ("w_max", 0),
            ("seed", True),
            ("cache_capacity", [True]),
            ("sessions", True),
            ("catalog_overlap", math.nan),
            ("catalog_seed", -1),
        ],
    )
    def test_malformed_value_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping(tiny_mapping(**{key: value}))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_malformed_config_raises_config_error(self, data):
        key = data.draw(st.sampled_from(SCHEMA))
        mapping = tiny_mapping()
        mapping[key.name] = data.draw(malformed(key))
        with pytest.raises(ConfigError, match=key.name):
            config_from_mapping(mapping)

    def test_scalar_sweeps_normalize_to_singletons(self):
        config = config_from_mapping(
            tiny_mapping(recommender="cabaret", cache_capacity=3, demand="uniform", session_length=2)
        )
        assert config.recommenders == ("cabaret",)
        assert config.capacities == (3,)
        assert len(iter_cells(config)) == 1

    def test_missing_seed(self):
        mapping = tiny_mapping()
        del mapping["seed"]
        with pytest.raises(ConfigError):
            config_from_mapping(mapping)

    def test_unknown_key(self):
        # ``workers`` went with the removed thread pool.
        for key in ("bogus", "workers"):
            with pytest.raises(ConfigError, match=key):
                config_from_mapping(tiny_mapping(**{key: 1}))

    def test_empty_sweep(self):
        with pytest.raises(ConfigError):
            config_from_mapping(tiny_mapping(cache_capacity=[]))

    def test_bad_recommender(self):
        with pytest.raises(ConfigError):
            config_from_mapping(tiny_mapping(recommender=["netflix"]))

    def test_bad_demand(self):
        for label in ("zipf", "zipf:-1", "zipf:nan", "zipf:inf", 1):
            with pytest.raises(ConfigError, match="demand"):
                config_from_mapping(tiny_mapping(demand=["uniform", label]))

    def test_session_length_below_two(self):
        with pytest.raises(ConfigError):
            config_from_mapping(tiny_mapping(session_length=[1]))

    def test_files_kind_requires_existing_files(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        match = re.escape(f"catalog_related_file does not exist: {missing}")
        with pytest.raises(ConfigError, match=match):
            config_from_mapping(
                tiny_mapping(
                    catalog_kind="files",
                    catalog_related_file=str(missing),
                    catalog_size=None,
                    catalog_out_degree=None,
                    catalog_overlap=None,
                )
            )

    def test_catalog_rows_name_a_kind(self):
        assert CATALOG_KINDS == ("synthetic", "files")
        assert {key.catalog for key in SCHEMA} == {None, *CATALOG_KINDS}
        assert {key.catalog for key in SCHEMA if key.needed} == set(CATALOG_KINDS)

    @pytest.mark.parametrize(
        "key", [key for key in SCHEMA if key.catalog], ids=lambda key: key.name
    )
    def test_key_of_the_other_catalog_kind_is_rejected(self, tmp_path, key):
        # Each kind reads only its own keys: one set for the other kind would
        # be echoed in config.json as if it had been used.  The value is one
        # the key's own kind accepts.
        related = tmp_path / "rel.jsonl"
        related.touch()
        own = kind_mapping(key.catalog, related)
        if own.get(key.name) is None:
            own[key.name] = str(related) if key.kind is str else key.low
        config_from_mapping(own)
        other = next(kind for kind in CATALOG_KINDS if kind != key.catalog)
        with pytest.raises(ConfigError, match=f"^{key.name} is a {key.catalog} catalog key"):
            config_from_mapping({**kind_mapping(other, related), key.name: own[key.name]})

    @pytest.mark.parametrize(
        "key", [key for key in SCHEMA if key.needed], ids=lambda key: key.name
    )
    def test_unset_required_catalog_key_names_its_kind(self, tmp_path, key):
        related = tmp_path / "rel.jsonl"
        related.touch()
        mapping = kind_mapping(key.catalog, related)
        match = f"^{key.catalog} catalog requires '{key.name}'$"
        with pytest.raises(ConfigError, match=match):
            config_from_mapping({**mapping, key.name: None})
        del mapping[key.name]
        with pytest.raises(ConfigError, match=match):
            config_from_mapping(mapping)

    def test_synthetic_requires_generator_params(self):
        mapping = tiny_mapping()
        del mapping["catalog_size"]
        with pytest.raises(ConfigError):
            config_from_mapping(mapping)

    def test_synthetic_size_must_exceed_out_degree(self):
        for size, degree in ((5, 50), (10, 10)):
            with pytest.raises(ConfigError, match="catalog_size.*catalog_out_degree"):
                config_from_mapping(
                    tiny_mapping(catalog_size=size, catalog_out_degree=degree)
                )
        config = config_from_mapping(tiny_mapping(catalog_size=11, catalog_out_degree=10))
        assert config.catalog_size == 11

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path))

    # json keeps the last of a repeated key, so the run would take seed 2
    # without a word.
    def test_load_config_rejects_a_repeated_key(self, tmp_path):
        path = tmp_path / "c.json"
        rest = {key: value for key, value in tiny_mapping().items() if key != "seed"}
        path.write_text('{"seed": 1, "seed": 2, ' + json.dumps(rest)[1:], encoding="utf-8")
        with pytest.raises(ConfigError, match="^config repeats key 'seed'$"):
            load_config(str(path))


class TestSeedDerivation:
    def test_frozen_values(self):
        # Frozen outputs of the documented sha256 derivation.
        assert derive_cell_seed(42, CellSpec("cabaret", 5, "uniform", 2)) == 5327933511532671952
        assert derive_cell_seed(42, CellSpec("cabaret", 5, "uniform", 3)) == 12948512514588175764
        assert derive_catalog_seed(42) == 13845561439467503850

    def test_cells_do_not_collide(self, tiny_config):
        cells = iter_cells(tiny_config)
        seeds = {derive_cell_seed(tiny_config.seed, cell) for cell in cells}
        assert len(seeds) == len(cells)


class TestRunExperiment:
    def test_row_count_is_sweep_product(self, tiny_config):
        result = run_experiment(tiny_config)
        assert len(result.rows) == 3 * 2 * 2 * 2
        assert not result.failures

    def test_rows_in_canonical_order(self, tiny_config):
        result = run_experiment(tiny_config)
        coords = [
            (r["recommender"], r["cache_capacity"], r["demand"], r["k"])
            for r in result.rows
        ]
        expected = [
            (c.recommender, c.capacity, c.demand, c.session_length)
            for c in iter_cells(tiny_config)
        ]
        assert coords == expected

    def test_auto_evaluator_modes(self, tiny_config):
        result = run_experiment(tiny_config)
        for row in result.rows:
            if row["k"] == 2:
                assert row["evaluator"] == "exact"
                assert row["sessions"] is None
            else:
                assert row["evaluator"] == "sampled"
                assert row["sessions"] == 50
                assert row["chr_se"] >= 0.0

    def test_per_step_columns(self, tiny_config):
        result = run_experiment(tiny_config)
        for row in result.rows:
            assert "hit_rate_k2" in row
            if row["k"] == 3:
                assert "hit_rate_k3" in row
            else:
                assert "hit_rate_k3" not in row

    def test_byte_identical_rerun(self, tiny_config, tmp_path):
        run_experiment(tiny_config, out_dir=tmp_path / "one")
        run_experiment(tiny_config, out_dir=tmp_path / "two")
        for name in ("results.csv", "failures.csv", "config.json"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_full_cache_exact_rates_stay_at_most_one(self):
        # Summation error used to report chr = 1.0000000000000007 here.
        config = config_from_mapping(
            tiny_mapping(cache_capacity=[300], list_size=10, evaluator="exact")
        )
        for row in run_experiment(config).rows:
            rates = [v for k, v in row.items() if k == "chr" or k.startswith("hit_rate_k")]
            assert all(1.0 - 1e-12 <= rate <= 1.0 for rate in rates)

    def test_single_session_leaves_standard_error_blank(self, tmp_path):
        config = config_from_mapping(tiny_mapping(sessions=1, evaluator="sampled"))
        result = run_experiment(config, out_dir=tmp_path)
        assert all(row["chr_se"] is None for row in result.rows)
        assert all("chr_se" not in row for row in read_results_csv(tmp_path / "results.csv"))

    def test_sampled_cell_equals_chr_sequential_over_rebuilt_sessions(self):
        config = config_from_mapping(tiny_mapping(evaluator="sampled", session_length=[4]))
        runner = experiment._Runner(config)
        for cell in iter_cells(config):
            row = runner.evaluate(cell)
            # Rebuild the cell's sessions one at a time from the same draws.
            rng = np.random.Generator(np.random.PCG64(derive_cell_seed(config.seed, cell)))
            starts = rng.integers(len(runner.front_page.ids), size=config.sessions)
            steps = cell.session_length - 1
            uniforms = [rng.random(config.sessions) for _ in range(steps)]
            sessions = [
                reference_walk(
                    cell.session_length, int(start), [u[m] for u in uniforms],
                    runner.front_page,
                    oracle_recommender(runner, cell.recommender, cell.capacity, cell.demand),
                    position_probs(*parse_demand(cell.demand), config.list_size),
                    runner.placement(cell.capacity, cell.demand),
                )
                for m, start in enumerate(starts)
            ]
            report = chr_sequential(sessions)
            means = np.array([sum(s.hits[1:]) / steps for s in sessions])
            se = float(np.std(means, ddof=1) / np.sqrt(len(sessions)))
            assert row["chr"] == report.chr
            assert [row[f"hit_rate_k{k}"] for k in range(2, 5)] == list(report.per_step)
            assert row["chr_se"] == se
            assert row["chr_se"] == report.se

    def test_truncated_steps_count_as_misses(self, tmp_path):
        # The front page holds "a", whose only entry "b" is cached and a leaf:
        # every session hits at request 2 and is truncated after it.
        related, weights = tmp_path / "rel.jsonl", tmp_path / "pop.csv"
        save_dataset(Catalog({"a": ["b"], "b": []}, {"a": 2.0, "b": 1.0}), str(related), str(weights))
        config = config_from_mapping(tiny_mapping(
            catalog_kind="files", catalog_related_file=str(related),
            catalog_popularity_file=str(weights), catalog_size=None,
            catalog_out_degree=None, catalog_overlap=None, front_page_size=1,
            recommender="baseline", cache_capacity=2, demand="uniform", session_length=4,
            list_size=1, bfs_depth=1, evaluator="sampled",
        ))
        (row,) = run_experiment(config).rows
        assert (row["hit_rate_k2"], row["hit_rate_k3"], row["hit_rate_k4"]) == (1.0, 0.0, 0.0)
        assert row["chr"] == 1 / 3
        assert row["chr_se"] == 0.0

    def test_zipf_weights_that_overflow_give_rows(self):
        result = run_experiment(config_from_mapping(tiny_mapping(demand="zipf:1000")))
        assert result.failures == []
        assert len(result.rows) == len(iter_cells(result.config))

    def test_failure_messages_are_quoted(self, tiny_config, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError('bad, "quoted"\nvalue')

        monkeypatch.setattr(experiment.TransitionTable, "hit_rates", broken)
        result = run_experiment(tiny_config, out_dir=tmp_path)
        with open(tmp_path / "failures.csv", newline="", encoding="utf-8") as handle:
            records = list(csv.DictReader(handle))
        assert len(records) == len(result.failures) == 12
        assert {r["message"] for r in records} == {'bad, "quoted" value'}

    def test_recommender_error_fails_exactly_the_cells_that_reach_it(self, monkeypatch):
        config = config_from_mapping(tiny_mapping(
            recommender="cabaret", cache_capacity=5, demand="zipf:1", front_page_size=1,
            session_length=[6, 2, 4, 3, 5], evaluator="exact",
        ))
        runner = experiment._Runner(config)
        rec = oracle_recommender(runner, "cabaret", 5, "zipf:1")
        # The request at which each content can first be watched.
        request = {runner.front_page.ids[0]: 1}
        level = list(request)
        while level:
            depth = request[level[0]] + 1
            reached = (c for v in level for c in rec(v).entries if c not in request)
            level = list(dict.fromkeys(reached))
            request.update(dict.fromkeys(level, depth))
        target = min(c for c, r in request.items() if r == 3)
        # Only the target's own row explores around it: the store explores
        # each head through the bfs the runner hands it.
        explore = experiment.bfs

        def raising(content, params, oracle):
            if content == target:
                raise ValueError("no list")
            return explore(content, params, oracle)

        monkeypatch.setattr(experiment, "bfs", raising)
        result = run_experiment(config)
        assert sorted(f["k"] for f in result.failures) == [4, 5, 6]
        assert sorted(r["k"] for r in result.rows) == [2, 3]

    def test_each_list_is_built_once_per_recommender_and_cache(self, monkeypatch):
        # Top placement gives every demand the same cache, so one table
        # serves the three demands' exact and sampled cells.  Cabaret rows
        # derive from one candidate store per run, and baseline and
        # reordered rows from one provider list per content and run.
        config = config_from_mapping(tiny_mapping(
            demand=["uniform", "zipf:1", "zipf:2"], session_length=[2, 4, 3],
        ))
        built: dict[tuple[frozenset[str], str], int] = {}
        discovered: dict[str, int] = {}
        provided: dict[str, int] = {}
        rows = recommend_module.CandidateStore.rows
        discovery = recommend_module.cached_discovery
        top_up = recommend_module.top_up_candidates
        baseline = experiment.baseline_recommender

        def counting(self, cached):
            source = rows(self, cached)

            def counted(fresh):
                for v in map(self.states.ids.__getitem__, fresh):
                    built[cached, v] = built.get((cached, v), 0) + 1
                return source(fresh)

            return counted

        def discovering(head, *args):
            discovered[head.seed] = discovered.get(head.seed, 0) + 1
            return discovery(head, *args)

        def providing(v, *args):
            provided[v] = provided.get(v, 0) + 1
            return baseline(v, *args)

        def topping(head, depth, count, oracle, width):
            assert len(head.entries) >= count, "no row needs the last level"
            return top_up(head, depth, count, oracle, width)

        def reordering(*args):
            raise AssertionError("reordered lists derive from the provider's rows")

        monkeypatch.setattr(recommend_module.CandidateStore, "rows", counting)
        monkeypatch.setattr(recommend_module, "cached_discovery", discovering)
        monkeypatch.setattr(recommend_module, "top_up_candidates", topping)
        monkeypatch.setattr(experiment, "baseline_recommender", providing)
        monkeypatch.setattr(experiment, "reordered_recommender", reordering)
        result = run_experiment(config)
        assert result.failures == []
        # Top placement caches the first ``capacity`` contents of the ranking.
        assert {len(cached) for cached, _ in built} == set(config.capacities)
        assert set(built.values()) == {1}
        assert set(discovered) == {v for _, v in built}
        assert set(discovered.values()) == {1}
        assert provided
        assert set(provided.values()) == {1}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_provider_rows_equal_the_lists_built_for_each_cache(self, data):
        # Every row a baseline or reordered table derives from the provider's
        # rows against the list built for that cache alone.  Drawn catalogs
        # hold empty related lists and lists shorter than N, and w_max may
        # cut the provider's list below N.
        size = data.draw(st.integers(2, 12), label="size")
        ids = [f"c{i:02d}" for i in range(size)]
        related = {
            v: data.draw(st.lists(st.sampled_from([c for c in ids if c != v]), unique=True))
            for v in ids
        }
        weights = {v: float(data.draw(st.integers(1, 4))) for v in ids}
        policy = data.draw(st.sampled_from(["top", "greedy", "exact"]), label="policy")
        capacities = data.draw(
            st.lists(st.integers(1, size), min_size=1, max_size=3, unique=True), label="caps"
        )
        with tempfile.TemporaryDirectory() as tmp:
            related_file, weights_file = Path(tmp, "rel.jsonl"), Path(tmp, "pop.csv")
            save_dataset(Catalog(related, weights), str(related_file), str(weights_file))
            config = config_from_mapping(tiny_mapping(
                catalog_kind="files", catalog_related_file=str(related_file),
                catalog_popularity_file=str(weights_file), catalog_size=None,
                catalog_out_degree=None, catalog_overlap=None,
                front_page_size=data.draw(st.integers(1, 4), label="front"),
                bfs_width=data.draw(st.integers(1, 4), label="width"),
                list_size=data.draw(st.integers(1, 8), label="N"),
                w_max=data.draw(st.integers(1, 8), label="w_max"),
                cache_policy=policy, cache_capacity=capacities,
            ))
            runner = experiment._Runner(config)
        contents = sorted(ids)
        for kind in ("baseline", "reordered"):
            for capacity in capacities:
                for demand in config.demands:
                    table = runner.table(kind, capacity, demand)
                    width, cached, entries = table.rows(runner.states.numbers(contents))
                    want = oracle_recommender(runner, kind, capacity, demand)
                    for v, w, flags, row in zip(contents, width, cached, entries):
                        shown = want(v)
                        assert w == len(shown)
                        assert tuple(runner.states.ids[s] for s in row[:w]) == shown.entries
                        assert tuple(flags[:w].tolist()) == shown.cached
                        assert not flags[w:].any() and (row[w:] == -1).all()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cabaret_rows_equal_the_lists_built_for_each_cache(self, data):
        # Every row a cabaret table derives from the run's candidate store
        # against reference_recommend() for that cache alone.  Drawn
        # catalogs hold empty related lists and lists shorter than N, w_max
        # may cut a query below N, and N may exceed the exploration, so that
        # rows fall back on the last level's uncached entries.
        size = data.draw(st.integers(2, 12), label="size")
        ids = [f"c{i:02d}" for i in range(size)]
        related = {
            v: data.draw(st.lists(st.sampled_from([c for c in ids if c != v]), unique=True))
            for v in ids
        }
        weights = {v: float(data.draw(st.integers(1, 4))) for v in ids}
        policy = data.draw(st.sampled_from(["top", "greedy", "exact"]), label="policy")
        capacities = data.draw(
            st.lists(st.integers(1, size), min_size=1, max_size=3, unique=True), label="caps"
        )
        with tempfile.TemporaryDirectory() as tmp:
            related_file, weights_file = Path(tmp, "rel.jsonl"), Path(tmp, "pop.csv")
            save_dataset(Catalog(related, weights), str(related_file), str(weights_file))
            config = config_from_mapping(tiny_mapping(
                catalog_kind="files", catalog_related_file=str(related_file),
                catalog_popularity_file=str(weights_file), catalog_size=None,
                catalog_out_degree=None, catalog_overlap=None,
                front_page_size=data.draw(st.integers(1, 4), label="front"),
                bfs_depth=data.draw(st.integers(1, 3), label="depth"),
                bfs_width=data.draw(st.integers(1, 4), label="width"),
                list_size=data.draw(st.integers(1, 8), label="N"),
                w_max=data.draw(st.integers(1, 8), label="w_max"),
                cache_policy=policy, cache_capacity=capacities,
            ))
            runner = experiment._Runner(config)
        contents = sorted(ids)
        for capacity in capacities:
            for demand in config.demands:
                table = runner.table("cabaret", capacity, demand)
                width, cached, entries = table.rows(runner.states.numbers(contents))
                want = oracle_recommender(runner, "cabaret", capacity, demand)
                for v, w, flags, row in zip(contents, width, cached, entries):
                    shown = want(v)
                    assert w == len(shown)
                    assert tuple(runner.states.ids[s] for s in row[:w]) == shown.entries
                    assert tuple(flags[:w].tolist()) == shown.cached
                    assert not flags[w:].any() and (row[w:] == -1).all()

    def test_every_numbered_state_is_on_the_front_page_or_in_a_row(self, monkeypatch):
        # A state number costs a row slot in every table, so the runner
        # numbers only what some built row holds.
        config = config_from_mapping(tiny_mapping(
            cache_policy="greedy", cache_capacity=[1, 2, 5], session_length=[2, 4], list_size=2,
            catalog_overlap=0.0,
        ))
        tables: dict[int, experiment.TransitionTable] = {}
        table = experiment._Runner.table

        def keeping(self, *args):
            built = tables[id(built)] = table(self, *args)
            return built

        monkeypatch.setattr(experiment._Runner, "table", keeping)
        runner = experiment._Runner(config)
        for cell in iter_cells(config):
            runner.evaluate(cell)
        held = set(runner.states.numbers(list(runner.front_page.ids)))
        for built in [runner.provider, *tables.values()]:
            rows = built._next[: len(built._width)][built._width >= 0]
            held.update(rows[rows >= 0].tolist())
        assert held == set(range(len(runner.states)))

    @pytest.mark.parametrize("seed, depth, states, digest", [
        (1, 1, 1177, "cc69ec7e5a0000db531947c61f574ad9b030daf6c3d7d0dd66cb88a4a7189a5c"),
        (1, 2, 1381, "1aef1fe9f4f2488a1fa1b075675aceded59e0bf3f42696b56d968d0fa263fdd1"),
        (2, 2, 1434, "a30ce01b951736817e7228c579690427be67b3353e6416dd5e8f150f6a978696"),
    ])
    def test_the_readme_greedy_sweep_numbers_as_many_states_as_before(
        self, monkeypatch, tmp_path, seed, depth, states, digest
    ):
        # The states are the contents that the greedy sweep's rows hold,
        # with the front page; the digest pins results.csv byte for byte on
        # every Python version the tests run on.  The benchmark takes its
        # caches from greedy_placement itself, so only this pin sees a
        # changed pick, such as a tie between equal gains that goes to
        # another id.
        config = config_from_mapping(
            {**bench_workloads().config_for("readme-exact-greedy", seed, None), "bfs_depth": depth}
        )
        runners = []

        class Keeping(experiment._Runner):
            def __init__(self, config):
                super().__init__(config)
                runners.append(self)

        monkeypatch.setattr(experiment, "_Runner", Keeping)
        result = run_experiment(config, out_dir=tmp_path)
        assert result.failures == []
        assert len(runners[0].states) == states
        assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("policy, capacities, front, width", [
        ("top", [2, 5], 10, 8), ("greedy", [1, 2, 5], 10, 8), ("exact", [1, 2], 4, 3),
    ])
    def test_blocks_of_any_size_keep_the_bytes(
        self, monkeypatch, tmp_path, policy, capacities, front, width, depth
    ):
        # Cabaret rows and exact steps read a batch of states a block at a
        # time: blocks of one and of three states split every batch, and
        # must give the bytes of the default blocks, which hold each batch
        # of this config whole.
        config = config_from_mapping(tiny_mapping(
            cache_policy=policy, cache_capacity=capacities, front_page_size=front,
            bfs_width=width, bfs_depth=depth, session_length=[2, 4], evaluator="exact",
        ))
        written = []
        for block in (None, 1, 3):
            if block is not None:
                monkeypatch.setattr(recommend_module, "ROW_BLOCK", block)
                monkeypatch.setattr(demand_module, "STEP_BLOCK", block)
            result = run_experiment(config, out_dir=tmp_path / str(block))
            assert result.failures == []
            written.append((tmp_path / str(block) / "results.csv").read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    def test_an_exact_sweep_with_failing_capacities_keeps_its_bits(self, tmp_path):
        # Capacity 3 exceeds the brute-force guard and fails every cell that
        # needs it, while capacities 1 and 2 solve.  Every order is solved
        # before the first cell, so each failing cell raises its solve's
        # kept error.  The digests pin both files byte for byte.
        config = config_from_mapping(tiny_mapping(
            cache_policy="exact", cache_capacity=[2, 1, 3], catalog_size=5000,
            catalog_out_degree=50, catalog_overlap=0.0, front_page_size=3, bfs_width=50,
            evaluator="exact",
        ))
        result = run_experiment(config, out_dir=tmp_path)
        assert {f["cache_capacity"] for f in result.failures} == {3}
        assert {f["error"] for f in result.failures} == {"InstanceTooLargeError"}
        assert len(result.failures) == 12 and len(result.rows) == 24
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("failures.csv", "results.csv")
        }
        assert digests == {
            "failures.csv": "c0cc7c0d7b0f727b47cb473edb06896bb3d9856cbbde7473d6173b4ec6c0db6a",
            "results.csv": "b1335ac3171f1a059ad8864dd779c2cba50cace4896379c46f0bbca34e20b37d",
        }

    @pytest.mark.parametrize("policy, capacities", [
        ("greedy", [1, 2, 5, 3]), ("exact", [1, 2]),
    ])
    def test_each_cache_equals_its_own_solve(self, policy, capacities):
        # The one-solve-per-demand path against a fresh solve per cell.
        config = config_from_mapping(tiny_mapping(
            cache_policy=policy, cache_capacity=capacities, front_page_size=4, bfs_width=3,
        ))
        runner = experiment._Runner(config)
        solve = greedy_placement if policy == "greedy" else exact_placement
        for capacity in capacities:
            for demand in config.demands:
                spec = ObjectiveSpec.build(
                    runner.front_page.ids, config.list_size, runner.dists[demand],
                    runner.params, runner.oracle,
                )
                expected = solve(spec, capacity).chosen
                assert runner.placement(capacity, demand).ordered == expected

    def test_greedy_solves_once_per_demand(self, monkeypatch):
        solved = []

        def counting(spec, capacity):
            solved.append(capacity)
            return greedy_placement(spec, capacity)

        monkeypatch.setattr(experiment, "greedy_placement", counting)
        config = config_from_mapping(tiny_mapping(cache_policy="greedy", cache_capacity=[2, 5, 3]))
        result = run_experiment(config)
        assert result.failures == []
        assert solved == [5] * len(config.demands)

    @pytest.mark.parametrize("policy, capacities, front, width", [
        ("greedy", [2, 5, 3], 10, 8), ("exact", [1, 2], 4, 3),
    ])
    def test_a_sweep_builds_one_objective_spec(
        self, monkeypatch, policy, capacities, front, width
    ):
        # Each solve re-prices the front page's one spec under its demand,
        # and the re-priced spec keeps the type the runner built.
        built, solved = [], []

        class Counting(ObjectiveSpec):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        solve = greedy_placement if policy == "greedy" else exact_placement

        def recording(spec, capacity):
            solved.append(type(spec))
            return solve(spec, capacity)

        monkeypatch.setattr(experiment, "ObjectiveSpec", Counting)
        monkeypatch.setattr(experiment, f"{policy}_placement", recording)
        config = config_from_mapping(tiny_mapping(
            cache_policy=policy, cache_capacity=capacities, front_page_size=front,
            bfs_width=width, demand=["uniform", "zipf:0.5", "zipf:1"],
        ))
        result = run_experiment(config)
        assert result.failures == []
        assert len(built) == 1
        orders = 1 if policy == "greedy" else len(capacities)
        assert solved == [Counting] * (orders * len(config.demands))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_readme_greedy_solves_equal_the_reference_heap(self, seed):
        # One heap entry per content against one per row signature, on the
        # README front page.
        for priced in readme_greedy_specs(seed):
            assert greedy_placement(priced, 50) == reference_greedy_placement(priced, 50)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_readme_greedy_solves_equal_naive_greedy(self, seed):
        # Tied picks go to the smaller id, as naive greedy's do, also where
        # the uniform demand's gains are sums that round.
        for priced in readme_greedy_specs(seed):
            assert greedy_placement(priced, 50) == naive_greedy_placement(priced, 50)

    def test_a_failing_solve_fails_each_cell_that_needs_its_order(self, monkeypatch):
        # Every order is solved once, before the first cell; the second
        # demand's solve raises, and each of its cells raises that error.
        solved = []

        def failing(spec, capacity):
            solved.append(capacity)
            if len(solved) == 2:
                raise ValueError("no order")
            return greedy_placement(spec, capacity)

        monkeypatch.setattr(experiment, "greedy_placement", failing)
        config = config_from_mapping(tiny_mapping(cache_policy="greedy", cache_capacity=[2, 5]))
        result = run_experiment(config)
        assert solved == [5, 5]
        cells = iter_cells(config)
        failed = [(f["recommender"], f["cache_capacity"], f["demand"], f["k"]) for f in result.failures]
        assert failed == [
            (c.recommender, c.capacity, c.demand, c.session_length)
            for c in cells if c.demand == "zipf:1"
        ]
        assert {(f["error"], f["message"]) for f in result.failures} == {("ValueError", "no order")}
        assert len(result.rows) == len(cells) - len(result.failures)

    @pytest.mark.parametrize("policy", ["top", "greedy", "exact"])
    def test_smaller_capacities_leave_the_larger_rows_unchanged(self, policy):
        def rows_at(capacities):
            config = config_from_mapping(tiny_mapping(
                cache_policy=policy, cache_capacity=capacities,
                **({"front_page_size": 4, "bfs_width": 3} if policy == "exact" else {}),
            ))
            return [row for row in run_experiment(config).rows if row["cache_capacity"] == 5]

        assert rows_at([5]) == rows_at([1, 5, 2])

    @pytest.mark.parametrize("policy", ["top", "greedy"])
    def test_a_run_looks_each_content_up_once(self, monkeypatch, policy):
        # Under top every cache is cut from one order; under greedy each
        # demand has its own, and every cache shares the run's one index.
        config = config_from_mapping(tiny_mapping(
            recommender="cabaret", cache_policy=policy, cache_capacity=[1, 2, 5],
            demand=["uniform", "zipf:1", "zipf:2"], session_length=[2, 3],
        ))
        misses: dict[str, int] = {}
        missing = CacheIndex.__missing__

        def counting(index, content):
            misses[content] = misses.get(content, 0) + 1
            return missing(index, content)

        monkeypatch.setattr(CacheIndex, "__missing__", counting)
        result = run_experiment(config)
        assert result.failures == []
        assert misses
        assert set(misses.values()) == {1}

    @pytest.mark.parametrize("depth, explorations, queries", [
        (1, 28, 46), (2, 28, 144), (3, 28, 270),
    ])
    def test_explorations_and_queries_at_each_depth(
        self, monkeypatch, depth, explorations, queries
    ):
        # The greedy spec explores the 10 front-page contents and the store
        # the heads of 18 stored states, all through the runner's bfs name,
        # so a wrapper bound to it sees each one.  The counts are pinned.
        counts = {"bfs": 0, "related": 0}
        explore, related = experiment.bfs, RelationOracle.related

        def exploring(*args):
            counts["bfs"] += 1
            return explore(*args)

        def querying(*args):
            counts["related"] += 1
            return related(*args)

        monkeypatch.setattr(experiment, "bfs", exploring)
        monkeypatch.setattr(RelationOracle, "related", querying)
        result = run_experiment(config_from_mapping(tiny_mapping(
            bfs_depth=depth, cache_policy="greedy"
        )))
        assert result.failures == []
        assert counts == {"bfs": explorations, "related": queries}

    @pytest.mark.parametrize("policy", ["top", "greedy"])
    def test_each_stored_state_has_its_head_explored_once(self, monkeypatch, policy):
        # No head is kept, so only the store's one add per state keeps the
        # explorations from repeating.
        config = config_from_mapping(tiny_mapping(
            recommender="cabaret", cache_policy=policy, cache_capacity=[1, 2, 5],
            demand=["uniform", "zipf:1", "zipf:2"], session_length=[2, 3, 4],
        ))
        # The store explores heads through the bfs the runner hands it, under
        # head parameters it derives once; the greedy spec explores the front
        # page through the same name, before the store exists.
        explored: dict[str, int] = {}
        stores = []
        explore = experiment.bfs

        def keeping(*args, **kwargs):
            stores.append(recommend_module.CandidateStore(*args, **kwargs))
            return stores[-1]

        def counting(content, params, oracle):
            if stores and params is stores[0].head_params:
                explored[content] = explored.get(content, 0) + 1
            return explore(content, params, oracle)

        monkeypatch.setattr(experiment, "CandidateStore", keeping)
        monkeypatch.setattr(experiment, "bfs", counting)
        result = run_experiment(config)
        assert result.failures == []
        assert set(explored.values()) == {1}
        store = stores[0]
        stored = np.flatnonzero(store.at[:, 1] >= 0)
        assert sorted(explored) == sorted(store.states.ids[s] for s in stored)

    def test_smaller_caches_of_a_selection_order_make_no_oracle_queries(self, monkeypatch):
        # At depth 1 a head is the whole exploration, so no row reads a
        # last level: the run queries each content once for every cache.
        # Two-request sessions visit the front page only, whatever the cache.
        def queries(capacities):
            count = 0
            related = RelationOracle.related

            def counting(self, content, width):
                nonlocal count
                count += 1
                return related(self, content, width)

            with monkeypatch.context() as patch:
                patch.setattr(RelationOracle, "related", counting)
                result = run_experiment(config_from_mapping(tiny_mapping(
                    recommender="cabaret", bfs_depth=1, cache_capacity=capacities,
                    session_length=2,
                )))
            assert result.failures == []
            return count

        assert queries([1, 2, 5]) == queries([5])
        assert queries([5]) == tiny_mapping()["front_page_size"]

    def test_demands_whose_largest_caches_match_keep_their_own_families(
        self, monkeypatch, tmp_path
    ):
        # Two demands' orders hold one set at the largest capacity and
        # another at the smallest.  The first demand's smaller cache lies in
        # s's head, the second's in p's list, on the last level: each cache
        # reads its own cached entries from the store, not those of a cache
        # that only matches it at the largest capacity.
        related = tmp_path / "rel.jsonl"
        save_dataset(Catalog({"s": ["a", "b", "p"], "p": ["x", "y"]}), str(related))
        orders = iter([("a", "b", "x", "y"), ("y", "x", "b", "a")])

        def fixed(spec, capacity):
            return dataclasses.replace(greedy_placement(spec, capacity), chosen=next(orders))

        monkeypatch.setattr(experiment, "greedy_placement", fixed)
        config = config_from_mapping(tiny_mapping(
            catalog_kind="files", catalog_related_file=str(related), catalog_size=None,
            catalog_out_degree=None, catalog_overlap=None, front_page_size=6,
            cache_policy="greedy", cache_capacity=[2, 4], demand=["uniform", "zipf:1"],
            list_size=2,
        ))
        runner = experiment._Runner(config)
        contents = sorted(runner.catalog.ids())
        for capacity in config.capacities:
            for demand in config.demands:
                cache = runner.placement(capacity, demand)
                table = runner.table("cabaret", capacity, demand)
                width, cached, entries = table.rows(runner.states.numbers(contents))
                for v, w, flags, row in zip(contents, width, cached, entries):
                    explored = bfs(v, runner.params, runner.oracle).entries
                    want = select_from_exploration(explored, 2, cache)
                    assert tuple(runner.states.ids[s] for s in row[:w]) == want.entries
                    assert tuple(flags[:w].tolist()) == want.cached
                    if (capacity, demand, v) == (2, "zipf:1", "s"):
                        assert want.entries == ("x", "y")

    def test_demands_with_equal_caches_share_their_lists(self, monkeypatch):
        # zipf:0 is the uniform law, so greedy places one cache for both.
        config = config_from_mapping(tiny_mapping(
            cache_policy="greedy", demand=["uniform", "zipf:0"], session_length=[2, 3],
        ))
        built: dict[tuple[frozenset[str], str], int] = {}
        rows = recommend_module.CandidateStore.rows

        def counting(self, cached):
            source = rows(self, cached)

            def counted(fresh):
                for v in map(self.states.ids.__getitem__, fresh):
                    built[cached, v] = built.get((cached, v), 0) + 1
                return source(fresh)

            return counted

        runner = experiment._Runner(config)
        for capacity in config.capacities:
            assert runner.placement(capacity, "zipf:0") == runner.placement(capacity, "uniform")
        monkeypatch.setattr(recommend_module.CandidateStore, "rows", counting)
        result = run_experiment(config)
        assert result.failures == []
        assert len({cache for cache, _ in built}) == len(config.capacities)
        assert set(built.values()) == {1}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hit_ratios_lie_in_unit_interval(self, data):
        size = data.draw(st.integers(2, 40))
        mapping = tiny_mapping(
            catalog_size=size,
            catalog_out_degree=data.draw(st.integers(1, min(size - 1, 8))),
            catalog_overlap=data.draw(st.floats(0, 1)),
            front_page_size=data.draw(st.integers(1, 12)),
            recommender=["baseline", "reordered", "cabaret"],
            bfs_depth=data.draw(st.integers(1, 3)),
            bfs_width=data.draw(st.integers(1, 8)),
            w_max=data.draw(st.integers(1, 8)),
            list_size=data.draw(st.integers(1, 6)),
            cache_policy=data.draw(st.sampled_from(["top", "greedy"])),
            cache_capacity=data.draw(st.lists(st.integers(1, 45), min_size=1, max_size=2)),
            demand=data.draw(st.sampled_from(["uniform", "zipf:0.5", "zipf:2"])),
            session_length=data.draw(st.integers(2, 4)),
            sessions=data.draw(st.integers(1, 20)),
            evaluator=data.draw(st.sampled_from(["exact", "sampled"])),
        )
        result = run_experiment(config_from_mapping(mapping))
        assert not result.failures
        for row in result.rows:
            rates = [v for k, v in row.items() if k == "chr" or k.startswith("hit_rate_k")]
            assert rates and all(0.0 <= rate <= 1.0 for rate in rates)

    def test_exact_evaluator_for_all_cells(self):
        config = config_from_mapping(tiny_mapping(evaluator="exact"))
        result = run_experiment(config)
        assert all(row["evaluator"] == "exact" for row in result.rows)

    def test_uniform_reordering_equality_is_exact(self):
        config = config_from_mapping(tiny_mapping(evaluator="exact"))
        result = run_experiment(config)
        rows = {
            (r["recommender"], r["cache_capacity"], r["k"]): r["chr"]
            for r in result.rows
            if r["demand"] == "uniform"
        }
        for capacity in (2, 5):
            for k in (2, 3):
                assert rows[("baseline", capacity, k)] == rows[("reordered", capacity, k)]

    def test_dominance_ordering_on_exact_cells(self):
        config = config_from_mapping(tiny_mapping(evaluator="exact"))
        result = run_experiment(config)
        rows = {
            (r["recommender"], r["cache_capacity"], r["demand"], r["k"]): r["chr"]
            for r in result.rows
        }
        for capacity in (2, 5):
            for demand in ("uniform", "zipf:1"):
                for k in (2, 3):
                    base = rows[("baseline", capacity, demand, k)]
                    reord = rows[("reordered", capacity, demand, k)]
                    cab = rows[("cabaret", capacity, demand, k)]
                    assert base <= reord + 1e-15
                    assert reord <= cab + 1e-15

    def test_failed_cells_recorded_and_skipped(self, tmp_path):
        # An exact placement over a large candidate universe trips the
        # brute-force guard; those cells land in failures.csv while the
        # small-capacity cells still run.
        config = config_from_mapping(
            tiny_mapping(
                catalog_size=600,
                catalog_out_degree=25,
                bfs_width=25,
                cache_policy="exact",
                cache_capacity=[1, 6],
                recommender=["cabaret"],
                demand=["uniform"],
                session_length=[2],
            )
        )
        result = run_experiment(config, out_dir=tmp_path)
        assert len(result.rows) == 1
        assert result.rows[0]["cache_capacity"] == 1
        assert len(result.failures) == 1
        assert result.failures[0]["error"] == "InstanceTooLargeError"
        text = (tmp_path / "failures.csv").read_text()
        assert "InstanceTooLargeError" in text

    def test_greedy_policy_runs(self):
        config = config_from_mapping(
            tiny_mapping(
                cache_policy="greedy",
                recommender=["cabaret"],
                cache_capacity=[3],
                demand=["uniform"],
                session_length=[2],
            )
        )
        result = run_experiment(config)
        assert len(result.rows) == 1
        assert result.rows[0]["chr"] > 0

    def test_files_catalog_round_trip(self, tmp_path):
        from cabaret_sim.catalog import save_dataset
        from cabaret_sim.synthetic import generate_synthetic

        catalog = generate_synthetic(300, 10, 0.8, derive_catalog_seed(42))
        related = tmp_path / "rel.jsonl"
        weights = tmp_path / "pop.csv"
        save_dataset(catalog, str(related), str(weights))
        config = config_from_mapping(
            tiny_mapping(
                catalog_kind="files",
                catalog_related_file=str(related),
                catalog_popularity_file=str(weights),
                catalog_size=None,
                catalog_out_degree=None,
                catalog_overlap=None,
            )
        )
        synth = run_experiment(config_from_mapping(tiny_mapping()))
        from_files = run_experiment(config)
        for a, b in zip(synth.rows, from_files.rows):
            assert a["chr"] == b["chr"]

    def test_results_csv_round_trips_losslessly(self, tmp_path):
        # Auto, sampled, and one session per cell, which leaves chr_se blank.
        for name, over in (
            ("auto", {}), ("sampled", {"evaluator": "sampled"}),
            ("one", {"evaluator": "sampled", "sessions": 1}),
        ):
            config = config_from_mapping(tiny_mapping(**over))
            result = run_experiment(config, out_dir=tmp_path / name)
            loaded = read_results_csv(tmp_path / name / "results.csv")
            stripped = [
                {key: value for key, value in row.items() if value is not None}
                for row in result.rows
            ]
            assert loaded == stripped
            # Every column reads back as its declared type; the undeclared
            # ones are the per-step rates.
            for row in loaded:
                for column, value in row.items():
                    assert type(value) is experiment._RESULT_COLUMNS.get(column, float)
            assert all(("chr_se" in row) == (name != "one") for row in loaded if row["k"] > 2)

    def test_results_csv_shape(self, tiny_config, tmp_path):
        run_experiment(tiny_config, out_dir=tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:6] == [
            "recommender",
            "cache_policy",
            "cache_capacity",
            "demand",
            "k",
            "evaluator",
        ]
        assert header[-2:] == ["hit_rate_k2", "hit_rate_k3"]
        assert len(lines) == 1 + 24
        config_echo = json.loads((tmp_path / "config.json").read_text())
        assert config_echo["seed"] == 42


@st.composite
def reference_configs(draw):
    """Small synthetic exact configs on which ``reference.check_rows`` is valid.

    The cells are exact and ``w_max`` is the default, the reference's
    ``W_MAX``.  Width and out-degree are at least ``N``: only there do
    the provider and cabaret lists all hold ``N`` entries, so that the
    check's chain ``baseline <= reordered <= cabaret`` holds.  Every draw runs ``K = 2``,
    which the chain and the ``hit_rate_k2`` check read.
    """
    n = draw(st.integers(1, 10))
    out_degree = draw(st.integers(n, 12))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "catalog_kind": "synthetic",
        "catalog_size": draw(st.integers(out_degree + 1, 400)),
        "catalog_out_degree": out_degree,
        "catalog_overlap": draw(st.floats(0.0, 1.0)),
        "front_page_size": draw(st.integers(1, 20)),
        "recommender": ["baseline", "reordered", "cabaret"],
        "bfs_depth": draw(st.integers(1, 3)),
        "bfs_width": draw(st.integers(n, 12)),
        "list_size": n,
        "cache_policy": draw(st.sampled_from(["top", "greedy"])),
        "cache_capacity": draw(st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True)),
        "demand": draw(st.lists(
            st.sampled_from(["uniform", "zipf:0.5", "zipf:1"]), min_size=1, max_size=2, unique=True
        )),
        "session_length": sorted({2, draw(st.integers(2, 5))}),
        "evaluator": "exact",
    }


@settings(max_examples=150, deadline=None)
@given(mapping=reference_configs())
# A small draw whose K = 3 rates change if the top-up is taken from the tail
# of the exploration instead of its head.
@example(mapping={
    "seed": 0, "catalog_kind": "synthetic", "catalog_size": 4, "catalog_out_degree": 2,
    "catalog_overlap": 0.0, "front_page_size": 1,
    "recommender": ["baseline", "reordered", "cabaret"], "bfs_depth": 1, "bfs_width": 2,
    "list_size": 1, "cache_policy": "top", "cache_capacity": [1], "demand": ["uniform"],
    "session_length": [2, 3], "evaluator": "exact",
})
def test_exact_results_equal_the_independent_reference(mapping):
    # bench/reference.py recomputes every cell and imports nothing from the
    # program; bench/run.py gives it the run's catalog and caches.
    run = bench_run()
    with tempfile.TemporaryDirectory() as out:
        result = run_experiment(config_from_mapping(mapping), out_dir=out)
        rows = run.read_rows(Path(out) / "results.csv")
    assert result.failures == []
    with patch.object(sys, "path", list(sys.path)):
        ref, caches = run.build_reference(mapping, None)
    assert run.reference.check_rows(rows, ref, caches, 1) == ({}, [])


def test_a_finished_run_frees_itself(tiny_config, monkeypatch):
    # With the cycle collector off, only reference counts free the runner:
    # a cycle through it would keep every table of the run alive.
    runners = []

    class Watched(experiment._Runner):
        def __init__(self, config):
            super().__init__(config)
            runners.append(weakref.ref(self))

    monkeypatch.setattr(experiment, "_Runner", Watched)
    config = dataclasses.replace(tiny_config, cache_policy="greedy")
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_experiment(config)
        assert result.failures == [] and len(runners) == 1
        assert runners[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_bench_tracer_finds_every_name_it_rebinds():
    # bench/tracing.py rebinds names in the runner's module namespace; one
    # missing there raises AttributeError.  It runs on a copy here, so the
    # real module is left as it was.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = dict(vars(experiment))
    namespace = types.SimpleNamespace(**before)
    tracing.install(tracing.Tracer(), namespace)
    after = vars(experiment)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
    assert namespace.bfs is not experiment.bfs


def test_no_run_imports_numpy_ma():
    # numpy's set routines (np.unique, for one) import all of numpy.ma on
    # their first call, about 20 ms inside a run's timed sweep; the
    # evaluators read dense arrays indexed by state number instead.
    script = (
        "import json, sys\n"
        "from cabaret_sim.experiment import config_from_mapping, run_experiment\n"
        "results = [run_experiment(config_from_mapping(m)) for m in json.loads(sys.argv[1])]\n"
        "print(json.dumps({\n"
        "    'rows': [len(r.rows) for r in results],\n"
        "    'failures': [len(r.failures) for r in results],\n"
        "    'ma': sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']),\n"
        "}))\n"
    )
    mappings = [
        tiny_mapping(evaluator="sampled"),
        tiny_mapping(evaluator="exact", cache_policy="greedy"),
    ]
    src = str(Path(experiment.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(mappings)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    report = json.loads(done.stdout)
    assert report == {"rows": [24, 24], "failures": [0, 0], "ma": []}
