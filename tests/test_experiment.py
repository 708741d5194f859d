from __future__ import annotations

import csv
import dataclasses
import importlib.util
import json
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cabaret_sim import experiment
from cabaret_sim.catalog import Catalog, save_dataset
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
    read_results_csv,
    run_experiment,
)
from cabaret_sim.metrics import chr_sequential
from cabaret_sim.placement import ObjectiveSpec, exact_placement, greedy_placement

from conftest import reference_walk


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


@pytest.fixture
def tiny_config():
    return config_from_mapping(tiny_mapping())


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


#: The keys that only one catalog kind reads, and those it requires.
KIND_KEYS = {
    "synthetic": ("catalog_size", "catalog_out_degree", "catalog_overlap", "catalog_seed"),
    "files": ("catalog_related_file", "catalog_popularity_file"),
}
KIND_REQUIRES = {
    "synthetic": ("catalog_size", "catalog_out_degree", "catalog_overlap"),
    "files": ("catalog_related_file",),
}


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
    kind = draw(st.sampled_from(sorted(KIND_KEYS)))
    other = {name for k, names in KIND_KEYS.items() if k != kind for name in names}
    mapping = {}
    for key in SCHEMA:
        if key.name in other:
            continue
        required = key.default is REQUIRED or key.name in KIND_REQUIRES[kind]
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

    @pytest.mark.parametrize(
        "owner, key, value",
        [
            ("synthetic", "catalog_size", 10),
            ("synthetic", "catalog_out_degree", 5),
            ("synthetic", "catalog_overlap", 0.5),
            ("synthetic", "catalog_seed", 3),
            ("files", "catalog_related_file", "missing.jsonl"),
            ("files", "catalog_popularity_file", "missing.csv"),
        ],
    )
    def test_key_of_the_other_catalog_kind_is_rejected(self, tmp_path, owner, key, value):
        # Each kind reads only its own keys: one set for the other kind would
        # be echoed in config.json as if it had been used.
        related = tmp_path / "rel.jsonl"
        related.touch()
        mapping = tiny_mapping()
        if owner == "synthetic":
            mapping.update(
                catalog_kind="files", catalog_related_file=str(related),
                catalog_size=None, catalog_out_degree=None, catalog_overlap=None,
            )
        else:
            value = str(tmp_path / value)
        with pytest.raises(ConfigError, match=f"^{key} is a {owner} catalog key"):
            config_from_mapping({**mapping, key: value})

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
                    runner.recommender(cell.recommender, cell.capacity, cell.demand),
                    experiment._demand_dist(cell.demand, config.list_size),
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
        rec = runner.recommender("cabaret", 5, "zipf:1")
        # The request at which each content can first be watched.
        request = {runner.front_page.ids[0]: 1}
        level = list(request)
        while level:
            depth = request[level[0]] + 1
            reached = (c for v in level for c in rec(v).entries if c not in request)
            level = list(dict.fromkeys(reached))
            request.update(dict.fromkeys(level, depth))
        target = min(c for c, r in request.items() if r == 3)

        recommender = experiment._Runner.recommender

        def raising(self, kind, capacity, demand):
            inner = recommender(self, kind, capacity, demand)

            def rec(v):
                if v == target:
                    raise ValueError("no list")
                return inner(v)

            return rec

        monkeypatch.setattr(experiment._Runner, "recommender", raising)
        result = run_experiment(config)
        assert sorted(f["k"] for f in result.failures) == [4, 5, 6]
        assert sorted(r["k"] for r in result.rows) == [2, 3]

    def test_each_list_is_built_once_per_recommender_and_cache(self, monkeypatch):
        # Top placement gives every demand the same cache, so one table
        # serves the three demands' exact and sampled cells.
        config = config_from_mapping(tiny_mapping(
            demand=["uniform", "zipf:1", "zipf:2"], session_length=[2, 4, 3],
        ))
        built: dict[tuple[str, int, str], int] = {}
        recommender = experiment._Runner.recommender

        def counting(self, kind, capacity, demand):
            inner = recommender(self, kind, capacity, demand)

            def rec(v):
                built[kind, capacity, v] = built.get((kind, capacity, v), 0) + 1
                return inner(v)

            return rec

        monkeypatch.setattr(experiment._Runner, "recommender", counting)
        result = run_experiment(config)
        assert result.failures == []
        assert {kind for kind, _, _ in built} == {"baseline", "reordered", "cabaret"}
        assert set(built.values()) == {1}

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

    def test_smaller_capacities_leave_the_larger_rows_unchanged(self):
        def rows_at(capacities):
            config = config_from_mapping(tiny_mapping(
                cache_policy="greedy", cache_capacity=capacities,
            ))
            return [row for row in run_experiment(config).rows if row["cache_capacity"] == 5]

        assert rows_at([5]) == rows_at([1, 5, 2])

    def test_demands_with_equal_caches_share_their_lists(self, monkeypatch):
        # zipf:0 is the uniform law, so greedy places one cache for both.
        config = config_from_mapping(tiny_mapping(
            cache_policy="greedy", demand=["uniform", "zipf:0"], session_length=[2, 3],
        ))
        built: dict[tuple[str, frozenset[str], str], int] = {}
        recommender = experiment._Runner.recommender

        def counting(self, kind, capacity, demand):
            inner = recommender(self, kind, capacity, demand)
            cache = self.placement(capacity, demand).ids
            assert cache == self.placement(capacity, "uniform").ids

            def rec(v):
                built[kind, cache, v] = built.get((kind, cache, v), 0) + 1
                return inner(v)

            return rec

        monkeypatch.setattr(experiment._Runner, "recommender", counting)
        result = run_experiment(config)
        assert result.failures == []
        assert len({cache for _, cache, _ in built}) == len(config.capacities)
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

    def test_results_csv_round_trips_losslessly(self, tiny_config, tmp_path):
        result = run_experiment(tiny_config, out_dir=tmp_path)
        loaded = read_results_csv(tmp_path / "results.csv")
        stripped = [
            {key: value for key, value in row.items() if value is not None}
            for row in result.rows
        ]
        assert loaded == stripped

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
