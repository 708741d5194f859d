from __future__ import annotations

import csv
import io
import json

import pytest

from cabaret_sim.catalog import RelationOracle, load_dataset, save_dataset, top_popular
from cabaret_sim.cli import build_parser, main
from cabaret_sim.experiment import SCHEMA
from cabaret_sim.explore import BfsParams
from cabaret_sim.recommend import CacheManifest
from cabaret_sim.synthetic import generate_synthetic
from cabaret_sim.version import __version__

from conftest import reference_recommend


@pytest.fixture
def dataset(tmp_path):
    related = tmp_path / "rel.jsonl"
    related.write_text(
        '{"id":"s","related":["a","b","c","d","e","f","g","h","i","j","k","l"]}\n',
        encoding="utf-8",
    )
    weights = tmp_path / "pop.csv"
    rows = ["id,weight", "s,10"] + [f"{c},{i}" for i, c in enumerate("abcdefghijkl")]
    weights.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return related, weights


def _generate(tmp_path, size, out_degree, overlap, seed):
    """Write ``generate``'s catalog files into ``tmp_path``; the related and popularity paths."""
    related, weights = tmp_path / "rel.jsonl", tmp_path / "pop.csv"
    assert main(["generate", "--size", str(size), "--out-degree", str(out_degree),
                 "--overlap", str(overlap), "--seed", str(seed),
                 "--related-out", str(related), "--popularity-out", str(weights)]) == 0
    return related, weights


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert __version__ in out
    assert "schema" in out


def test_option_defaults_are_the_config_defaults():
    default = {key.name: key.default for key in SCHEMA}
    args = build_parser().parse_args(
        ["optimize", "--related-file", "rel.jsonl", "--method", "top", "--capacity", "1",
         "--manifest-out", "m.txt"]
    )
    assert (args.count, args.depth, args.width, args.front_page) == (
        default["list_size"], default["bfs_depth"], default["bfs_width"],
        default["front_page_size"],
    )


def test_popularity_file_without_a_related_file_is_rejected(dataset, capsys):
    _, weights = dataset
    argv = ["explore", "--popularity-file", str(weights),
            "--seed-id", "v00", "--depth", "1", "--width", "2"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "the following arguments are required: --related-file" in capsys.readouterr().err


def test_generate_size_zero_reports_the_generator_error(tmp_path, capsys):
    argv = ["generate", "--size", "0", "--seed", "0",
            "--related-out", str(tmp_path / "rel.jsonl"),
            "--popularity-out", str(tmp_path / "pop.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: size must be at least out_degree + 1")


def test_negative_seed_reports_the_generator_error(tmp_path, capsys):
    command = ["generate", "--size", "100", "--seed", "-1",
               "--related-out", str(tmp_path / "rel.jsonl"),
               "--popularity-out", str(tmp_path / "pop.csv")]
    assert main(command) == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"


def test_generate_matches_api(tmp_path):
    related, weights = _generate(tmp_path, 300, 10, 0.8, 5)
    assert load_dataset(str(related), str(weights)) == generate_synthetic(300, 10, 0.8, 5)


def test_explore_csv(dataset, tmp_path, capsys):
    related, weights = dataset
    code = main(
        [
            "explore",
            "--related-file", str(related),
            "--seed-id", "s",
            "--depth", "1",
            "--width", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rank,id,depth"
    assert out[1:] == ["1,a,1", "2,b,1", "3,c,1"]


def test_ids_with_commas_and_quotes_are_quoted(tmp_path, capsys):
    related = tmp_path / "rel.jsonl"
    related.write_text('{"id":"s","related":["a,b","say \\"hi\\"","c"]}\n', encoding="utf-8")
    code = main(
        [
            "explore",
            "--related-file", str(related),
            "--seed-id", "s",
            "--depth", "1",
            "--width", "3",
        ]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [
        ["rank", "id", "depth"],
        ["1", "a,b", "1"],
        ["2", 'say "hi"', "1"],
        ["3", "c", "1"],
    ]


def test_recommend_csv(dataset, tmp_path):
    related, weights = dataset
    cache = tmp_path / "cache.txt"
    cache.write_text("d\nf\nx\n", encoding="utf-8")
    out_file = tmp_path / "rec.csv"
    code = main(
        [
            "recommend",
            "--related-file", str(related),
            "--seed-id", "s",
            "-N", "6",
            "--depth", "1",
            "--width", "12",
            "--cache-file", str(cache),
            "--out", str(out_file),
        ]
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "rank,id,cached"
    assert lines[1] == "1,d,true"
    assert lines[2] == "2,f,true"
    assert lines[3] == "3,a,false"
    assert len(lines) == 7


def test_recommend_reads_a_cache_file_saved_with_a_byte_order_mark(dataset, tmp_path, capsys):
    related, _ = dataset
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):
        cache = tmp_path / f"{encoding}.txt"
        cache.write_text("d\nf\n", encoding=encoding)
        argv = ["recommend", "--related-file", str(related), "--seed-id", "s", "-N", "3",
                "--depth", "1", "--width", "12", "--cache-file", str(cache)]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0] == "rank,id,cached\n1,d,true\n2,f,true\n3,a,false\n"


def test_recommend_zero_count_reports_error(dataset, tmp_path, capsys):
    related, _ = dataset
    cache = tmp_path / "cache.txt"
    cache.write_text("d\n", encoding="utf-8")
    argv = ["recommend", "--related-file", str(related), "--seed-id", "s", "-N", "0",
            "--depth", "2", "--width", "3", "--cache-file", str(cache)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: count must be >= 1, got 0\n"


def test_recommend_leaf_seed_prints_the_header_only(dataset, tmp_path, capsys):
    # "a" is named in a list but defined by no line: a leaf, whose
    # exploration is empty at any depth.
    related, weights = dataset
    cache = tmp_path / "cache.txt"
    cache.write_text("a\nb\n", encoding="utf-8")
    for depth in ("1", "3"):
        argv = ["recommend", "--related-file", str(related), "--popularity-file", str(weights),
                "--seed-id", "a", "-N", "5", "--depth", depth, "--width", "12",
                "--cache-file", str(cache)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == "rank,id,cached\n"
        assert captured.err == "empty exploration: no recommendations\n"


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """The README Quickstart's catalog files, and caches of its 1 and 50 most popular contents."""
    root = tmp_path_factory.mktemp("quickstart")
    catalog = generate_synthetic(10000, 50, 0.92, 7)
    related, weights = root / "related.jsonl", root / "popularity.csv"
    save_dataset(catalog, str(related), str(weights))
    caches = {}
    for capacity in (1, 50):
        caches[capacity] = root / f"top{capacity}.txt"
        CacheManifest.from_ids(top_popular(catalog, capacity).ids).to_file(str(caches[capacity]))
    return catalog, related, caches


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_recommend_at_readme_scale_equals_the_selection_over_the_exploration(
    quickstart, capsys, depth
):
    # The Quickstart's recommend command, for the README's seed, the most
    # popular content (which the top-1 cache holds itself), the first entry
    # of its list (whose lists reach that cache) and two more.
    catalog, related, caches = quickstart
    oracle = RelationOracle(catalog)
    top = top_popular(catalog, 1).ids[0]
    seeds = ("v0042", top, catalog.related_list(top)[0], "v0000", "v9999")
    for seed in seeds:
        for capacity, path in caches.items():
            argv = ["recommend", "--related-file", str(related), "--seed-id", seed,
                    "-N", "20", "--depth", str(depth), "--width", "50",
                    "--cache-file", str(path)]
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            cache = CacheManifest.from_file(str(path))
            want = reference_recommend(seed, 20, cache, BfsParams(depth, 50), oracle)
            assert len(want) == 20
            rows = list(csv.reader(io.StringIO(captured.out)))
            assert rows == [["rank", "id", "cached"]] + [
                [str(rank), cid, "true" if hit else "false"]
                for rank, (cid, hit) in enumerate(zip(want.entries, want.cached), start=1)
            ]


def test_unknown_seed_id_reports_error(dataset, capsys):
    related, _ = dataset
    code = main(
        [
            "explore",
            "--related-file", str(related),
            "--seed-id", "missing",
            "--depth", "1",
            "--width", "3",
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_optimize_writes_manifest_and_trajectory(tmp_path):
    related, weights = _generate(tmp_path, 300, 10, 0.8, 5)
    manifest = tmp_path / "cache.txt"
    trajectory = tmp_path / "traj.csv"
    code = main(
        [
            "optimize",
            "--related-file", str(related),
            "--popularity-file", str(weights),
            "--method", "greedy",
            "--capacity", "4",
            "-N", "5",
            "--depth", "2",
            "--width", "8",
            "--demand", "zipf:1",
            "--front-page", "10",
            "--manifest-out", str(manifest),
            "--trajectory-out", str(trajectory),
        ]
    )
    assert code == 0
    ids = manifest.read_text().splitlines()
    assert len(ids) == 4
    rows = trajectory.read_text().splitlines()
    assert rows[0] == "step,id,objective"
    assert len(rows) == 5
    values = [float(r.split(",")[2]) for r in rows[1:]]
    assert values == sorted(values)


def test_run_rejects_a_repeated_config_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(
        '{"seed": 1, "seed": 2, "catalog_kind": "synthetic", "catalog_size": 300, '
        '"catalog_out_degree": 10, "catalog_overlap": 0.8, "front_page_size": 10, '
        '"recommender": "baseline", "cache_capacity": 1, "demand": "uniform", '
        '"session_length": 2}',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: config repeats key 'seed'\n"
    assert not out.exists()


# Ids are read back one per line, stripped, so optimize refuses to write
# a manifest that recommend --cache-file would read as another cache.
def test_optimize_refuses_a_manifest_that_reads_back_changed(tmp_path, capsys):
    related, weights = tmp_path / "rel.jsonl", tmp_path / "pop.csv"
    related.write_text('{"id":" s","related":["a"]}\n', encoding="utf-8")
    weights.write_text('id,weight\n" s",2\na,1\n', encoding="utf-8")
    manifest = tmp_path / "cache.txt"
    argv = ["optimize", "--related-file", str(related), "--popularity-file", str(weights),
            "--method", "top", "--capacity", "1", "--manifest-out", str(manifest)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: cache id ' s' cannot be written")
    assert not manifest.exists()


def test_eval_iv_outputs(tmp_path, capsys):
    related, weights = _generate(tmp_path, 1000, 50, 0.9, 7)
    capsys.readouterr()
    code = main(
        [
            "eval-iv",
            "--related-file", str(related),
            "--popularity-file", str(weights),
            "--width", "50",
            "--top", "50",
            "--per-seed-out", str(tmp_path / "seeds.csv"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "metric,value"
    metrics = dict(line.split(",") for line in out[1:])
    assert float(metrics["median_overlap"]) == pytest.approx(0.9, abs=0.1)
    seed_lines = (tmp_path / "seeds.csv").read_text().splitlines()
    assert seed_lines[0] == "id,overlap"
    assert len(seed_lines) == 51


def test_eval_iv_reports_the_width_it_read(tmp_path, capsys):
    # A query reads at most W_MAX = 50 entries: --width 60 reads, and now
    # reports, what --width 50 does.
    related, weights = _generate(tmp_path, 1000, 60, 0.8, 5)
    outputs = []
    for width in ("60", "50"):
        capsys.readouterr()
        assert main(["eval-iv", "--related-file", str(related), "--popularity-file",
                     str(weights), "--width", width, "--top", "10"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "width,50" in outputs[0].splitlines()


def test_run_subcommand(tmp_path, capsys):
    config = {
        "seed": 11,
        "catalog_kind": "synthetic",
        "catalog_size": 300,
        "catalog_out_degree": 10,
        "catalog_overlap": 0.8,
        "front_page_size": 10,
        "recommender": ["baseline", "cabaret"],
        "bfs_depth": 2,
        "bfs_width": 8,
        "list_size": 5,
        "cache_policy": "top",
        "cache_capacity": [3],
        "demand": ["zipf:1"],
        "session_length": [2],
        "sessions": 20,
        "evaluator": "auto",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "results.csv").read_text().splitlines()
    assert len(lines) == 3
    assert (out_dir / "failures.csv").read_text().splitlines()[0].startswith("recommender")
    assert json.loads((out_dir / "config.json").read_text())["seed"] == 11


# Each command's own required options, besides the catalog files.
CATALOG_COMMANDS = {
    "explore": ["--seed-id", "x", "--depth", "1", "--width", "1"],
    "recommend": ["--seed-id", "x", "-N", "1", "--depth", "1", "--width", "1",
                  "--cache-file", "c.txt"],
    "optimize": ["--method", "top", "--capacity", "1", "--manifest-out", "m.txt"],
    "eval-iv": ["--width", "1"],
}


@pytest.mark.parametrize("command", CATALOG_COMMANDS)
def test_catalog_commands_read_files_only(capsys, command):
    argv = [command, *CATALOG_COMMANDS[command]]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "the following arguments are required: --related-file" in capsys.readouterr().err
    for option in ("--synthetic-size", "--synthetic-out-degree", "--synthetic-overlap",
                   "--catalog-seed", "--w-max"):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--related-file", "rel.jsonl", option, "1"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def test_missing_catalog_source_errors(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["explore", "--seed-id", "x", "--depth", "1", "--width", "1"])
    assert exit_info.value.code == 2
    assert "--related-file" in capsys.readouterr().err


NOT_UTF8 = b'{"id":"s","related":["\xff"]}\n'


def _run_config(tmp_path, **over):
    config = {
        "seed": 1, "catalog_kind": "files", "recommender": "baseline",
        "cache_capacity": 1, "demand": "uniform", "session_length": 2, **over,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return ["run", "--config", str(path), "--out", str(tmp_path / "out")]


def _explore(related, popularity=None):
    argv = ["explore", "--related-file", str(related), "--seed-id", "s", "--depth", "1",
            "--width", "1"]
    return argv + (["--popularity-file", str(popularity)] if popularity else [])


def _recommend(related, cache):
    return ["recommend", "--related-file", str(related), "--seed-id", "s", "-N", "2",
            "--depth", "1", "--width", "2", "--cache-file", str(cache)]


def _bad_input(tmp_path, dataset, case):
    """The argv of ``case`` and the path its error must name."""
    related, _ = dataset
    bad = tmp_path / "bad"
    bad.write_bytes(NOT_UTF8)
    if case == "missing config":
        missing = tmp_path / "nonexistent.json"
        return ["run", "--config", str(missing), "--out", str(tmp_path / "out")], missing
    if case == "config":
        return ["run", "--config", str(bad), "--out", str(tmp_path / "out")], bad
    if case == "run related":
        return _run_config(tmp_path, catalog_related_file=str(bad)), bad
    if case == "run popularity":
        argv = _run_config(
            tmp_path, catalog_related_file=str(related), catalog_popularity_file=str(bad)
        )
        return argv, bad
    if case == "explore related":
        return _explore(bad), bad
    if case == "explore popularity":
        return _explore(related, bad), bad
    if case == "cache file":
        return _recommend(related, bad), bad
    return _recommend(related, tmp_path), tmp_path


@pytest.mark.parametrize("case", [
    "missing config", "config", "run related", "run popularity", "explore related",
    "explore popularity", "cache file", "cache file is a directory",
])
def test_bad_input_file_names_its_path(dataset, tmp_path, capsys, case):
    argv, path = _bad_input(tmp_path, dataset, case)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(path) in err
