from __future__ import annotations

import csv
import io
import json

import pytest

from cabaret_sim.catalog import load_dataset
from cabaret_sim.cli import build_parser, main
from cabaret_sim.experiment import SCHEMA
from cabaret_sim.synthetic import generate_synthetic
from cabaret_sim.version import __version__


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
        ["optimize", "--method", "top", "--capacity", "1", "--manifest-out", "m.txt"]
    )
    assert (args.w_max, args.count, args.depth, args.width, args.front_page) == (
        default["w_max"], default["list_size"], default["bfs_depth"],
        default["bfs_width"], default["front_page_size"],
    )


def test_generate_matches_api(tmp_path):
    related = tmp_path / "rel.jsonl"
    weights = tmp_path / "pop.csv"
    code = main(
        [
            "generate",
            "--size", "300",
            "--out-degree", "10",
            "--overlap", "0.8",
            "--seed", "5",
            "--related-out", str(related),
            "--popularity-out", str(weights),
        ]
    )
    assert code == 0
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
    manifest = tmp_path / "cache.txt"
    trajectory = tmp_path / "traj.csv"
    code = main(
        [
            "optimize",
            "--synthetic-size", "300",
            "--synthetic-out-degree", "10",
            "--synthetic-overlap", "0.8",
            "--catalog-seed", "5",
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


def test_eval_iv_outputs(tmp_path, capsys):
    code = main(
        [
            "eval-iv",
            "--synthetic-size", "1000",
            "--synthetic-out-degree", "50",
            "--synthetic-overlap", "0.9",
            "--catalog-seed", "7",
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


def test_missing_catalog_source_errors(capsys):
    code = main(["explore", "--seed-id", "x", "--depth", "1", "--width", "1"])
    assert code == 1
    assert "related-file" in capsys.readouterr().err


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
