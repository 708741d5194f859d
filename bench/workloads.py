"""The benchmark's workloads and the 100k-content input files.

Each workload is one ``run_experiment`` config.  The workload seed is the
config's master seed, so it fixes the synthetic catalog (through the
derived catalog seed) and every sampled cell's random stream.  The 100k
run loads files made from the same seed by
``generate_synthetic(100000, 50, 0.92, seed)`` and ``save_dataset``.

Regenerate the 100k files and re-record their sha256 for some seeds with::

    python3 bench/workloads.py --record 1 2 3

which rewrites ``bench/input_hashes.json`` for those seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
HASHES = HERE / "input_hashes.json"

FILES_SIZE = 100_000
FILES_DEGREE = 50
FILES_OVERLAP = 0.92
INPUT_NAMES = ("related.jsonl", "popularity.csv")

README_SWEEP = {
    "catalog_kind": "synthetic",
    "catalog_size": 10_000,
    "catalog_out_degree": 50,
    "catalog_overlap": 0.92,
    "front_page_size": 50,
    "recommender": ["baseline", "reordered", "cabaret"],
    "bfs_depth": 2,
    "bfs_width": 50,
    "list_size": 20,
    "cache_capacity": [1, 5, 10, 20, 50],
    "demand": ["uniform", "zipf:0.5", "zipf:1"],
    "session_length": [2, 5],
    "sessions": 1000,
}

WORKLOADS = {
    "readme-exact-greedy": {**README_SWEEP, "cache_policy": "greedy", "evaluator": "exact"},
    "readme-sampled-top": {**README_SWEEP, "cache_policy": "top", "evaluator": "sampled"},
    "files100k-cabaret": {
        "catalog_kind": "files",
        "front_page_size": 500,
        "recommender": ["cabaret"],
        "bfs_depth": 2,
        "bfs_width": 50,
        "list_size": 20,
        "cache_policy": "top",
        "cache_capacity": [50, 500],
        "demand": ["zipf:1"],
        "session_length": [2, 10],
        "evaluator": "exact",
    },
}


def config_for(workload: str, seed: int, inputs: Path | None) -> dict:
    """The flat ``run_experiment`` config of ``workload`` at ``seed``."""
    config = {"seed": seed, **WORKLOADS[workload]}
    if config["catalog_kind"] == "files":
        config["catalog_related_file"] = str(inputs / INPUT_NAMES[0])
        config["catalog_popularity_file"] = str(inputs / INPUT_NAMES[1])
    return config


def cell_count(workload: str) -> int:
    config = WORKLOADS[workload]
    count = 1
    for key in ("recommender", "cache_capacity", "demand", "session_length"):
        count *= len(config[key])
    return count


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _generate(seed: int, out: Path) -> None:
    """Write the 100k files for ``seed`` into ``out`` from a child process."""
    out.mkdir(parents=True, exist_ok=True)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from cabaret_sim import generate_synthetic, save_dataset;"
        "c = generate_synthetic(int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4]), int(sys.argv[5]));"
        "save_dataset(c, sys.argv[6], sys.argv[7])"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(FILES_SIZE), str(FILES_DEGREE),
         str(FILES_OVERLAP), str(seed), str(out / INPUT_NAMES[0]), str(out / INPUT_NAMES[1])],
        check=True, timeout=150,
    )


def _recorded() -> dict[str, dict[str, str]]:
    return json.loads(HASHES.read_text(encoding="utf-8")) if HASHES.exists() else {}


def ensure_inputs(seed: int) -> tuple[Path, list[str]]:
    """The directory holding the 100k files for ``seed``, and any problems.

    Files are cached under ``.bench_work/inputs/<seed>``; only the latest
    seed is kept.  They are checked against the sha256 recorded in
    ``input_hashes.json`` when the seed is listed there, and otherwise
    against the hash written when they were generated.
    """
    base = WORK / "inputs"
    out = base / str(seed)
    local = out / "sha256.json"
    if not local.exists():
        if base.exists():
            shutil.rmtree(base)
        _generate(seed, out)
        local.write_text(
            json.dumps({name: sha256_of(out / name) for name in INPUT_NAMES}), encoding="utf-8"
        )
    expected = _recorded().get(str(seed)) or json.loads(local.read_text(encoding="utf-8"))
    problems = [
        f"{name}: sha256 differs from the recorded one"
        for name in INPUT_NAMES
        if sha256_of(out / name) != expected[name]
    ]
    return out, problems


def record(seeds: list[int]) -> None:
    """Regenerate the files for ``seeds`` and record their sha256."""
    table = _recorded()
    for seed in seeds:
        out = WORK / "record" / str(seed)
        _generate(seed, out)
        table[str(seed)] = {name: sha256_of(out / name) for name in INPUT_NAMES}
        shutil.rmtree(out)
        print(seed, table[str(seed)], flush=True)
    shutil.rmtree(WORK / "record", ignore_errors=True)
    HASHES.write_text(
        json.dumps(dict(sorted(table.items(), key=lambda kv: int(kv[0]))), indent=1) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", nargs="+", type=int, required=True, metavar="SEED")
    record(parser.parse_args().record)
