"""Experiment orchestration: config parsing, scenario sweeps, CSV output.

A configuration is a flat JSON object.  Its keys are the fields of
:class:`ExperimentConfig`: each field declares its key's type, default,
allowed range and meaning once, and :data:`SCHEMA` reads those rows to
drive parsing, validation, defaults, the CLI's shared defaults and the
``config.json`` echo.  Sweep keys (``recommender``, ``cache_capacity``,
``demand``, ``session_length``) may hold either a scalar or a non-empty
array; the experiment runs one scenario cell per element of their cross
product, in that key order.  All other keys are scalars.  A key that only
the other catalog kind reads (``catalog_size`` in a ``files`` config, say)
is rejected.

Each demand's caches are prefixes of one selection order: the popularity
ranking under ``top``, and under ``greedy`` the picks of one solve at the
largest capacity.  ``exact`` optima are not nested, so it solves each
capacity.  Every solve reads the front page's explorations, built once.

``auto`` evaluates two-request cells exactly (over all starting contents)
and samples longer sessions; ``exact`` propagates the watched-content
distribution exactly for every cell, which makes reruns and
cross-recommender comparisons noise-free.  Both read one
:class:`~cabaret_sim.demand.TransitionTable` per recommender and cached
set, under the cell's demand law, so cells whose caches hold the same
contents share their rows and each list is built once; cells differing
only in session length also share, in exact mode, their per-step rates.
A sampled cell walks all its sessions together and reads ``chr``, the
per-step rates and ``chr_se`` from their matrix of hit flags.

Each cell's RNG seed is ``sha256("<seed>|recommender=<r>|capacity=<c>|``
``demand=<d>|k=<k>")``, first 8 bytes big-endian, so adding sweep values
never perturbs existing cells.  Reruns of the same config produce
byte-identical ``results.csv``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .catalog import (
    DEFAULT_W_MAX, Catalog, PopularityRegion, RelationOracle, load_dataset, top_popular,
)
from .csvio import write_csv
from .demand import (
    PositionDistribution,
    Recommender,
    TransitionTable,
    exact_hit_rates,  # noqa: F401  (kept bound for bench/tracing.py)
    position_probs,
    run_session,  # noqa: F401  (kept bound for bench/tracing.py)
)
from .errors import ConfigError, utf8_errors
from .explore import BfsParams, ExplorationList, bfs
from .metrics import ChrReport, chr_sequential  # noqa: F401  (kept bound for bench/tracing.py)
from .placement import ObjectiveSpec, exact_placement, greedy_placement
from .recommend import (
    CacheIndex,
    CacheManifest,
    baseline_recommender,
    cabaret_list,
    reordered_recommender,
    select_from_exploration,  # noqa: F401  (kept bound for bench/tracing.py)
)
from .synthetic import generate_synthetic
from .version import __version__

RECOMMENDER_KINDS = ("baseline", "reordered", "cabaret")
CACHE_POLICIES = ("top", "greedy", "exact")
EVALUATORS = ("auto", "sampled", "exact")


def parse_demand(label: str) -> tuple[str, float]:
    """Split a demand label into (kind, alpha); raises on malformed labels."""
    if label == "uniform":
        return "uniform", 0.0
    kind, _, alpha_text = label.partition(":")
    if kind == "zipf":
        try:
            alpha = float(alpha_text)
        except ValueError:
            alpha = math.nan
        if math.isfinite(alpha) and alpha >= 0:
            return "zipf", alpha
    raise ConfigError(
        f"invalid demand {label!r} (use 'uniform' or 'zipf:<alpha>' "
        "with a finite alpha >= 0)"
    )


def _demand_dist(label: str, list_size: int) -> PositionDistribution:
    kind, alpha = parse_demand(label)
    return position_probs(kind, alpha, list_size)


REQUIRED = object()  # default of a key every config must set


@dataclass(frozen=True)
class ConfigKey:
    """One row of the config schema, read from an :class:`ExperimentConfig` field.

    ``kind`` is ``int``, ``float`` (which takes ints too) or ``str``; a bool
    is never a number.  ``low`` and ``high`` bound numbers inclusively,
    ``choices`` restricts strings and ``check`` validates further.  A key
    whose default is ``None`` is optional and is left out of the
    ``config.json`` echo while unset.  ``field`` names the config field,
    which differs from the key only for the four sweeps.
    """

    name: str
    field: str
    kind: type
    default: Any
    doc: str
    low: float | None = None
    high: float | None = None
    choices: tuple[str, ...] = ()
    check: Callable[[Any], Any] | None = None
    sweep: bool = False

    def describe(self) -> str:
        if self.choices:
            return "one of " + ", ".join(repr(c) for c in self.choices)
        if self.kind is str:
            return "a string"
        what = "an integer" if self.kind is int else "a finite number"
        if self.high is not None:
            return f"{what} in [{self.low}, {self.high}]"
        return what if self.low is None else f"{what} >= {self.low}"

    def validate(self, value: Any) -> Any:
        """``value`` itself when it fits this key; raises ConfigError otherwise."""
        if self.kind is str:
            ok = isinstance(value, str) and (not self.choices or value in self.choices)
        else:
            ok = (
                isinstance(value, (int, float) if self.kind is float else int)
                and not isinstance(value, bool)
                and (self.low is None or value >= self.low)
                and (self.high is None or value <= self.high)
                and (isinstance(value, int) or math.isfinite(value))
            )
        if not ok:
            raise ConfigError(f"{self.name} must be {self.describe()}, got {value!r}")
        if self.check is not None:
            self.check(value)
        return value


def _key(kind: type, default: Any, doc: str, **row: Any) -> Any:
    """A config field whose metadata is its schema row (``name`` defaults to the field's)."""
    return field(metadata={"kind": kind, "default": default, "doc": doc, **row})


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized experiment configuration.

    Each field declares one config key, in canonical order, and
    :data:`SCHEMA` reads its rows from them.  Build a config with
    :func:`config_from_mapping`, which fills the defaults.
    """

    seed: int = _key(int, REQUIRED, "master RNG seed")
    catalog_kind: str = _key(
        str, "synthetic", "generate the catalog or load it from files",
        choices=("synthetic", "files"),
    )
    catalog_size: int | None = _key(int, None, "synthetic: number of contents", low=1)
    catalog_out_degree: int | None = _key(int, None, "synthetic: related-list length", low=1)
    catalog_overlap: float | None = _key(
        float, None, "synthetic: depth-overlap target", low=0, high=1
    )
    catalog_seed: int | None = _key(
        int, None, "synthetic: generator seed (derived from seed when unset)", low=0
    )
    catalog_related_file: str | None = _key(str, None, "files: JSON-lines related lists path")
    catalog_popularity_file: str | None = _key(
        str, None, "files: id,weight CSV path (optional)"
    )
    w_max: int = _key(int, DEFAULT_W_MAX, "per-query related-list cap", low=1)
    front_page_size: int = _key(int, 50, "entry-page size", low=1)
    recommenders: tuple[str, ...] = _key(
        str, REQUIRED, "recommenders to compare",
        choices=RECOMMENDER_KINDS, sweep=True, name="recommender",
    )
    bfs_depth: int = _key(int, 2, "exploration depth", low=1)
    bfs_width: int = _key(int, 50, "exploration width", low=1)
    list_size: int = _key(int, 20, "recommendation-list length N", low=1)
    cache_policy: str = _key(str, "top", "cache placement policy", choices=CACHE_POLICIES)
    capacities: tuple[int, ...] = _key(
        int, REQUIRED, "cache sizes", low=1, sweep=True, name="cache_capacity"
    )
    demands: tuple[str, ...] = _key(
        str, REQUIRED, "position bias: 'uniform' or 'zipf:<alpha>'",
        check=parse_demand, sweep=True, name="demand",
    )
    session_lengths: tuple[int, ...] = _key(
        int, REQUIRED, "requests per session K", low=2, sweep=True, name="session_length"
    )
    sessions: int = _key(int, 1000, "Monte-Carlo sessions M per sampled cell", low=1)
    evaluator: str = _key(str, "auto", "how cells are evaluated", choices=EVALUATORS)

    def to_mapping(self) -> dict[str, Any]:
        """The flat JSON form of this config (sweeps as arrays, unset keys left out)."""
        out: dict[str, Any] = {}
        for key in SCHEMA:
            value = getattr(self, key.field)
            if value is not None:
                out[key.name] = list(value) if key.sweep else value
        return out


#: The config keys, in canonical order: one row per :class:`ExperimentConfig` field.
SCHEMA = tuple(
    ConfigKey(**{"name": f.name, **f.metadata, "field": f.name})
    for f in fields(ExperimentConfig)
)

#: Keys that only one catalog kind reads; a config of the other kind rejects them.
_KIND_KEYS = {
    "synthetic": ("catalog_size", "catalog_out_degree", "catalog_overlap", "catalog_seed"),
    "files": ("catalog_related_file", "catalog_popularity_file"),
}


def _parse_key(key: ConfigKey, raw: Mapping[str, Any]) -> Any:
    if key.name not in raw:
        if key.default is REQUIRED:
            raise ConfigError(f"config must set {key.name!r}")
        return key.default
    value = raw[key.name]
    if value is None and key.default is None:
        return None
    if not key.sweep:
        return key.validate(value)
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ConfigError(f"sweep {key.name!r} must be non-empty")
    return tuple(key.validate(v) for v in values)


def config_from_mapping(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a flat config mapping and normalize sweeps to tuples."""
    unknown = set(raw) - {key.name for key in SCHEMA}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {key.field: _parse_key(key, raw) for key in SCHEMA}
    if values["catalog_kind"] == "synthetic":
        for name in ("catalog_size", "catalog_out_degree", "catalog_overlap"):
            if values[name] is None:
                raise ConfigError(f"synthetic catalog requires {name!r}")
        if values["catalog_size"] <= values["catalog_out_degree"]:
            raise ConfigError(
                f"catalog_size ({values['catalog_size']}) must exceed "
                f"catalog_out_degree ({values['catalog_out_degree']})"
            )
    else:
        if values["catalog_related_file"] is None:
            raise ConfigError("files catalog requires 'catalog_related_file'")
        for name in ("catalog_related_file", "catalog_popularity_file"):
            path = values[name]
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{name} does not exist: {path}")
    for kind, names in _KIND_KEYS.items():
        for name in names:
            if kind != values["catalog_kind"] and values[name] is not None:
                raise ConfigError(
                    f"{name} is a {kind} catalog key, but catalog_kind is "
                    f"{values['catalog_kind']!r}"
                )
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    """Load and validate a flat JSON config file."""
    try:
        with open(path, encoding="utf-8") as handle, utf8_errors(path, ConfigError):
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_mapping(raw)


@dataclass(frozen=True)
class CellSpec:
    """Coordinates of one scenario cell."""

    recommender: str
    capacity: int
    demand: str
    session_length: int


def iter_cells(config: ExperimentConfig) -> list[CellSpec]:
    """All scenario cells in canonical sweep order."""
    return [
        CellSpec(r, c, d, k)
        for r in config.recommenders
        for c in config.capacities
        for d in config.demands
        for k in config.session_lengths
    ]


def derive_cell_seed(master: int, cell: CellSpec) -> int:
    """Stable per-cell seed: sha256 over master seed and cell coordinates."""
    key = (
        f"{master}|recommender={cell.recommender}|capacity={cell.capacity}"
        f"|demand={cell.demand}|k={cell.session_length}"
    )
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def derive_catalog_seed(master: int) -> int:
    key = f"{master}|catalog"
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def build_catalog(config: ExperimentConfig) -> Catalog:
    if config.catalog_kind == "synthetic":
        seed = config.catalog_seed
        if seed is None:
            seed = derive_catalog_seed(config.seed)
        return generate_synthetic(
            config.catalog_size, config.catalog_out_degree, config.catalog_overlap, seed
        )
    return load_dataset(config.catalog_related_file, config.catalog_popularity_file)


@dataclass
class ExperimentResult:
    """All scenario rows plus run metadata.

    ``rows`` holds one mapping per successful cell in canonical sweep
    order; ``failures`` one mapping per aborted cell.  Timing lives here
    and never in ``results.csv`` so reruns stay byte-identical.
    """

    rows: list[dict[str, Any]]
    failures: list[dict[str, Any]]
    config: ExperimentConfig
    version: str
    wall_clock: float


class _Runner:
    """Shared immutable state for evaluating scenario cells."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.catalog = build_catalog(config)
        self.oracle = RelationOracle(self.catalog, config.w_max)
        self.params = BfsParams(config.bfs_depth, config.bfs_width)
        # One popularity ranking serves the front page and every top placement.
        ranked = config.front_page_size
        if config.cache_policy == "top":
            ranked = max(ranked, *config.capacities)
        self.ranking = top_popular(self.catalog, ranked).ids
        self.front_page = PopularityRegion(
            self.ranking[: config.front_page_size],
            truncated=config.front_page_size > len(self.catalog),
        )
        self._heads: dict[str, ExplorationList] = {}
        self._explored: dict[str, frozenset[str]] = {}
        # A cache is order[:capacity]: greedy solves once per demand, at the
        # largest capacity, and exact once per capacity and demand.
        self._orders: dict[tuple[int, str], tuple[str, ...]] = {}
        self.dists = {d: _demand_dist(d, config.list_size) for d in config.demands}
        # Rows depend only on the cached set, so one table serves every demand
        # whose cache it is.  Those cells are adjacent in sweep order (demand
        # and K vary fastest): keep the latest, keyed by kind and cached set.
        self._table: tuple[tuple[str, frozenset[str]], TransitionTable] | None = None

    def head(self, content: str) -> ExplorationList:
        """The exploration around ``content`` but its last level, shared by every cache."""
        head = self._heads.get(content)
        if head is None:
            head = ExplorationList(content, (), ())
            depth, width = self.params.depth, self.params.width
            if depth > 1:
                head = bfs(content, BfsParams(depth - 1, width), self.oracle)
            self._heads[content] = head
        return head

    def placement(self, capacity: int, demand: str) -> CacheManifest:
        """The first ``capacity`` contents of ``demand``'s selection order."""
        policy = self.config.cache_policy
        size = max(self.config.capacities) if policy == "greedy" else capacity
        order = self.ranking if policy == "top" else self._orders.get((size, demand))
        if order is None:
            front = self.front_page.ids
            if not self._explored:
                self._explored = {
                    v: frozenset(bfs(v, self.params, self.oracle).entries) for v in front
                }
            n, dist = self.config.list_size, self.dists[demand]
            spec = ObjectiveSpec(front, [1.0] * len(front), n, dist, self._explored)
            solve = greedy_placement if policy == "greedy" else exact_placement
            order = self._orders[size, demand] = solve(spec, size).chosen
        return CacheManifest.from_ids(order[:capacity], capacity)

    def recommender(self, kind: str, capacity: int, demand: str) -> Recommender:
        cache = self.placement(capacity, demand)
        n = self.config.list_size
        if kind == "cabaret":
            index = CacheIndex(cache, self.oracle, self.params.width)
            depth = self.params.depth

            def rec(v: str) -> Any:
                return cabaret_list(self.head(v), depth, n, index)
        elif kind == "baseline":
            def rec(v: str) -> Any:
                return baseline_recommender(v, n, self.oracle, cache)
        else:
            def rec(v: str) -> Any:
                return reordered_recommender(v, n, cache, self.oracle)
        return rec

    def table(self, kind: str, capacity: int, demand: str) -> TransitionTable:
        """The transition table of one recommender and the cache ``demand`` places."""
        key = (kind, self.placement(capacity, demand).ids)
        if self._table is None or self._table[0] != key:
            rec = self.recommender(kind, capacity, demand)
            self._table = (key, TransitionTable(self.front_page, rec, self.config.list_size))
        return self._table[1]

    def evaluate(self, cell: CellSpec) -> dict[str, Any]:
        config = self.config
        table = self.table(cell.recommender, cell.capacity, cell.demand)
        dist = self.dists[cell.demand]
        exact = config.evaluator == "exact" or (
            config.evaluator == "auto" and cell.session_length == 2
        )
        se = None
        if exact:
            rates = table.hit_rates(dist, cell.session_length)
            report = ChrReport.from_exact(rates, cell.session_length)
        else:
            rng = np.random.Generator(np.random.PCG64(derive_cell_seed(config.seed, cell)))
            hits = table.sample(dist, cell.session_length, config.sessions, rng)
            report = ChrReport.from_hits(hits)
            # One sample leaves the standard error undefined: the field stays blank.
            if config.sessions > 1:
                means = hits.sum(axis=1) / (cell.session_length - 1)
                # np.std of equal means need not round to exactly 0.
                spread = means.min() < means.max()
                se = float(np.std(means, ddof=1) / np.sqrt(config.sessions)) if spread else 0.0
        row: dict[str, Any] = {
            **_coordinates(config, cell),
            "evaluator": report.mode,
            "sessions": report.sessions,
            "chr": report.chr,
            "chr_se": se,
        }
        for k, rate in report.per_step_rows():
            row[f"hit_rate_k{k}"] = rate
        return row


_CELL_COLUMNS = ("recommender", "cache_policy", "cache_capacity", "demand", "k")
FAILURE_COLUMNS = [*_CELL_COLUMNS, "error", "message"]


def _coordinates(config: ExperimentConfig, cell: CellSpec) -> dict[str, Any]:
    """The leading columns shared by result and failure rows."""
    return {
        "recommender": cell.recommender,
        "cache_policy": config.cache_policy,
        "cache_capacity": cell.capacity,
        "demand": cell.demand,
        "k": cell.session_length,
    }


def results_columns(config: ExperimentConfig) -> list[str]:
    max_k = max(config.session_lengths)
    return [
        *_CELL_COLUMNS,
        "evaluator",
        "sessions",
        "chr",
        "chr_se",
        *(f"hit_rate_k{k}" for k in range(2, max_k + 1)),
    ]


def _write_csv(path: Path, columns: list[str], rows: list[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_csv(handle, columns, ([row.get(col) for col in columns] for row in rows))


_INT_COLUMNS = {"cache_capacity", "k", "sessions"}
_FLOAT_COLUMNS_PREFIX = ("chr", "hit_rate_k")


def _parse_field(column: str, field: str) -> Any:
    if column in _INT_COLUMNS:
        return int(field)
    if column.startswith(_FLOAT_COLUMNS_PREFIX):
        return float(field)
    return field


def read_results_csv(path: str | Path) -> list[dict[str, Any]]:
    """Load a ``results.csv`` back into typed row mappings (lossless)."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        columns = next(reader)
        return [
            {col: _parse_field(col, field) for col, field in zip(columns, record) if field}
            for record in reader
        ]


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> ExperimentResult:
    """Evaluate every scenario cell and optionally persist CSV outputs.

    Cells run in canonical sweep order.  A failing cell, including one
    whose cache placement fails, is recorded in the failures table and
    does not stop the others.
    """
    start = time.perf_counter()
    runner = _Runner(config)
    rows: list[dict[str, Any]] = []
    failures: list[dict[str, Any]] = []
    for cell in iter_cells(config):
        try:
            rows.append(runner.evaluate(cell))
        except Exception as exc:
            failures.append({
                **_coordinates(config, cell),
                "error": type(exc).__name__,
                "message": str(exc).replace("\n", " "),
            })
    result = ExperimentResult(
        rows=rows,
        failures=failures,
        config=config,
        version=__version__,
        wall_clock=time.perf_counter() - start,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "results.csv", results_columns(config), rows)
        _write_csv(out / "failures.csv", FAILURE_COLUMNS, failures)
        (out / "config.json").write_text(
            json.dumps(config.to_mapping(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
            newline="\n",
        )
    return result
