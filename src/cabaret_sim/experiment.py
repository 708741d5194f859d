"""Experiment orchestration: config parsing, scenario sweeps, CSV output.

A configuration is a flat JSON object.  Its keys are the fields of
:class:`ExperimentConfig`: each field declares its key's type, default,
allowed range and meaning once, and a catalog key's field the catalog
kind that reads it and whether that kind requires it.  :data:`SCHEMA`
reads those rows to drive parsing, validation, defaults, the CLI's shared
defaults and the ``config.json`` echo.  Sweep keys (``recommender``,
``cache_capacity``, ``demand``, ``session_length``) may hold either a
scalar or a non-empty array; the experiment runs one scenario cell per
element of their cross product, in that key order.  All other keys are
scalars.  A key that only the other catalog kind reads (``catalog_size``
in a ``files`` config, say) is rejected, and the one rule across keys is
``catalog_size > catalog_out_degree``.  The fixed columns of
``results.csv`` and ``failures.csv`` are declared once as well, each with
the type :func:`read_results_csv` parses; result rows, failure rows and
the reader all follow that declaration.

Each demand's caches are prefixes of one selection order: the popularity
ranking under ``top``, and under ``greedy`` the picks of one solve at the
largest capacity.  ``exact`` optima are not nested, so it solves each
capacity.  Every solve reads the front page's explorations, built once,
and every order is solved before the first cell; a solve that raises
fails each cell that needs its order.  The runner keeps one
:class:`~cabaret_sim.recommend.CandidateStore` per run, with one
:class:`~cabaret_sim.recommend.CacheIndex` over the union of every cache
the run places, and a cabaret table reads its cache's rows from it as a
set.  The store explores each content's head once per run, and
``ObjectiveSpec.build`` the front page once, both through this module's
``bfs`` name, so whatever it is bound to sees every exploration.

Every table of a run numbers its states with one shared
:class:`~cabaret_sim.recommend.StateNumbers`.  The provider's own table,
the baseline list of each content under an empty cache, is built once
per run by :func:`~cabaret_sim.recommend.baseline_recommender`, in
sorted-id order; baseline and reordered tables derive every cache's rows
from it (:func:`~cabaret_sim.recommend.provider_rows`).  No list is built
per cache, and every row is built in :mod:`cabaret_sim.recommend`.

``auto`` evaluates two-request cells exactly (over all starting contents)
and samples longer sessions; ``exact`` propagates the watched-content
distribution exactly for every cell, which makes reruns and
cross-recommender comparisons noise-free.  Both read one
:class:`~cabaret_sim.demand.TransitionTable` per recommender and cached
set, under the cell's demand law, so cells whose caches hold the same
contents share their rows and each list is built once; cells differing
only in session length also share, in exact mode, their per-step rates.
A sampled cell walks all its sessions together and reads ``chr``, the
per-step rates and ``chr_se`` from their matrix of hit flags, through
:meth:`~cabaret_sim.metrics.ChrReport.from_hits`.

Each cell's RNG seed is ``sha256("<seed>|recommender=<r>|capacity=<c>|``
``demand=<d>|k=<k>")``, first 8 bytes big-endian, so adding sweep values
never perturbs existing cells.  Reruns of the same config produce
byte-identical ``results.csv``.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from .catalog import Catalog, PopularityRegion, RelationOracle, load_dataset, top_popular
from .csvio import write_csv
from .demand import (
    TransitionTable,
    exact_hit_rates,  # noqa: F401  (kept bound for bench/tracing.py)
    position_probs,
    run_session,  # noqa: F401  (kept bound for bench/tracing.py)
)
from .errors import ConfigError, utf8_errors
from .explore import BfsParams, bfs
from .metrics import ChrReport, chr_sequential  # noqa: F401  (kept bound for bench/tracing.py)
from .placement import ObjectiveSpec, exact_placement, greedy_placement
from .recommend import (
    CacheManifest,
    CandidateStore,
    StateNumbers,
    baseline_recommender,
    provider_rows,
    reordered_recommender,  # noqa: F401  (kept bound for bench/tracing.py)
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


REQUIRED = object()  # default of a key every config must set


@dataclass(frozen=True)
class ConfigKey:
    """One row of the config schema, read from an :class:`ExperimentConfig` field.

    ``kind`` is ``int``, ``float`` (which takes ints too) or ``str``; a bool
    is never a number.  ``low`` and ``high`` bound numbers inclusively,
    ``choices`` restricts strings and ``check(name, value)`` validates
    further.  A key whose default is ``None`` is optional, reads ``null``
    as unset, and is left out of the ``config.json`` echo while unset.
    ``catalog`` names the one catalog kind that reads the key: a config of
    the other kind must leave it unset, and one of that kind must set it
    when ``needed``.  ``field`` names the config field, which differs from
    the key only for the four sweeps.
    """

    name: str
    field: str
    kind: type
    default: Any
    doc: str
    low: float | None = None
    high: float | None = None
    choices: tuple[str, ...] = ()
    check: Callable[[str, Any], Any] | None = None
    sweep: bool = False
    catalog: str | None = None
    needed: bool = False

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
            self.check(self.name, value)
        return value


def _key(kind: type, default: Any, doc: str, **row: Any) -> Any:
    """A config field whose metadata is its schema row (``name`` defaults to the field's)."""
    return field(metadata={"kind": kind, "default": default, "doc": doc, **row})


def _is_file(name: str, path: str) -> None:
    if not Path(path).is_file():
        raise ConfigError(f"{name} does not exist: {path}")


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
    catalog_size: int | None = _key(
        int, None, "number of contents", low=1, catalog="synthetic", needed=True
    )
    catalog_out_degree: int | None = _key(
        int, None, "related-list length", low=1, catalog="synthetic", needed=True
    )
    catalog_overlap: float | None = _key(
        float, None, "depth-overlap target", low=0, high=1, catalog="synthetic", needed=True
    )
    catalog_seed: int | None = _key(
        int, None, "generator seed (derived from seed when unset)", low=0, catalog="synthetic"
    )
    catalog_related_file: str | None = _key(
        str, None, "JSON-lines related lists path", check=_is_file, catalog="files", needed=True
    )
    catalog_popularity_file: str | None = _key(
        str, None, "id,weight CSV path", check=_is_file, catalog="files"
    )
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
        check=lambda _, label: parse_demand(label), sweep=True, name="demand",
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


def _parse_key(key: ConfigKey, raw: Mapping[str, Any], catalog: str | None) -> Any:
    """``key``'s value in ``raw``, in a config of catalog kind ``catalog``."""
    value = raw.get(key.name)
    unset = key.name not in raw or (value is None and key.default is None)
    if key.catalog not in (None, catalog):
        if not unset:
            raise ConfigError(
                f"{key.name} is a {key.catalog} catalog key, but catalog_kind is {catalog!r}"
            )
        return None
    if unset:
        if key.default is REQUIRED:
            raise ConfigError(f"config must set {key.name!r}")
        if key.needed:
            raise ConfigError(f"{catalog} catalog requires {key.name!r}")
        return key.default
    if not key.sweep:
        return key.validate(value)
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ConfigError(f"sweep {key.name!r} must be non-empty")
    swept = tuple(key.validate(v) for v in values)
    for i, v in enumerate(swept):
        if v in swept[:i]:
            raise ConfigError(f"sweep {key.name!r} repeats {v!r}")
    return swept


def config_from_mapping(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a flat config mapping and normalize sweeps to tuples."""
    unknown = set(raw) - {key.name for key in SCHEMA}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values: dict[str, Any] = {}
    for key in SCHEMA:
        # catalog_kind's row comes before every row of one kind.
        values[key.field] = _parse_key(key, raw, values.get("catalog_kind"))
    config = ExperimentConfig(**values)
    if config.catalog_kind == "synthetic" and config.catalog_size <= config.catalog_out_degree:
        raise ConfigError(
            f"catalog_size ({config.catalog_size}) must exceed "
            f"catalog_out_degree ({config.catalog_out_degree})"
        )
    return config


def load_config(path: str) -> ExperimentConfig:
    """Load and validate a flat JSON config file."""
    try:
        with open(path, encoding="utf-8") as handle, utf8_errors(path, ConfigError):
            raw = json.load(handle, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_mapping(raw)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's mapping; a repeated key, which json would keep the last of, raises."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats key {key!r}")
        obj[key] = value
    return obj


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
        self.oracle = RelationOracle(self.catalog)
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
        self.dists = {
            d: position_probs(*parse_demand(d), config.list_size) for d in config.demands
        }
        # Every table of the run numbers states alike, so baseline and
        # reordered rows are the provider's rows, flagged per cache.
        # The row source closes over the oracle, not the runner, so that no
        # cycle keeps a finished run alive until the cycle collector runs.
        self.states = StateNumbers()
        n, no_cache, oracle = config.list_size, CacheManifest(frozenset(), 1), self.oracle
        self.provider = TransitionTable.from_recommender(
            self.front_page,
            lambda v: baseline_recommender(v, n, oracle, no_cache),
            n,
            self.states,
        )
        # A cache is order[:capacity]: greedy solves once per demand, at the
        # largest capacity, and exact once per capacity and demand.  Every
        # order is solved before the first cell, so that the candidate store
        # indexes every cache.  A solve that raises keeps its exception, and
        # each cell that needs the order raises a copy of it: a kept
        # traceback would hold the runner's frames.  The first solve
        # builds the front page's objective spec, every solve re-prices it
        # under its demand, and it is dropped once every order is solved.
        self._orders: dict[tuple[int, str], tuple[str, ...] | Exception] = {}
        self._spec: ObjectiveSpec | None = None
        for capacity in config.capacities:
            solved_at = self._solved_at(capacity)
            for demand in config.demands:
                if (solved_at, demand) not in self._orders:
                    self._orders[solved_at, demand] = self._solve(solved_at, demand)
        self._spec = None
        members = frozenset().union(*(
            order[:solved_at]
            for (solved_at, _), order in self._orders.items()
            if not isinstance(order, Exception)
        ))
        self.store = CandidateStore(
            members, self.oracle, self.params, config.list_size, self.states, explore=bfs
        )
        # Rows depend only on the cached set, so one table serves every demand
        # whose cache it is.  Those cells are adjacent in sweep order (demand
        # and K vary fastest): keep the latest, keyed by kind and cached set.
        self._table: tuple[tuple[str, frozenset[str]], TransitionTable] | None = None

    def _solved_at(self, capacity: int) -> int:
        """The capacity whose solve places the cache of ``capacity``."""
        if self.config.cache_policy == "exact":
            return capacity
        return max(self.config.capacities)

    def _solve(self, capacity: int, demand: str) -> tuple[str, ...] | Exception:
        """The order of ``capacity`` contents placed under ``demand``, or what its solve raised."""
        policy = self.config.cache_policy
        if policy == "top":
            return self.ranking
        try:
            dist = self.dists[demand]
            if self._spec is None:
                self._spec = ObjectiveSpec.build(
                    self.front_page.ids, self.config.list_size, dist, self.params, self.oracle, bfs
                )
            solve = greedy_placement if policy == "greedy" else exact_placement
            return solve(self._spec.under(dist), capacity).chosen
        except Exception as exc:
            return exc.with_traceback(None)

    def placement(self, capacity: int, demand: str) -> CacheManifest:
        """The first ``capacity`` contents of ``demand``'s selection order."""
        order = self._orders[self._solved_at(capacity), demand]
        if isinstance(order, Exception):
            raise copy.copy(order)
        return CacheManifest.from_ids(order[:capacity], capacity)

    def table(self, kind: str, capacity: int, demand: str) -> TransitionTable:
        """The transition table of one recommender and the cache ``demand`` places."""
        cached = self.placement(capacity, demand).ids
        key = (kind, cached)
        if self._table is None or self._table[0] != key:
            if kind == "cabaret":
                rows = self.store.rows(cached)
            else:
                rows = provider_rows(kind, cached, self.provider.rows, self.states)
            table = TransitionTable(self.front_page, rows, self.config.list_size, self.states)
            self._table = (key, table)
        return self._table[1]

    def evaluate(self, cell: CellSpec) -> dict[str, Any]:
        config = self.config
        table = self.table(cell.recommender, cell.capacity, cell.demand)
        dist = self.dists[cell.demand]
        length = cell.session_length
        if config.evaluator == "exact" or (config.evaluator == "auto" and length == 2):
            report = ChrReport.from_exact(table.hit_rates(dist, length), length)
        else:
            rng = np.random.Generator(np.random.PCG64(derive_cell_seed(config.seed, cell)))
            report = ChrReport.from_hits(table.sample(dist, length, config.sessions, rng))
        row = _row(
            _RESULT_COLUMNS, config, cell, report.mode, report.sessions, report.chr, report.se
        )
        row.update((_PER_STEP.format(k), rate) for k, rate in report.per_step_rows())
        return row


#: The fixed columns of ``results.csv``, each with the type
#: :func:`read_results_csv` parses: the cell's coordinates, which
#: ``failures.csv`` leads with too, then its hit ratio.  One float column
#: per step 2..K of the longest session follows them.
_CELL_COLUMNS = dict(recommender=str, cache_policy=str, cache_capacity=int, demand=str, k=int)
_RESULT_COLUMNS = dict(_CELL_COLUMNS, evaluator=str, sessions=int, chr=float, chr_se=float)
_PER_STEP = "hit_rate_k{}"
FAILURE_COLUMNS = [*_CELL_COLUMNS, "error", "message"]


def _row(
    columns: Iterable[str], config: ExperimentConfig, cell: CellSpec, *values: Any
) -> dict[str, Any]:
    """The row of ``columns``: ``cell``'s coordinates, then ``values``."""
    coordinates = (
        cell.recommender, config.cache_policy, cell.capacity, cell.demand, cell.session_length
    )
    return dict(zip(columns, (*coordinates, *values), strict=True))


def results_columns(config: ExperimentConfig) -> list[str]:
    return [*_RESULT_COLUMNS, *map(_PER_STEP.format, range(2, max(config.session_lengths) + 1))]


def _write_csv(path: Path, columns: list[str], rows: list[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_csv(handle, columns, ([row.get(col) for col in columns] for row in rows))


def read_results_csv(path: str | Path) -> list[dict[str, Any]]:
    """Load a ``results.csv`` back into typed row mappings (lossless)."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        columns = next(reader)
        # A column that is not declared is a per-step rate.
        kinds = [_RESULT_COLUMNS.get(col, float) for col in columns]
        return [
            {col: kind(field) for col, kind, field in zip(columns, kinds, record) if field}
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
            message = str(exc).replace("\n", " ")
            failures.append(_row(FAILURE_COLUMNS, config, cell, type(exc).__name__, message))
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
