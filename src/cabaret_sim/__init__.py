"""Cache-aware recommendation and edge-cache placement simulator."""

from .catalog import (
    Catalog,
    ContentId,
    PopularityRegion,
    RelationOracle,
    load_dataset,
    save_dataset,
    top_popular,
)
from .demand import PositionDistribution, TransitionTable, position_probs
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    load_config,
    run_experiment,
)
from .explore import BfsParams, ExplorationList, bfs
from .metrics import ChrReport, OverlapReport, eval_iv
from .placement import (
    ObjectiveSpec,
    PlacementResult,
    exact_placement,
    greedy_placement,
    objective,
    top_placement,
)
from .recommend import CacheManifest
from .synthetic import generate_synthetic
from .version import __version__

__all__ = [
    "BfsParams",
    "CacheManifest",
    "Catalog",
    "ChrReport",
    "ContentId",
    "ExperimentConfig",
    "ExperimentResult",
    "ExplorationList",
    "ObjectiveSpec",
    "OverlapReport",
    "PlacementResult",
    "PopularityRegion",
    "PositionDistribution",
    "RelationOracle",
    "TransitionTable",
    "__version__",
    "bfs",
    "eval_iv",
    "exact_placement",
    "generate_synthetic",
    "greedy_placement",
    "load_config",
    "load_dataset",
    "objective",
    "position_probs",
    "run_experiment",
    "save_dataset",
    "top_placement",
    "top_popular",
]
