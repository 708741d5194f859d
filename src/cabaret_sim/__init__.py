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
from .demand import (
    PositionDistribution,
    Session,
    TransitionTable,
    exact_hit_rates,
    position_probs,
    run_session,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    load_config,
    run_experiment,
)
from .explore import BfsParams, ExplorationList, bfs
from .metrics import ChrReport, OverlapReport, chr_sequential, eval_iv
from .placement import (
    ObjectiveSpec,
    PlacementResult,
    exact_placement,
    greedy_placement,
    objective,
    top_placement,
)
from .recommend import (
    CacheManifest,
    RecommendationList,
    baseline_recommender,
    recommend,
    reordered_recommender,
)
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
    "RecommendationList",
    "RelationOracle",
    "Session",
    "TransitionTable",
    "__version__",
    "baseline_recommender",
    "bfs",
    "chr_sequential",
    "eval_iv",
    "exact_hit_rates",
    "exact_placement",
    "generate_synthetic",
    "greedy_placement",
    "load_config",
    "load_dataset",
    "objective",
    "position_probs",
    "recommend",
    "reordered_recommender",
    "run_experiment",
    "run_session",
    "save_dataset",
    "top_placement",
    "top_popular",
]
