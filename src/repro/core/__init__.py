"""Core contribution: indoor flows and the top-k popular location query."""

from .best_first import BestFirstTkPLQ
from .engine import ALGORITHMS, IndoorFlowSystem
from .flow import FlowComputer, FlowResult
from .naive import NaiveTkPLQ
from .nested_loop import NestedLoopTkPLQ
from .paths import PathConstructionStats, PossiblePath, candidate_path_count
from .presence import PresenceComputation, forward_presence
from .query import (
    RankedLocation,
    SearchStats,
    TkPLQResult,
    TkPLQuery,
    rank_top_k,
)
from .reduction import (
    DataReducer,
    DataReductionConfig,
    ReducedSequence,
    ReductionStats,
)

__all__ = [
    "ALGORITHMS",
    "BestFirstTkPLQ",
    "DataReducer",
    "DataReductionConfig",
    "FlowComputer",
    "FlowResult",
    "IndoorFlowSystem",
    "NaiveTkPLQ",
    "NestedLoopTkPLQ",
    "PathConstructionStats",
    "PossiblePath",
    "PresenceComputation",
    "RankedLocation",
    "ReducedSequence",
    "ReductionStats",
    "SearchStats",
    "TkPLQResult",
    "TkPLQuery",
    "candidate_path_count",
    "forward_presence",
    "rank_top_k",
]
