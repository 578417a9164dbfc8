"""Flow computation for a single S-location (Algorithm 2).

``Flow(q, tree, [ts, te])`` fetches the positioning records of the query
window from the time index, groups them per object, reduces every object's
sequence (Algorithm 1), computes the object presences on the reduced
sequence (Equations 1-2, summed over every valid possible path in one
forward pass), and accumulates them into the indoor flow of ``q``.

Since the execution-engine refactor the computation itself lives in the
staged pipeline of :mod:`repro.engine.stages` (fetch → presence);
:class:`FlowComputer` remains the home of the per-object primitives (the
reducer, Equations 1-2) and keeps its historical API as a thin driver over
the pipeline.  A bare ``FlowComputer`` lazily builds a private pipeline
without cross-query caching, which reproduces the pre-engine behaviour
exactly; a :class:`~repro.engine.runtime.QueryEngine` attaches its shared
pipeline (and presence store) through :meth:`FlowComputer.use_pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, TYPE_CHECKING

from ..data.iupt import IUPT
from ..data.records import SampleSet
from ..space.graph import IndoorSpaceLocationGraph
from ..space.matrix import IndoorLocationMatrix
from .presence import PresenceComputation, forward_presence
from .query import SearchStats
from .reduction import DataReducer, DataReductionConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.stages import QueryPipeline


@dataclass
class FlowResult:
    """The indoor flow of one S-location plus the work done to obtain it."""

    sloc_id: int
    flow: float
    stats: SearchStats


class FlowComputer:
    """Computes indoor flows for individual S-locations (Algorithm 2)."""

    def __init__(
        self,
        graph: IndoorSpaceLocationGraph,
        matrix: IndoorLocationMatrix,
        reduction: DataReductionConfig = DataReductionConfig.enabled(),
    ):
        self._graph = graph
        self._matrix = matrix
        self._reducer = DataReducer(graph, matrix, reduction)
        self._pipeline: Optional["QueryPipeline"] = None

    @property
    def graph(self) -> IndoorSpaceLocationGraph:
        return self._graph

    @property
    def matrix(self) -> IndoorLocationMatrix:
        return self._matrix

    @property
    def reducer(self) -> DataReducer:
        return self._reducer

    # ------------------------------------------------------------------
    # Pipeline wiring
    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> "QueryPipeline":
        """The staged pipeline this computer drives its queries through.

        Bare computers build a private pipeline without cross-query caching
        on first use (the pre-engine behaviour); computers owned by a
        :class:`~repro.engine.runtime.QueryEngine` share the engine's
        pipeline and store.
        """
        if self._pipeline is None:
            # Imported lazily: the engine layer builds on this module.
            from ..engine.stages import QueryPipeline

            self._pipeline = QueryPipeline(self)
        return self._pipeline

    def use_pipeline(self, pipeline: "QueryPipeline") -> None:
        """Attach the pipeline (and presence store) of an owning engine."""
        self._pipeline = pipeline

    def __getstate__(self) -> dict:
        # The pipeline (and its presence store's lock) is a runtime
        # attachment, not part of the computer's identity; dropping it keeps
        # the computer picklable.
        state = self.__dict__.copy()
        state["_pipeline"] = None
        return state

    # ------------------------------------------------------------------
    # Per-object presence
    # ------------------------------------------------------------------
    def presence_computation(
        self,
        sequence: Sequence[SampleSet],
        stats: Optional[SearchStats] = None,
    ) -> PresenceComputation:
        """Equation 1 for every cell, over one (already reduced) sequence."""
        return forward_presence(
            sequence, self._matrix, stats.path_stats if stats is not None else None
        )

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def flow(
        self,
        iupt: IUPT,
        sloc_id: int,
        start: float,
        end: float,
        stats: Optional[SearchStats] = None,
    ) -> FlowResult:
        """Compute the indoor flow of S-location ``sloc_id`` over ``[start, end]``."""
        pipeline = self.pipeline
        ctx = pipeline.context((start, end), frozenset({sloc_id}), stats=stats)
        return pipeline.flow(ctx, iupt, sloc_id)

    def flows_for_all(
        self,
        iupt: IUPT,
        sloc_ids: Sequence[int],
        start: float,
        end: float,
        stats: Optional[SearchStats] = None,
    ) -> Dict[int, float]:
        """Flows for several S-locations, sharing one per-object pass.

        Every object is reduced once against the union of the requested
        locations; the per-location pruning decision is taken from the
        object's possible semantic locations, so each returned flow is
        exactly what an independent :meth:`flow` call would compute.
        """
        return self.pipeline.flows_for_all(iupt, sloc_ids, start, end, stats=stats)
