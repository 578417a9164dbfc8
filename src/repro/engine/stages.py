"""The staged query pipeline.

``Flow(q, tree, [ts, te])`` (Algorithm 2) decomposes into two stages, each
reporting into the :class:`ExecutionContext` it is given:

* :class:`FetchStage` — time-index window retrieval (``tree.RangeQuery``);
* :class:`PresenceStage` — the cache-aware per-object work: the data
  reduction of Algorithm 1 followed by the presence of Equations 1-2,
  producing the :class:`~repro.engine.cache.StoredPresence` artefact shared
  across query locations, across queries (through the
  :class:`~repro.engine.cache.PresenceStore`), and across batched queries.

:class:`QueryPipeline` wires the stages to a
:class:`~repro.core.flow.FlowComputer` (the home of the reduction and
presence primitives) and an optional presence store.  The three TkPLQ
algorithms, ``FlowComputer.flow``/``flows_for_all``, and the
:class:`~repro.engine.batch.BatchPlanner` are all thin drivers over this
pipeline.
"""

from __future__ import annotations

import time
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from ..core.query import SearchStats
from ..data.iupt import IUPT
from ..data.records import SampleSet
from .cache import PresenceStore, StoredPresence
from .config import EngineConfig
from .context import ExecutionContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.flow import FlowComputer, FlowResult


class FetchStage:
    """Stage 1: retrieve the window's per-object sequences from the time index.

    Also pins the context to the table's data key, so every later store
    access of this context is keyed to the exact table state the sequences
    were fetched from.  The key is the *window-scoped*
    :meth:`~repro.data.iupt.IUPT.data_key_for` token: on a sharded store it
    only covers the shards the window overlaps, so ingesting a batch
    elsewhere leaves this context's cached presences valid.
    """

    def run(self, ctx: ExecutionContext, iupt: IUPT) -> Dict[int, List[SampleSet]]:
        if ctx.pinned_data_key is not None:
            ctx.data_key = ctx.pinned_data_key
        else:
            ctx.data_key = iupt.data_key_for(ctx.start, ctx.end)
        sequences = iupt.sequences_in(ctx.start, ctx.end)
        ctx.stats.note_objects_total(len(sequences))
        return sequences


def accumulate_flows_over_entries(
    entries: Sequence[Tuple[int, StoredPresence]],
    sloc_ids: Sequence[int],
    parent_cells: Dict[int, Optional[int]],
    stats: SearchStats,
    kernel: str = "scalar",
) -> Dict[int, float]:
    """Sum per-location flows over per-object artefacts, in entry order.

    The accumulation kernel of :meth:`QueryPipeline.flows_for_all`, shared
    with the continuous-query subsystem: the bit-for-bit equivalence of a
    standing flow result and a fresh ``flows_for_all`` hangs on both summing
    the same per-object presence values in the same (fetch) order.

    ``kernel="vectorized"`` reduces a
    :class:`~repro.codec.kernels.PresenceMatrix` instead of looping —
    bit-identical flows and ``flow_evaluations`` (asserted by the
    differential tests in ``tests/test_codec.py``).
    """
    if kernel == "vectorized":
        from ..codec.kernels import PresenceMatrix

        matrix = PresenceMatrix(entries, sloc_ids, parent_cells)
        flows, evaluations = matrix.accumulate_flows(sloc_ids)
        stats.flow_evaluations += evaluations
        return flows
    flows: Dict[int, float] = {sloc_id: 0.0 for sloc_id in sloc_ids}
    for _object_id, entry in entries:
        if entry.pruned:
            continue
        for sloc_id in sloc_ids:
            if sloc_id in entry.psls:
                stats.flow_evaluations += 1
                flows[sloc_id] += entry.computation.presence_in_cell(
                    parent_cells[sloc_id]
                )
    return flows


def _lacks_presence(entry: StoredPresence, build_paths: bool) -> bool:
    """Whether a reduced artefact still needs its (deferred) presence."""
    return build_paths and not entry.pruned and entry.computation is None


class PresenceStage:
    """Stage 2: cache-aware per-object presence (reduce + presence + store)."""

    def __init__(self, flow_computer: "FlowComputer"):
        self._computer = flow_computer

    def run(
        self,
        ctx: ExecutionContext,
        object_id: int,
        sequence: Sequence[SampleSet],
        build_paths: bool = True,
        entry: Optional[StoredPresence] = None,
    ) -> StoredPresence:
        """One object's artefact; the store is probed unless the caller
        passes the ``entry`` it already holds for this key."""
        store = ctx.store
        if entry is None and store is not None:
            entry = store.get(
                object_id, ctx.window, ctx.query_key, data_key=ctx.data_key
            )
        if entry is not None and not _lacks_presence(entry, build_paths):
            return entry
        if entry is None:
            reduced = self._computer.reducer.reduce(
                sequence, ctx.query_key, ctx.stats.reduction_stats
            )
            entry = StoredPresence(
                psls=reduced.psls, sequence=reduced.sequence, pruned=reduced.pruned
            )
        if _lacks_presence(entry, build_paths):
            entry.computation = self._computer.presence_computation(
                entry.sequence, ctx.stats
            )
            ctx.stats.note_object_computed(object_id)
        if store is not None:
            store.put(
                object_id, ctx.window, ctx.query_key, entry, data_key=ctx.data_key
            )
        return entry


class QueryPipeline:
    """Fetch → presence, with cross-query caching.

    Parameters
    ----------
    flow_computer:
        The owner of the reduction and presence primitives.
    store:
        Optional cross-query presence store shared by every context this
        pipeline creates.
    config:
        Engine configuration; its ``scoring_kernel`` decides how
        :meth:`flows_for_all` accumulates presences into flows.
    """

    def __init__(
        self,
        flow_computer: "FlowComputer",
        store: Optional[PresenceStore] = None,
        config: Optional[EngineConfig] = None,
    ):
        self._computer = flow_computer
        self._store = store
        self._config = config or EngineConfig()
        self.fetch = FetchStage()
        self.presence = PresenceStage(flow_computer)

    @property
    def flow_computer(self) -> "FlowComputer":
        return self._computer

    @property
    def store(self) -> Optional[PresenceStore]:
        return self._store

    @property
    def config(self) -> EngineConfig:
        return self._config

    # ------------------------------------------------------------------
    # Contexts
    # ------------------------------------------------------------------
    def context(
        self,
        window: Tuple[float, float],
        query_slocations: Optional[Iterable[int]],
        stats: Optional[SearchStats] = None,
    ) -> ExecutionContext:
        """Create the execution context of one query over this pipeline."""
        return ExecutionContext(
            window=(float(window[0]), float(window[1])),
            query_key=(
                None if query_slocations is None else frozenset(query_slocations)
            ),
            stats=stats if stats is not None else SearchStats(),
            store=self._store,
        )

    # ------------------------------------------------------------------
    # Bulk per-object presence
    # ------------------------------------------------------------------
    def presences(
        self,
        ctx: ExecutionContext,
        sequences: Dict[int, List[SampleSet]],
        build_paths: bool = True,
    ) -> List[Tuple[int, StoredPresence]]:
        """Per-object presence artefacts for a whole window, in fetch order."""
        return [
            (object_id, self.presence.run(ctx, object_id, sequence, build_paths))
            for object_id, sequence in sequences.items()
        ]

    def build_paths_for(
        self, ctx: ExecutionContext, object_id: int, entry: StoredPresence
    ) -> StoredPresence:
        """Fill in the lazily deferred presence of one artefact.

        Used by the best-first algorithm, which reduces every object up front
        but only computes presences for the candidates its guided join
        visits.  The enriched artefact is refreshed in the store so later
        queries skip the presence computation too.
        """
        return self.presence.run(ctx, object_id, entry.sequence, entry=entry)

    # ------------------------------------------------------------------
    # Algorithm 2, staged
    # ------------------------------------------------------------------
    def flow(
        self, ctx: ExecutionContext, iupt: IUPT, sloc_id: int
    ) -> "FlowResult":
        """The indoor flow of one S-location, run through the staged pipeline."""
        from ..core.flow import FlowResult  # deferred: core.flow drives this module

        began = time.perf_counter()
        cell_id = self._computer.graph.parent_cell(sloc_id)
        sequences = self.fetch.run(ctx, iupt)

        flow_value = 0.0
        for _object_id, entry in self.presences(ctx, sequences):
            if entry.pruned:
                continue
            ctx.stats.flow_evaluations += 1
            flow_value += entry.computation.presence_in_cell(cell_id)

        ctx.stats.elapsed_seconds += time.perf_counter() - began
        return FlowResult(sloc_id=sloc_id, flow=flow_value, stats=ctx.stats)

    def flows_for_all(
        self,
        iupt: IUPT,
        sloc_ids: Sequence[int],
        start: float,
        end: float,
        stats: Optional[SearchStats] = None,
    ) -> Dict[int, float]:
        """Flows of several S-locations sharing one per-object pass.

        Each object is reduced once against the *union* of the requested
        locations and its presence is computed once; the per-location
        pruning decision is then taken from the object's possible semantic
        locations (``sloc ∈ PSLs``), exactly as an independent
        ``flow(sloc)`` call would have decided it.  This keeps the sharing
        of the historical ``flows_for_all`` without its hazard: no presence
        artefact is ever consulted under a query set other than the one it
        was reduced for.
        """
        ordered = list(dict.fromkeys(sloc_ids))
        union_key = frozenset(ordered)
        ctx = self.context((start, end), union_key, stats=stats)
        began = time.perf_counter()

        graph = self._computer.graph
        parent_cells = {sloc_id: graph.parent_cell(sloc_id) for sloc_id in ordered}
        sequences = self.fetch.run(ctx, iupt)

        flows = accumulate_flows_over_entries(
            self.presences(ctx, sequences),
            ordered,
            parent_cells,
            ctx.stats,
            kernel=self._config.resolved_scoring_kernel,
        )

        ctx.stats.elapsed_seconds += time.perf_counter() - began
        return flows
