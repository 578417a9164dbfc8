"""The staged query pipeline.

``Flow(q, tree, [ts, te])`` (Algorithm 2) decomposes into four composable
stages, each reporting into the :class:`ExecutionContext` it is given:

* :class:`FetchStage` — time-index window retrieval (``tree.RangeQuery``);
* :class:`ReduceStage` — the data reduction of Algorithm 1;
* :class:`PathStage` — valid possible-path construction (Equations 1-2);
* :class:`PresenceStage` — the cache-aware composition of the two above,
  producing the per-object :class:`~repro.engine.cache.StoredPresence`
  artefact shared across query locations, across queries (through the
  :class:`~repro.engine.cache.PresenceStore`), and across batched queries.

:class:`QueryPipeline` wires the stages to a
:class:`~repro.core.flow.FlowComputer` (the home of the reduction and path
primitives), an optional presence store, and an executor that can fan the
per-object work of :meth:`QueryPipeline.presences` out across workers.  The
three TkPLQ algorithms, ``FlowComputer.flow``/``flows_for_all``, and the
:class:`~repro.engine.batch.BatchPlanner` are all thin drivers over this
pipeline.
"""

from __future__ import annotations

import time
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from ..core.query import SearchStats
from ..core.reduction import ReducedSequence
from ..data.iupt import IUPT
from ..data.records import SampleSet
from .cache import PresenceStore, StoredPresence
from .config import EngineConfig
from .context import ExecutionContext
from .executors import SerialExecutor, make_executor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.flow import FlowComputer, FlowResult, ObjectComputationCache


class FetchStage:
    """Stage 1: retrieve the window's per-object sequences from the time index.

    Also pins the context to the table's data key, so every later store
    access of this context is keyed to the exact table state the sequences
    were fetched from.  With ``shard_scoped_keys`` (the default) the key is
    the *window-scoped* :meth:`~repro.data.iupt.IUPT.data_key_for` token: on
    a sharded store it only covers the shards the window overlaps, so
    ingesting a batch elsewhere leaves this context's cached presences
    valid.  Disabling it falls back to the whole-table
    :attr:`~repro.data.iupt.IUPT.data_key` (the seed's invalidate-everything
    behaviour, kept for the invalidation-granularity benchmark).
    """

    def __init__(self, shard_scoped_keys: bool = True):
        self._shard_scoped_keys = shard_scoped_keys

    def run(self, ctx: ExecutionContext, iupt: IUPT) -> Dict[int, List[SampleSet]]:
        if ctx.pinned_data_key is not None:
            ctx.data_key = ctx.pinned_data_key
        elif self._shard_scoped_keys:
            ctx.data_key = iupt.data_key_for(ctx.start, ctx.end)
        else:
            ctx.data_key = iupt.data_key
        sequences = iupt.sequences_in(ctx.start, ctx.end)
        ctx.stats.note_objects_total(len(sequences))
        return sequences


class ReduceStage:
    """Stage 2: Algorithm 1 (``ReduceData``) against the context's query set."""

    def __init__(self, flow_computer: "FlowComputer"):
        self._computer = flow_computer

    def run(
        self, ctx: ExecutionContext, sequence: Sequence[SampleSet]
    ) -> ReducedSequence:
        return self._computer.reducer.reduce(
            sequence, ctx.query_key, ctx.stats.reduction_stats
        )


class PathStage:
    """Stage 3: per-cell presence of one reduced sequence (forward DP, Eq. 1-2)."""

    def __init__(self, flow_computer: "FlowComputer"):
        self._computer = flow_computer

    def run(self, ctx: ExecutionContext, sequence: Sequence[SampleSet]):
        return self._computer.presence_computation(sequence, ctx.stats)


class _PresenceTask:
    """One object's reduce → path-construct work as a picklable callable.

    Each invocation collects its counters into a private ``SearchStats`` so
    the task can run on any executor (including process pools, where shared
    mutable state is unavailable); the caller merges the deltas back in input
    order, keeping the accounting deterministic.
    """

    def __init__(
        self,
        flow_computer: "FlowComputer",
        query_key: Optional[FrozenSet[int]],
        build_paths: bool,
    ):
        self._computer = flow_computer
        self._query_key = query_key
        self._build_paths = build_paths

    def __call__(
        self,
        payload: Tuple[int, Sequence[SampleSet], Optional[StoredPresence]],
    ) -> Tuple[StoredPresence, SearchStats]:
        object_id, sequence, entry = payload
        delta = SearchStats()
        if entry is None:
            reduced = self._computer.reducer.reduce(
                sequence, self._query_key, delta.reduction_stats
            )
            entry = StoredPresence(
                psls=reduced.psls, sequence=reduced.sequence, pruned=reduced.pruned
            )
        if self._build_paths and not entry.pruned and entry.computation is None:
            entry.computation = self._computer.presence_computation(
                entry.sequence, delta
            )
            delta.note_object_computed(object_id)
        return entry, delta


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


def _needs_work(entry: Optional[StoredPresence], build_paths: bool) -> bool:
    """Whether a (possibly cached) artefact still requires stage work.

    Shared by the single-object :class:`PresenceStage` and the bulk
    :meth:`QueryPipeline.presences` so the caching predicate cannot diverge.
    """
    return entry is None or (
        build_paths and not entry.pruned and entry.computation is None
    )


class PresenceStage:
    """Stage 4: cache-aware per-object presence (reduce + paths + store)."""

    def __init__(self, flow_computer: "FlowComputer"):
        self._computer = flow_computer

    def run(
        self,
        ctx: ExecutionContext,
        object_id: int,
        sequence: Sequence[SampleSet],
        build_paths: bool = True,
        entry: Optional[StoredPresence] = None,
        probe: bool = True,
    ) -> StoredPresence:
        """One object's artefact; pass ``probe=False`` (with ``entry``) when
        the caller already consulted the store for this key."""
        store = ctx.effective_store
        if probe and entry is None and store is not None:
            entry = store.get(
                object_id, ctx.window, ctx.query_key, data_key=ctx.data_key
            )
        if _needs_work(entry, build_paths):
            task = _PresenceTask(self._computer, ctx.query_key, build_paths)
            entry, delta = task((object_id, sequence, entry))
            ctx.stats.merge(delta)
            if store is not None:
                store.put(
                    object_id, ctx.window, ctx.query_key, entry, data_key=ctx.data_key
                )
        return entry


class QueryPipeline:
    """Fetch → reduce → paths → presence, with caching and fan-out.

    Parameters
    ----------
    flow_computer:
        The owner of the reduction and path-construction primitives.
    store:
        Optional cross-query presence store shared by every context this
        pipeline creates.
    config:
        Engine configuration; its ``executor`` settings decide whether
        :meth:`presences` fans per-object work out across workers.
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
        self._executor = make_executor(self._config)
        self.fetch = FetchStage(self._config.shard_scoped_cache_keys)
        self.reduce = ReduceStage(flow_computer)
        self.paths = PathStage(flow_computer)
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

    def close(self) -> None:
        """Release the executor's worker pool (if any)."""
        self._executor.close()

    # ------------------------------------------------------------------
    # Contexts
    # ------------------------------------------------------------------
    def context(
        self,
        window: Tuple[float, float],
        query_slocations: Optional[Iterable[int]],
        stats: Optional[SearchStats] = None,
        use_store: bool = True,
    ) -> ExecutionContext:
        """Create the execution context of one query over this pipeline."""
        return ExecutionContext(
            window=(float(window[0]), float(window[1])),
            query_key=(
                None if query_slocations is None else frozenset(query_slocations)
            ),
            stats=stats if stats is not None else SearchStats(),
            store=self._store,
            use_store=use_store,
        )

    # ------------------------------------------------------------------
    # Bulk per-object presence (the fan-out point)
    # ------------------------------------------------------------------
    def presences(
        self,
        ctx: ExecutionContext,
        sequences: Dict[int, List[SampleSet]],
        build_paths: bool = True,
        legacy_cache: Optional["ObjectComputationCache"] = None,
    ) -> List[Tuple[int, StoredPresence]]:
        """Per-object presence artefacts for a whole window, in fetch order.

        Probes the per-query ``legacy_cache`` (if given) and the cross-query
        store in the calling thread, then computes the misses — serially, or
        across the configured executor when at least ``parallel_threshold``
        objects need work.  Results and statistics are merged back in input
        order, so flows accumulated from the returned list are bit-for-bit
        identical whichever executor ran the work.
        """
        items = list(sequences.items())
        entries: List[Optional[StoredPresence]] = [None] * len(items)
        pending: List[int] = []
        store = ctx.effective_store

        for index, (object_id, _sequence) in enumerate(items):
            entry = None
            if legacy_cache is not None:
                entry = legacy_cache.get(object_id, ctx.query_key)
            if entry is None and store is not None:
                entry = store.get(
                    object_id, ctx.window, ctx.query_key, data_key=ctx.data_key
                )
            entries[index] = entry
            if _needs_work(entry, build_paths):
                pending.append(index)

        parallel = (
            self._config.is_parallel
            and len(pending) >= self._config.parallel_threshold
        )
        if parallel:
            # Fan the miss computations out; results and their stat deltas
            # are merged back in input order (deterministic accumulation).
            task = _PresenceTask(self._computer, ctx.query_key, build_paths)
            payloads = [
                (items[index][0], items[index][1], entries[index])
                for index in pending
            ]
            outcomes = self._executor.map(task, payloads)
            for index, (entry, delta) in zip(pending, outcomes):
                ctx.stats.merge(delta)
                entries[index] = entry
                if store is not None:
                    store.put(
                        items[index][0],
                        ctx.window,
                        ctx.query_key,
                        entry,
                        data_key=ctx.data_key,
                    )
        else:
            for index in pending:
                object_id, sequence = items[index]
                entries[index] = self.presence.run(
                    ctx,
                    object_id,
                    sequence,
                    build_paths,
                    entry=entries[index],
                    probe=False,
                )
        if legacy_cache is not None:
            for index in pending:
                legacy_cache.put(items[index][0], entries[index], ctx.query_key)

        return [
            (object_id, entry)
            for (object_id, _sequence), entry in zip(items, entries)
        ]

    def build_paths_for(
        self, ctx: ExecutionContext, object_id: int, entry: StoredPresence
    ) -> StoredPresence:
        """Fill in the lazily deferred path construction of one artefact.

        Used by the best-first algorithm, which reduces every object up front
        but only constructs paths for the candidates its guided join visits.
        The enriched artefact is refreshed in the store so later queries skip
        the path construction too.
        """
        if not entry.pruned and entry.computation is None:
            entry.computation = self.paths.run(ctx, entry.sequence)
            ctx.stats.note_object_computed(object_id)
            store = ctx.effective_store
            if store is not None:
                store.put(
                    object_id, ctx.window, ctx.query_key, entry, data_key=ctx.data_key
                )
        return entry

    # ------------------------------------------------------------------
    # Algorithm 2, staged
    # ------------------------------------------------------------------
    def flow(
        self,
        ctx: ExecutionContext,
        iupt: IUPT,
        sloc_id: int,
        legacy_cache: Optional["ObjectComputationCache"] = None,
    ) -> "FlowResult":
        """The indoor flow of one S-location, run through the staged pipeline."""
        from ..core.flow import FlowResult  # deferred: core.flow drives this module

        began = time.perf_counter()
        cell_id = self._computer.graph.parent_cell(sloc_id)
        sequences = self.fetch.run(ctx, iupt)

        flow_value = 0.0
        for _object_id, entry in self.presences(
            ctx, sequences, build_paths=True, legacy_cache=legacy_cache
        ):
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
        locations and its paths are constructed once; the per-location
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
