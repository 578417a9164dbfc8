"""Execution context threading state through the pipeline stages.

An :class:`ExecutionContext` is created once per query (or per batch group)
and handed to every stage.  It carries what a stage may need besides its
input: the mutable :class:`~repro.core.query.SearchStats` the caller wants
populated, and the identity of the computation — the query window, the query
S-location set, and the data version — which together form the cache key
space of the cross-query :class:`~repro.engine.cache.PresenceStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple, TYPE_CHECKING

from ..core.query import SearchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import PresenceStore


@dataclass
class ExecutionContext:
    """Per-query state shared by all pipeline stages.

    Attributes
    ----------
    window:
        The query interval ``(start, end)``.
    query_key:
        The query S-location set driving the (query-dependent) data
        reduction, or ``None`` when PSL pruning is disabled for this run.
    stats:
        The efficiency counters every stage reports into.
    store:
        The cross-query presence store, or ``None`` when caching is off.
    use_store:
        Per-context override letting a caller bypass the store without
        reconfiguring the engine (the naive algorithm's per-location flow
        calls stay cacheable, but e.g. ground-truth checks can opt out).
    data_key:
        The :meth:`~repro.data.iupt.IUPT.data_key_for` token of the table
        state this query's window reads; set by
        :class:`~repro.engine.stages.FetchStage` and included in every store
        key so cached artefacts die with the (shard-scoped, on a sharded
        store) table state they were computed from.
    pinned_data_key:
        When set, :class:`~repro.engine.stages.FetchStage` adopts this token
        instead of re-deriving one from the table.  The continuous-query
        subsystem pins each refresh to the exact token it based its
        skip/re-key decision on, so the artefacts the scoring pass reads are
        guaranteed to be the ones that decision re-keyed.
    """

    window: Tuple[float, float]
    query_key: Optional[FrozenSet[int]]
    stats: SearchStats = field(default_factory=SearchStats)
    store: Optional["PresenceStore"] = None
    use_store: bool = True
    data_key: Optional[Tuple] = None
    pinned_data_key: Optional[Tuple] = None

    @property
    def start(self) -> float:
        return self.window[0]

    @property
    def end(self) -> float:
        return self.window[1]

    @property
    def effective_store(self) -> Optional["PresenceStore"]:
        return self.store if self.use_store else None
