"""The naive TkPLQ algorithm (Section 4, introduction).

The naive algorithm simply calls the single-location flow computation
(Algorithm 2) once per query S-location and ranks the results.  It is correct
but repeats work: an object that contributes to several query locations has
its samples reduced and its possible paths constructed once *per location*.
The nested-loop and best-first algorithms remove exactly this redundancy.
"""

from __future__ import annotations

import time
from typing import Dict

from ..data.iupt import IUPT
from .flow import FlowComputer
from .query import SearchStats, TkPLQResult, TkPLQuery, rank_top_k


class NaiveTkPLQ:
    """Answer TkPLQ by independent per-location flow computations."""

    name = "naive"

    def __init__(self, flow_computer: FlowComputer):
        self._flow_computer = flow_computer

    def search(self, iupt: IUPT, query: TkPLQuery) -> TkPLQResult:
        """Compute the flow of every query location independently and rank."""
        stats = SearchStats()
        began = time.perf_counter()

        flows: Dict[int, float] = {}
        for sloc_id in query.query_slocations:
            # Deliberately no sharing: every call re-reduces every relevant
            # object and recomputes its presence.  (Each per-location flow
            # runs through the staged pipeline, whose cross-query store keys
            # by location set — so distinct locations never share work.)
            result = self._flow_computer.flow(
                iupt, sloc_id, query.start, query.end, stats=stats
            )
            flows[sloc_id] = result.flow

        stats.elapsed_seconds = time.perf_counter() - began
        return TkPLQResult(
            query=query,
            ranking=rank_top_k(flows, query.k),
            flows=flows,
            stats=stats,
            algorithm=self.name,
        )
