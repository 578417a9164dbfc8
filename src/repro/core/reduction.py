"""The data reduction method of Section 3.2 (Algorithm 1, ``ReduceData``).

Three co-operating reductions shrink each object's sequence before its
presence is computed (:mod:`repro.core.presence`):

* **intra-merge** — inside one sample set, samples whose P-locations are
  equivalent (they refer to identical cell sets in the indoor location matrix)
  are merged into a single sample carrying the summed probability and the
  smallest P-location id.
* **inter-merge** — consecutive sample sets with identical P-location sets are
  collapsed into one set whose per-location probability is the mean of the
  originals, because they describe the same whereabouts over a dwell period.
* **PSL pruning** — the object's *possible semantic locations* are collected
  from the cells its reported P-locations touch; when none of them is in the
  query set the whole object is ruled out of the flow computation.

Each reduction can be toggled independently so the ``-ORG`` algorithm variants
of the evaluation (no data reduction) and finer ablations can be expressed.

Which P-locations of a set are equivalent, and which S-locations the set may
touch, depend only on its P-location tuple (``SampleSet.plocation_key``), and
real tables repeat few tuples.  ``DataReducer`` therefore works them out once
per tuple into a *plan* — the intra-merge groups (``None`` when nothing
merges), the merged P-location tuple and the PSL frozenset — and ``reduce``
is one pass that looks each set's plan up.  A set that merges nothing passes
through unchanged; merged sets and inter-merge runs are rescaled exactly as
``SampleSet(..., normalise=True)`` would rescale them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..data.records import SampleSet
from ..space.graph import IndoorSpaceLocationGraph
from ..space.matrix import IndoorLocationMatrix


@dataclass(frozen=True)
class DataReductionConfig:
    """Switches controlling which reductions are applied.

    ``enabled()`` is the paper's full reduction; ``disabled()`` reproduces the
    ``-ORG`` variants where the original positioning sequence is processed
    (PSL pruning is kept available separately because the best-first algorithm
    still derives PSLs for its object R-tree even in the ORG setting).
    """

    intra_merge: bool = True
    inter_merge: bool = True
    psl_pruning: bool = True

    @staticmethod
    def enabled() -> "DataReductionConfig":
        return DataReductionConfig(True, True, True)

    @staticmethod
    def disabled() -> "DataReductionConfig":
        return DataReductionConfig(False, False, False)

    @staticmethod
    def original_with_psls() -> "DataReductionConfig":
        """No merging, but PSLs still derived (used by BF-ORG)."""
        return DataReductionConfig(False, False, True)


@dataclass
class ReductionStats:
    """Counters describing the effect of the reduction over a whole query."""

    objects_seen: int = 0
    objects_pruned: int = 0
    sample_sets_before: int = 0
    sample_sets_after: int = 0
    samples_before: int = 0
    samples_after: int = 0
    candidate_paths_before: int = 0
    candidate_paths_after: int = 0

    def merge(self, other: "ReductionStats") -> None:
        """Fold another accumulator into this one (parallel-worker merging)."""
        self.objects_seen += other.objects_seen
        self.objects_pruned += other.objects_pruned
        self.sample_sets_before += other.sample_sets_before
        self.sample_sets_after += other.sample_sets_after
        self.samples_before += other.samples_before
        self.samples_after += other.samples_after
        self.candidate_paths_before += other.candidate_paths_before
        self.candidate_paths_after += other.candidate_paths_after

    def as_dict(self) -> Dict[str, int]:
        return {
            "objects_seen": self.objects_seen,
            "objects_pruned": self.objects_pruned,
            "sample_sets_before": self.sample_sets_before,
            "sample_sets_after": self.sample_sets_after,
            "samples_before": self.samples_before,
            "samples_after": self.samples_after,
            "candidate_paths_before": self.candidate_paths_before,
            "candidate_paths_after": self.candidate_paths_after,
        }


@dataclass(frozen=True)
class ReducedSequence:
    """The outcome of ``ReduceData`` for one object.

    ``pruned`` is True when the object's possible semantic locations do not
    overlap the query set, in which case ``sequence`` should not be used for
    flow computation (it corresponds to Algorithm 1 returning ``⟨null, null⟩``).
    """

    sequence: Tuple[SampleSet, ...]
    psls: frozenset
    pruned: bool

    @property
    def is_relevant(self) -> bool:
        return not self.pruned


class DataReducer:
    """Applies Algorithm 1 to per-object positioning sequences.

    Plans are memoised per P-location tuple on the reducer, so they are bound
    to its matrix and graph; the memo grows only with the distinct
    P-location combinations the reducer has seen.
    """

    def __init__(
        self,
        graph: IndoorSpaceLocationGraph,
        matrix: IndoorLocationMatrix,
        config: DataReductionConfig = DataReductionConfig.enabled(),
    ):
        self._graph = graph
        self._matrix = matrix
        self._config = config
        self._plans: Dict[Tuple[int, ...], tuple] = {}

    @property
    def config(self) -> DataReductionConfig:
        return self._config

    def _plan(self, key: Tuple[int, ...]) -> tuple:
        """Work out and memoise the plan of one P-location tuple.

        Intra-merge groups are tuples of indices into ``key``.  Worker
        threads share a reducer without a lock: plans are immutable, so two
        threads racing on one key only build the same plan twice.
        """
        groups: Dict[FrozenSet[int], List[int]] = {}
        for index, ploc_id in enumerate(key):
            groups.setdefault(self._matrix.cells_adjacent(ploc_id), []).append(index)
        cells: Set[int] = set().union(*groups)
        psls = frozenset(self._graph.c2s_many(cells))
        if not self._config.intra_merge or len(groups) == len(key):
            plan = (None, key, psls)
        else:
            # ``key`` is sorted, so each group's first member is its smallest
            # id (footnote 5: "we keep the P-location with a smaller
            # subscript") and groups come out in representative order.
            members = tuple(tuple(group) for group in groups.values())
            plan = (members, tuple(key[group[0]] for group in members), psls)
        self._plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def reduce(
        self,
        sequence: Sequence[SampleSet],
        query_slocations: Optional[AbstractSet[int]],
        stats: Optional[ReductionStats] = None,
    ) -> ReducedSequence:
        """Reduce one object's positioning sequence against a query set.

        Parameters
        ----------
        sequence:
            The object's time-ordered sample sets within the query window.
        query_slocations:
            The S-location ids of the query set ``Q``; ``None`` disables PSL
            pruning for this call (e.g. when computing flows for every
            location).
        stats:
            Optional accumulator describing the reduction across objects.
        """
        inter_merge = self._config.inter_merge
        reduced: List[SampleSet] = []
        psls: Set[int] = set()
        # The current run of consecutive sets sharing a merged key, as
        # (set, weights) with weights None for a set that merged nothing.
        run: List[Tuple[SampleSet, Optional[List[float]]]] = []
        run_key: Optional[Tuple[int, ...]] = None
        samples_before = 0
        candidates_before = 1

        plans = self._plans
        for sample_set in sequence:
            samples = sample_set.samples
            samples_before += len(samples)
            candidates_before *= len(samples)
            plan = plans.get(sample_set.plocation_key)
            if plan is None:
                plan = self._plan(sample_set.plocation_key)
            groups, merged_key, set_psls = plan
            weights = None
            if groups is not None:
                weights = [
                    samples[group[0]].prob
                    if len(group) == 1
                    else min(sum(samples[index].prob for index in group), 1.0)
                    for group in groups
                ]
            if merged_key != run_key:
                if run:
                    reduced.append(_merge_run(run_key, run))
                run = []
                run_key = merged_key
                psls |= set_psls
            run.append((sample_set, weights))
            if not inter_merge:
                reduced.append(_merge_run(merged_key, run))
                run = []

        if run:
            reduced.append(_merge_run(run_key, run))

        pruned = (
            self._config.psl_pruning
            and query_slocations is not None
            and psls.isdisjoint(query_slocations)
        )
        if stats is not None:
            stats.objects_seen += 1
            stats.objects_pruned += pruned
            stats.sample_sets_before += len(sequence)
            stats.sample_sets_after += len(reduced)
            stats.samples_before += samples_before
            candidates_after = 1
            for sample_set in reduced:
                stats.samples_after += len(sample_set)
                candidates_after *= len(sample_set)
            if reduced:
                stats.candidate_paths_before += candidates_before
                stats.candidate_paths_after += candidates_after

        return ReducedSequence(
            sequence=tuple(reduced), psls=frozenset(psls), pruned=pruned
        )


def _merge_run(
    key: Tuple[int, ...], run: List[Tuple[SampleSet, Optional[List[float]]]]
) -> SampleSet:
    """One reduced set from a run of sets sharing the merged ``key``.

    A lone set is intra-merged (summed onto representatives and rescaled) or,
    if nothing merged, passed through: presence divides by each set's total,
    so its scale does not matter.  A longer run is inter-merged: each
    P-location gets the mean of its normalised probabilities across the run
    (Algorithm 1, ``InterMerge``), rescaled.
    """
    if len(run) == 1:
        sample_set, weights = run[0]
        return sample_set if weights is None else SampleSet._rescaled(key, weights)
    rows = []
    for sample_set, weights in run:
        if weights is None:
            weights = [sample.prob for sample in sample_set.samples]
        # Algorithm 1 averages normalised sets; a set may sum to 1 ± 1e-3.
        total = sum(weights)
        rows.append([weight / total for weight in weights])
    count = len(run)
    return SampleSet._rescaled(key, [sum(column) / count for column in zip(*rows)])
