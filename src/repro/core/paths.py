"""Possible indoor paths (Section 2.3, step 2) and their bookkeeping.

Given an object's positioning sequence ``X = (X1, ..., Xn)`` within the query
window, the candidate paths live in the Cartesian product
``πl(X1) x ... x πl(Xn)``.  Candidates containing a consecutive P-location
pair with ``MIL[pi, pj] = ∅`` are invalid (Algorithm 2, lines 13-15).

Presence never materialises these paths: :mod:`repro.core.presence` sums
Equations 1-2 over all of them in one forward pass.  What remains here is
one certain path type (the Monte-Carlo baseline samples one per object), the
counters of the reduction study and the candidate-path totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from ..data.records import SampleSet


@dataclass(frozen=True)
class PossiblePath:
    """One certain path of an object across the query window.

    ``step_cells`` holds, for every consecutive pair ``(loc_j, loc_{j+1})``,
    the set of cells that cover a direct connection between them.  For a
    single-report path it holds one entry: the adjacent/containing cells of
    the lone P-location.
    """

    plocations: Tuple[int, ...]
    step_cells: Tuple[FrozenSet[int], ...]

    def pass_probability(self, cell_id: Optional[int]) -> float:
        """The probability that this path passes the cell ``cell_id``.

        Implements Equation 2: the complement of the probability that none of
        the consecutive pairs passes the cell, where each pair passes it with
        probability ``|{c in C | c == cell}| / |C|``.
        """
        if cell_id is None:
            return 0.0
        miss_probability = 1.0
        for cells in self.step_cells:
            if not cells:
                continue
            hit = 1.0 / len(cells) if cell_id in cells else 0.0
            miss_probability *= 1.0 - hit
        return 1.0 - miss_probability


@dataclass
class PathConstructionStats:
    """Path counters of the presence computations (for the reduction study).

    ``valid_paths`` counts concrete valid paths exactly.  Presence is never
    truncated, so ``truncated_objects`` stays 0; it is kept for readers of
    the historical counter.
    """

    candidate_paths: int = 0
    valid_paths: int = 0
    truncated_objects: int = 0

    def merge(self, other: "PathConstructionStats") -> None:
        self.candidate_paths += other.candidate_paths
        self.valid_paths += other.valid_paths
        self.truncated_objects += other.truncated_objects


def candidate_path_count(sequence: Sequence[SampleSet]) -> int:
    """The worst-case number of candidate paths (``Π |πl(Xi)|``)."""
    total = 1
    for sample_set in sequence:
        total *= len(sample_set)
    return total if sequence else 0


def total_candidate_probability(sequence: Sequence[SampleSet]) -> float:
    """Total probability mass of all candidate paths (``Π_i Σ_e prob``).

    This is the denominator of Equation 1 as used by the paper's worked
    examples; it equals 1 whenever every sample set is normalised, but is
    computed explicitly so that merged or truncated sample sets stay
    consistent.
    """
    if not sequence:
        return 0.0
    total = 1.0
    for sample_set in sequence:
        total *= sum(sample.prob for sample in sample_set)
    return total
