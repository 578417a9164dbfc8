"""Object presence (Section 2.3, Equations 1 and 2) by forward dynamic programming.

The *object presence* ``Φ_{ts,te}(q, o)`` of object ``o`` in S-location ``q``
is the normalised expectation, over all valid possible paths of ``o`` in the
query window, of the probability that the path passes ``q``'s parent cell:

    Φ(q, o) = Σ_i (pr_{φi→q} · pr_i) / Σ_i pr_i

Presence is always in ``[0, 1]``; summing presences over the object set gives
the indoor flow of ``q`` (Definition 1).

Equation 2 makes a path's pass probability a product over its steps, so the
numerator factorises along the sequence like an HMM forward pass and no path
is ever built.  For every tail P-location ``l`` of the prefix ``X1..Xt`` the
pass keeps

* ``V(l)`` — the valid mass: summed probability of the valid prefixes
  ending at ``l``;
* ``Q(l, c)`` — the passed mass: the part of ``V(l)`` weighted by each
  prefix's probability of having passed cell ``c`` (sparse, absent = 0);
* ``N(l)`` — the exact number of valid prefixes ending at ``l``.

Extending with a sample ``(l', p')`` through ``C = MIL[l, l'] ≠ ∅`` and
``h = 1/|C|``:

    V(l')    += p'·V(l)
    Q(l', c) += p'·Q(l, c)·(1 − h·[c ∈ C])     for every c in Q(l)
    Q(l', c) += p'·V(l)·h                      for every c in C
    N(l')    += N(l)

Every term is a non-negative product, so nothing cancels.  The cost is
``O(n·|X_i|·|X_{i+1}|·|touched cells|)`` with no cap on the number of paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..data.records import SampleSet
from ..space.matrix import IndoorLocationMatrix
from .paths import (
    PathConstructionStats,
    candidate_path_count,
    total_candidate_probability,
)


@dataclass
class PresenceComputation:
    """The reusable per-object artefact shared across query S-locations.

    Holds Φ for every cell some valid path can pass; evaluating the presence
    for a specific parent cell is then a dictionary lookup.  The nested-loop
    and best-first algorithms build this once per object and reuse it for
    every query location the object is relevant to, which is the
    "intermediate result sharing" of Section 4.1.
    """

    presences: Dict[int, float] = field(default_factory=dict)

    def presence_in_cell(self, cell_id: Optional[int]) -> float:
        """Return Φ(q, o) for a query location whose parent cell is ``cell_id``."""
        return self.presences.get(cell_id, 0.0)


def forward_presence(
    sequence: Sequence[SampleSet],
    matrix: IndoorLocationMatrix,
    stats: Optional[PathConstructionStats] = None,
) -> PresenceComputation:
    """Φ for every cell of one (reduced) sequence, by the forward pass above.

    Equation 1 normalises by the total candidate-path mass (the product of
    the per-sample-set probability sums), so probability mass lost to invalid
    candidates lowers the presence — this reproduces the paper's worked
    Example 3 (Φ(r6, o2) = 0.85).  Should that mass be zero the valid mass is
    used instead.  A lone report "moves" within the cells adjacent to its
    P-location, each with equal probability.
    """
    if stats is not None:
        stats.candidate_paths += candidate_path_count(sequence)
    if not sequence:
        return PresenceComputation()

    # tail -> [V, Q, N]
    state: Dict[int, list] = {}
    for sample in sequence[0]:
        passed: Dict[int, float] = {}
        if len(sequence) == 1:
            cells = matrix.cells_adjacent(sample.ploc_id)
            for cell in cells:
                passed[cell] = sample.prob / len(cells)
        state[sample.ploc_id] = [sample.prob, passed, 1]

    cells_between = matrix.cells_between
    for sample_set in sequence[1:]:
        extended: Dict[int, list] = {}
        for ploc_id, prob in ((s.ploc_id, s.prob) for s in sample_set):
            valid = 0.0
            count = 0
            passed = None
            for tail, (mass, tail_passed, tail_count) in state.items():
                cells = cells_between(tail, ploc_id)
                if not cells:
                    continue
                hit = 1.0 / len(cells)
                keep = 1.0 - hit
                if passed is None:
                    passed = {cell: prob * value for cell, value in tail_passed.items()}
                    for cell in cells:
                        if cell in passed:
                            passed[cell] *= keep
                else:
                    for cell, value in tail_passed.items():
                        value *= prob
                        if cell in cells:
                            value *= keep
                        passed[cell] = passed.get(cell, 0.0) + value
                entered = prob * mass * hit
                for cell in cells:
                    passed[cell] = passed.get(cell, 0.0) + entered
                valid += mass
                count += tail_count
            if passed is not None:
                extended[ploc_id] = [prob * valid, passed, count]
        state = extended
        if not state:
            break

    if stats is not None:
        stats.valid_paths += sum(entry[2] for entry in state.values())
    normaliser = total_candidate_probability(sequence)
    if normaliser <= 0.0:
        normaliser = sum(entry[0] for entry in state.values())
        if normaliser <= 0.0:
            return PresenceComputation()
    totals: Dict[int, float] = {}
    for _mass, passed, _count in state.values():
        for cell, value in passed.items():
            totals[cell] = totals.get(cell, 0.0) + value
    # Guard against floating-point drift; presence is ≤ 1 by construction.
    return PresenceComputation(
        {cell: min(value / normaliser, 1.0) for cell, value in totals.items()}
    )
