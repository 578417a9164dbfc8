"""Brute-force Equations 1-2: the exhaustive path-enumeration test oracle.

Enumerates every candidate path of ``πl(X1) x ... x πl(Xn)``, drops those
with a consecutive ``MIL = ∅`` pair, and evaluates Equations 1-2 literally.
Exponential by design: only for small inputs in tests.
"""

from __future__ import annotations

import itertools
import math


def valid_paths(sequence, matrix):
    """``(locations, probability, step cell sets)`` of every valid concrete path."""
    if not sequence:
        return []
    paths = []
    for combo in itertools.product(*sequence):
        locations = tuple(sample.ploc_id for sample in combo)
        steps = [matrix.cells_between(a, b) for a, b in zip(locations, locations[1:])]
        if not all(steps):
            continue
        if len(locations) == 1:
            steps = [matrix.cells_adjacent(locations[0])]
        paths.append((locations, math.prod(sample.prob for sample in combo), steps))
    return paths


def pass_probability(steps, cell):
    """Equation 2: one minus the probability that no step passes ``cell``."""
    return 1.0 - math.prod(1.0 - 1.0 / len(cells) for cells in steps if cell in cells)


def presences(sequence, matrix, cells):
    """Equation 1 for every cell of ``cells``, normalised by the candidate mass."""
    paths = valid_paths(sequence, matrix)
    normaliser = math.prod(sum(s.prob for s in sample_set) for sample_set in sequence)
    if not sequence or normaliser <= 0.0:
        normaliser = sum(probability for _, probability, _ in paths)
    if not paths:
        return {cell: 0.0 for cell in cells}
    return {
        cell: min(
            sum(p * pass_probability(steps, cell) for _, p, steps in paths) / normaliser,
            1.0,
        )
        for cell in cells
    }
