"""Algorithm 1 (``ReduceData``) transcribed set by set: the reduction test oracle.

Independent of the memoised plans of ``repro.core.reduction``: every set is
intra-merged by grouping its samples on ``cells_adjacent`` (summed onto the
smallest id, then normalised), each run of consecutive sets with equal
P-locations becomes the normalised mean of its sets, and the PSLs are the
S-locations of every cell any reported P-location touches.  Sets are plain
sorted ``(ploc_id, prob)`` lists.
"""

from __future__ import annotations

import math


def _normalised(pairs):
    total = sum(prob for _, prob in pairs)
    return sorted((loc, prob / total) for loc, prob in pairs)


def _intra_merge(pairs, matrix):
    groups = {}
    for loc, prob in pairs:
        groups.setdefault(matrix.cells_adjacent(loc), []).append((loc, prob))
    return _normalised(
        [
            (min(loc for loc, _ in members), min(sum(p for _, p in members), 1.0))
            for members in groups.values()
        ]
    )


def reduce(sequence, matrix, graph, config, query):
    """``(sets, psls, pruned, counters)`` of one object's sequence."""
    sets = [[(s.ploc_id, s.prob) for s in sample_set] for sample_set in sequence]
    cells = set()
    for pairs in sets:
        for loc, _ in pairs:
            cells |= matrix.cells_adjacent(loc)
    psls = frozenset(s for cell in cells for s in graph.cell_to_slocations.get(cell, ()))
    reduced = [_intra_merge(pairs, matrix) for pairs in sets] if config.intra_merge else sets
    if config.inter_merge:
        runs = []
        for pairs in reduced:
            if runs and [loc for loc, _ in runs[-1][-1]] == [loc for loc, _ in pairs]:
                runs[-1].append(pairs)
            else:
                runs.append([pairs])
        reduced = [
            run[0] if len(run) == 1 else _normalised(
                [(loc, sum(r[i][1] for r in run) / len(run)) for i, (loc, _) in enumerate(run[0])]
            )
            for run in runs
        ]
    pruned = config.psl_pruning and query is not None and not psls & set(query)
    counters = {
        "objects_seen": 1,
        "objects_pruned": int(pruned),
        "sample_sets_before": len(sets),
        "sample_sets_after": len(reduced),
        "samples_before": sum(map(len, sets)),
        "samples_after": sum(map(len, reduced)),
        "candidate_paths_before": math.prod(map(len, sets)) if sets else 0,
        "candidate_paths_after": math.prod(map(len, reduced)) if reduced else 0,
    }
    return reduced, psls, pruned, counters
