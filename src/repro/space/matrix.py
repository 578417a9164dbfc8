"""The Indoor Location Matrix (MIL) of Section 3.1.2.

``MIL`` is conceptually an ``N x N`` upper-triangular matrix over the
P-locations:

* ``MIL[pi, pi]`` gives the cells adjacent to ``pi`` (for a partitioning
  P-location) or the cell containing it (for a presence P-location);
* ``MIL[pi, pj]`` gives the cells through which one can reach ``pj`` from
  ``pi`` without involving any other cell;
* ``MIL[pi, pj] = ∅`` when ``pi`` and ``pj`` share no cell.

We materialise the matrix sparsely as the intersection of the per-P-location
cell sets, which reproduces the worked example of Figure 3 (e.g.
``MIL[p4, p9] = {c1, c6}``, ``MIL[p3, p4] = ∅``).  Section 3.2's downsizing —
merging equivalent P-locations that label the same GISL edge into an
``M x M`` matrix where ``M`` is the number of graph edges — is exposed through
:meth:`IndoorLocationMatrix.merged`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .graph import IndoorSpaceLocationGraph

EMPTY_CELLS: FrozenSet[int] = frozenset()


@dataclass
class IndoorLocationMatrix:
    """Sparse view of the indoor location matrix.

    Parameters
    ----------
    cells_of:
        Per-P-location cell sets (``MIL[p, p]``).
    representative:
        Maps each P-location to its equivalence-class representative; the
        identity mapping for the un-merged matrix.

    ``cells_between`` memoises its entries, at most one per ordered pair of
    mapped P-locations; the memo takes no part in equality or ``repr``, and
    threads share it without a lock because racing writers store equal sets.
    """

    cells_of: Dict[int, FrozenSet[int]]
    representative: Dict[int, int]
    is_merged: bool = False
    _between: Dict[Tuple[int, int], FrozenSet[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: IndoorSpaceLocationGraph) -> "IndoorLocationMatrix":
        """Build the full (un-merged) matrix from an indoor space location graph."""
        cells_of = dict(graph.cells_of_plocation)
        representative = {ploc_id: ploc_id for ploc_id in cells_of}
        return cls(cells_of=cells_of, representative=representative, is_merged=False)

    def merged(self, graph: IndoorSpaceLocationGraph) -> "IndoorLocationMatrix":
        """Return the downsized M x M matrix of Section 3.2.

        Equivalent P-locations (those labelling the same GISL edge) collapse
        onto the representative with the smallest identifier.  Lookups through
        the merged matrix first map each P-location to its representative, so
        callers do not need to know whether merging happened.
        """
        representative: Dict[int, int] = {}
        cells_of: Dict[int, FrozenSet[int]] = {}
        for members in graph.edges.values():
            if not members:
                continue
            rep = min(members)
            for ploc_id in members:
                representative[ploc_id] = rep
            cells_of[rep] = graph.cells_of_plocation[rep]
        # P-locations that somehow do not appear on any edge keep themselves.
        for ploc_id, cell_set in self.cells_of.items():
            representative.setdefault(ploc_id, ploc_id)
            cells_of.setdefault(representative[ploc_id], cell_set)
        return IndoorLocationMatrix(
            cells_of=cells_of, representative=representative, is_merged=True
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def resolve(self, ploc_id: int) -> int:
        """Map a P-location to the row/column actually stored in the matrix."""
        return self.representative.get(ploc_id, ploc_id)

    def cells_adjacent(self, ploc_id: int) -> FrozenSet[int]:
        """``MIL[p, p]``: adjacent / containing cells of ``p``."""
        return self.cells_of.get(self.resolve(ploc_id), EMPTY_CELLS)

    def cells_between(self, ploc_a: int, ploc_b: int) -> FrozenSet[int]:
        """``MIL[pa, pb]``: the cells directly connecting the two P-locations."""
        pair = (ploc_a, ploc_b)
        cells = self._between.get(pair)
        if cells is None:
            cells_a = self.cells_adjacent(ploc_a)
            cells_b = self.cells_adjacent(ploc_b)
            if not (cells_a and cells_b):
                return EMPTY_CELLS
            cells = self._between[pair] = cells_a & cells_b
        return cells

    def connected(self, ploc_a: int, ploc_b: int) -> bool:
        """Whether ``MIL[pa, pb]`` is non-empty (a direct move is possible)."""
        return bool(self.cells_between(ploc_a, ploc_b))

    def equivalent(self, ploc_a: int, ploc_b: int) -> bool:
        """Whether two P-locations are equivalent (identical cell sets)."""
        return self.cells_adjacent(ploc_a) == self.cells_adjacent(ploc_b)

    def plocation_ids(self) -> List[int]:
        """The P-locations (or representatives, if merged) stored in the matrix."""
        return sorted(self.cells_of)

    # ------------------------------------------------------------------
    # Dimensionality / statistics
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """The number of rows (N for the raw matrix, M ≤ N when merged)."""
        return len(self.cells_of)

    def nonempty_pairs(self) -> int:
        """Count the non-empty upper-triangular entries (including diagonal).

        Quadratic in the stored dimension; intended for diagnostics and the
        matrix ablation benchmark, not for the query hot path.
        """
        ids = self.plocation_ids()
        count = 0
        for i, a in enumerate(ids):
            for b in ids[i:]:
                if self.cells_of[a] & self.cells_of[b]:
                    count += 1
        return count

    def dense(self) -> Dict[Tuple[int, int], FrozenSet[int]]:
        """Materialise the upper-triangular matrix as a dictionary.

        Only intended for small spaces (tests reproducing Figure 3); large
        deployments should use :meth:`cells_between` directly.
        """
        ids = self.plocation_ids()
        matrix: Dict[Tuple[int, int], FrozenSet[int]] = {}
        for i, a in enumerate(ids):
            for b in ids[i:]:
                matrix[(a, b)] = self.cells_of[a] & self.cells_of[b]
        return matrix

    def summary(self) -> Dict[str, int]:
        return {
            "dimension": self.dimension,
            "merged": int(self.is_merged),
            "plocations_mapped": len(self.representative),
        }


def possible_cells_of_sequence(
    matrix: IndoorLocationMatrix, ploc_ids: Iterable[int]
) -> Set[int]:
    """Union of adjacent cells over the P-locations of a positioning sequence.

    Used by the data reduction (Algorithm 1, line 6) to derive an object's
    possible semantic locations: every cell a reported P-location touches may
    have been visited, so the union bounds the object's whereabouts.
    """
    cells: Set[int] = set()
    for ploc_id in ploc_ids:
        cells |= matrix.cells_adjacent(ploc_id)
    return cells
