"""Grids of heterogeneous cells with an incidence relation.

Howe & Maier's gridfield algebra (Section 2.2 of the paper) models
scientific meshes as *grids*: "a collection of heterogeneous abstract
cells of various dimensions" with an incidence relation ``x <= y`` meaning
``x = y`` or ``dim(x) < dim(y)`` and ``x`` touches ``y`` (a line segment
coinciding with the side of a square, a node being a corner of an edge).

Cells are identified by hashable ids grouped by dimension.  The incidence
relation is stored upward (cell → the higher-dimensional cells it
bounds); the downward direction is derived.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Set, Tuple

from repro.errors import GridError

CellId = Any


class Grid:
    """A grid: cells per dimension plus incidence."""

    def __init__(self) -> None:
        self._cells: Dict[int, Set[CellId]] = {}
        self._up: Dict[Tuple[int, CellId], Set[Tuple[int, CellId]]] = {}

    # -- construction ----------------------------------------------------
    def add_cell(self, dim: int, cell_id: CellId) -> None:
        """Register a cell of dimension ``dim``."""
        if dim < 0:
            raise GridError(f"dimension must be >= 0, got {dim}")
        self._cells.setdefault(dim, set()).add(cell_id)

    def add_incidence(
        self, low_dim: int, low_id: CellId, high_dim: int, high_id: CellId
    ) -> None:
        """Record ``(low_dim, low_id) <= (high_dim, high_id)``."""
        if low_dim >= high_dim:
            raise GridError(
                f"incidence requires dim {low_dim} < dim {high_dim}"
            )
        if low_id not in self.cells(low_dim):
            raise GridError(f"unknown {low_dim}-cell {low_id!r}")
        if high_id not in self.cells(high_dim):
            raise GridError(f"unknown {high_dim}-cell {high_id!r}")
        self._up.setdefault((low_dim, low_id), set()).add((high_dim, high_id))

    # -- access ------------------------------------------------------------
    @property
    def dimensions(self) -> List[int]:
        """Dimensions present, ascending."""
        return sorted(d for d, cells in self._cells.items() if cells)

    def cells(self, dim: int) -> FrozenSet[CellId]:
        """Ids of all cells of dimension ``dim``."""
        return frozenset(self._cells.get(dim, set()))

    def size(self, dim: int) -> int:
        """Number of cells of dimension ``dim``."""
        return len(self._cells.get(dim, ()))

    def incident_up(self, dim: int, cell_id: CellId) -> FrozenSet[Tuple[int, CellId]]:
        """Higher-dimensional cells this cell bounds."""
        return frozenset(self._up.get((dim, cell_id), set()))

    def incident_down(
        self, dim: int, cell_id: CellId
    ) -> FrozenSet[Tuple[int, CellId]]:
        """Lower-dimensional cells bounding this cell."""
        out = set()
        for (low_dim, low_id), highs in self._up.items():
            if (dim, cell_id) in highs:
                out.add((low_dim, low_id))
        return frozenset(out)

    def leq(self, a: Tuple[int, CellId], b: Tuple[int, CellId]) -> bool:
        """The incidence partial order ``a <= b`` from the paper."""
        if a == b:
            return True
        return b in self._up.get(a, set())

    # -- set-like operations ----------------------------------------------
    def union(self, other: "Grid") -> "Grid":
        """Cell-wise union of two grids (incidences merged)."""
        out = Grid()
        for g in (self, other):
            for dim, cells in g._cells.items():
                for cell_id in cells:
                    out.add_cell(dim, cell_id)
        for g in (self, other):
            for (low_dim, low_id), highs in g._up.items():
                for high_dim, high_id in highs:
                    out.add_incidence(low_dim, low_id, high_dim, high_id)
        return out

    def intersection(self, other: "Grid") -> "Grid":
        """Cell-wise intersection (incidences restricted to kept cells)."""
        out = Grid()
        for dim in set(self._cells) & set(other._cells):
            for cell_id in self.cells(dim) & other.cells(dim):
                out.add_cell(dim, cell_id)
        for (low_dim, low_id), highs in self._up.items():
            if low_id not in out.cells(low_dim):
                continue
            for high_dim, high_id in highs:
                if high_id in out.cells(high_dim) and (
                    (low_dim, low_id) in other._up
                    and (high_dim, high_id) in other._up[(low_dim, low_id)]
                ):
                    out.add_incidence(low_dim, low_id, high_dim, high_id)
        return out

    def subgrid(self, keep: Dict[int, Set[CellId]]) -> "Grid":
        """The grid induced by keeping only the given cells."""
        out = Grid()
        for dim, cells in keep.items():
            unknown = cells - self._cells.get(dim, set())
            if unknown:
                raise GridError(
                    f"cannot keep unknown {dim}-cells {sorted(map(repr, unknown))[:3]}"
                )
            for cell_id in cells:
                out.add_cell(dim, cell_id)
        for (low_dim, low_id), highs in self._up.items():
            if low_id not in out.cells(low_dim):
                continue
            for high_dim, high_id in highs:
                if high_id in out.cells(high_dim):
                    out.add_incidence(low_dim, low_id, high_dim, high_id)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self._cells == other._cells and self._up == other._up

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{self.size(d)}x{d}-cells" for d in self.dimensions
        )
        return f"Grid({parts})"


def regular_grid_2d(nx: int, ny: int) -> Grid:
    """A structured 2-D grid of ``nx * ny`` quadrilateral 2-cells.

    0-cells are nodes ``(i, j)``; 1-cells are edges
    ``("h", i, j)`` / ``("v", i, j)``; 2-cells are quads ``(i, j)`` with
    ``0 <= i < nx`` and ``0 <= j < ny``.  All incidences are populated —
    the structure the CORIE estuary simulations bind data onto.
    """
    if nx < 1 or ny < 1:
        raise GridError("need nx >= 1 and ny >= 1")
    grid = Grid()
    for i in range(nx + 1):
        for j in range(ny + 1):
            grid.add_cell(0, (i, j))
    for i in range(nx):
        for j in range(ny + 1):
            grid.add_cell(1, ("h", i, j))
    for i in range(nx + 1):
        for j in range(ny):
            grid.add_cell(1, ("v", i, j))
    for i in range(nx):
        for j in range(ny):
            grid.add_cell(2, (i, j))
    # node -> edge incidence
    for i in range(nx):
        for j in range(ny + 1):
            grid.add_incidence(0, (i, j), 1, ("h", i, j))
            grid.add_incidence(0, (i + 1, j), 1, ("h", i, j))
    for i in range(nx + 1):
        for j in range(ny):
            grid.add_incidence(0, (i, j), 1, ("v", i, j))
            grid.add_incidence(0, (i, j + 1), 1, ("v", i, j))
    # node/edge -> quad incidence
    for i in range(nx):
        for j in range(ny):
            for corner in ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)):
                grid.add_incidence(0, corner, 2, (i, j))
            grid.add_incidence(1, ("h", i, j), 2, (i, j))
            grid.add_incidence(1, ("h", i, j + 1), 2, (i, j))
            grid.add_incidence(1, ("v", i, j), 2, (i, j))
            grid.add_incidence(1, ("v", i + 1, j), 2, (i, j))
    return grid
