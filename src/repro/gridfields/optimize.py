"""Algebraic optimization of gridfield plans: commuting restrict and regrid.

The paper highlights that "certain 'restriction' operations ... can commute
with the regrid operator, creating opportunities for optimization".  The
canonical case: a query regrids a fine source field onto a coarse target
and then restricts the *target* cells by a predicate on the target's own
geometry (not on the aggregated values).  Because the restriction does not
depend on the regridded data, it can be applied to the target *first*, and
only source cells assigned to surviving target cells need to be
aggregated — the gridfield analogue of relational predicate pushdown.

Both plans are implemented with shared cost accounting; equality of their
outputs is the correctness property the tests check, and the cost gap is
the AN-GF benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.gridfields.grid import CellId
from repro.gridfields.gridfield import GridField, OpCost


def regrid_then_restrict(
    source: GridField,
    target: GridField,
    source_dim: int,
    target_dim: int,
    assignment: Callable[[CellId], Optional[CellId]],
    attribute: str,
    predicate: Callable[[CellId, Dict[str, float]], bool],
    aggregate: str = "mean",
) -> Tuple[GridField, OpCost]:
    """The naive plan: aggregate everything, then filter target cells."""
    cost = OpCost()
    regridded = source.regrid(
        target,
        source_dim,
        target_dim,
        assignment,
        attribute,
        aggregate=aggregate,
        cost=cost,
    )
    restricted = regridded.restrict(target_dim, predicate, cost=cost)
    return restricted, cost


def restrict_then_regrid(
    source: GridField,
    target: GridField,
    source_dim: int,
    target_dim: int,
    assignment: Callable[[CellId], Optional[CellId]],
    attribute: str,
    predicate: Callable[[CellId, Dict[str, float]], bool],
    aggregate: str = "mean",
) -> Tuple[GridField, OpCost]:
    """The commuted plan: filter the target first, regrid only survivors.

    Valid when ``predicate`` depends only on the target cell and its
    *pre-existing* attributes (not on the attribute produced by the
    regrid) — the commutation precondition from the paper.
    """
    cost = OpCost()
    restricted_target = target.restrict(target_dim, predicate, cost=cost)
    surviving = restricted_target.grid.cells(target_dim)

    def pruned_assignment(cell_id: CellId) -> Optional[CellId]:
        assigned = assignment(cell_id)
        if assigned is None or assigned not in surviving:
            return None
        return assigned

    regridded = source.regrid(
        restricted_target,
        source_dim,
        target_dim,
        pruned_assignment,
        attribute,
        aggregate=aggregate,
        cost=cost,
    )
    return regridded, cost


def plans_agree(
    a: GridField, b: GridField, dim: int, attribute: str, tol: float = 1e-12
) -> bool:
    """Check that two plans produced identical attribute bindings."""
    cells_a = a.grid.cells(dim)
    cells_b = b.grid.cells(dim)
    if cells_a != cells_b:
        return False
    va = a.attribute(dim, attribute)
    vb = b.attribute(dim, attribute)
    for cell_id in cells_a:
        x, y = va[cell_id], vb[cell_id]
        if x != x and y != y:  # both NaN
            continue
        if abs(x - y) > tol:
            return False
    return True
