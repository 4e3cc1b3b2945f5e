"""Gridfields: data bound to grid cells, plus the core operators.

"A gridfield results from binding data to a grid by specifying, for each
dimension k, a function f_k that operates on cells of dimension k and
returns a data value."  We store bindings as per-dimension dictionaries of
named attributes.  The operators implemented are the ones the paper
discusses:

* ``bind`` — attach an attribute to the cells of one dimension;
* ``restrict`` — the relational-selection analogue: keep the cells of one
  dimension satisfying a predicate (inducing a subgrid);
* ``regrid`` — map a source gridfield's cells onto a target gridfield's
  cells via a many-to-one assignment function, aggregating the bound
  values;
* ``merge`` — combine attribute sets of two gridfields over the
  intersection of their grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Set

import numpy as np

from repro.errors import GridError
from repro.gridfields.grid import CellId, Grid

AggregateFn = Callable[[List[float]], float]

AGGREGATES: Dict[str, AggregateFn] = {
    "mean": lambda values: float(np.mean(values)),
    "sum": lambda values: float(np.sum(values)),
    "min": lambda values: float(np.min(values)),
    "max": lambda values: float(np.max(values)),
    "count": lambda values: float(len(values)),
}


@dataclass
class OpCost:
    """Work counters for gridfield operators (for the optimizer benchmark)."""

    cells_examined: int = 0
    assignments_evaluated: int = 0
    values_aggregated: int = 0

    def merge(self, other: "OpCost") -> "OpCost":
        """Sum of two cost records."""
        return OpCost(
            self.cells_examined + other.cells_examined,
            self.assignments_evaluated + other.assignments_evaluated,
            self.values_aggregated + other.values_aggregated,
        )


class GridField:
    """A grid with named attributes bound per dimension."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        # attributes[dim][name][cell_id] = value
        self._attributes: Dict[int, Dict[str, Dict[CellId, float]]] = {}

    # -- binding -----------------------------------------------------------
    def bind(
        self, dim: int, name: str, values: Mapping[CellId, float]
    ) -> "GridField":
        """Attach attribute ``name`` to the ``dim``-cells (in place).

        Every cell of the dimension must receive a value (a gridfield's
        binding is a total function on the cells of its dimension).
        """
        cells = self.grid.cells(dim)
        if not cells:
            raise GridError(f"grid has no {dim}-cells to bind {name!r} to")
        missing = cells - set(values)
        if missing:
            raise GridError(
                f"binding {name!r} misses {len(missing)} of "
                f"{len(cells)} {dim}-cells"
            )
        extra = set(values) - cells
        if extra:
            raise GridError(
                f"binding {name!r} covers {len(extra)} unknown cells"
            )
        self._attributes.setdefault(dim, {})[name] = {
            c: float(values[c]) for c in cells
        }
        return self

    def bind_by_function(
        self, dim: int, name: str, fn: Callable[[CellId], float]
    ) -> "GridField":
        """Bind by evaluating ``fn`` on every cell (the paper's f_k)."""
        return self.bind(
            dim, name, {c: fn(c) for c in self.grid.cells(dim)}
        )

    # -- access ------------------------------------------------------------
    def attribute(self, dim: int, name: str) -> Dict[CellId, float]:
        """The values of one attribute."""
        try:
            return self._attributes[dim][name]
        except KeyError:
            raise GridError(
                f"no attribute {name!r} on {dim}-cells; "
                f"have {self.attribute_names(dim)}"
            ) from None

    def attribute_names(self, dim: int) -> List[str]:
        """Attribute names bound to dimension ``dim``."""
        return sorted(self._attributes.get(dim, {}))

    # -- operators ----------------------------------------------------------
    def restrict(
        self,
        dim: int,
        predicate: Callable[[CellId, Dict[str, float]], bool],
        cost: Optional[OpCost] = None,
    ) -> "GridField":
        """Keep the ``dim``-cells satisfying ``predicate``.

        The predicate sees the cell id and its attribute values.  Cells of
        other dimensions survive; incidences to dropped cells are removed
        by the induced subgrid.  This is the operator the paper notes is
        "analogous to standard relational selection".
        """
        cost = cost if cost is not None else OpCost()
        keep: Set[CellId] = set()
        for cell_id in self.grid.cells(dim):
            cost.cells_examined += 1
            attrs = {
                name: values[cell_id]
                for name, values in self._attributes.get(dim, {}).items()
            }
            if predicate(cell_id, attrs):
                keep.add(cell_id)
        keep_map = {
            d: (keep if d == dim else set(self.grid.cells(d)))
            for d in self.grid.dimensions
        }
        new_grid = self.grid.subgrid(keep_map)
        out = GridField(new_grid)
        for d, named in self._attributes.items():
            for name, values in named.items():
                out.bind(
                    d,
                    name,
                    {c: v for c, v in values.items() if c in new_grid.cells(d)},
                )
        return out

    def regrid(
        self,
        target: "GridField",
        source_dim: int,
        target_dim: int,
        assignment: Callable[[CellId], Optional[CellId]],
        attribute: str,
        aggregate: str = "mean",
        output_name: Optional[str] = None,
        default: float = float("nan"),
        cost: Optional[OpCost] = None,
    ) -> "GridField":
        """Map source cells onto target cells and aggregate bound values.

        ``assignment`` is the many-to-one map from source ``source_dim``
        cells to target ``target_dim`` cells (``None`` drops the source
        cell).  Target cells receiving no source cell get ``default``.
        Returns a *new* gridfield on the target grid with the aggregated
        attribute added.
        """
        if aggregate not in AGGREGATES:
            raise GridError(
                f"unknown aggregate {aggregate!r}; have {sorted(AGGREGATES)}"
            )
        cost = cost if cost is not None else OpCost()
        source_values = self.attribute(source_dim, attribute)
        target_cells = target.grid.cells(target_dim)
        buckets: Dict[CellId, List[float]] = {}
        for cell_id, value in source_values.items():
            cost.assignments_evaluated += 1
            assigned = assignment(cell_id)
            if assigned is None:
                continue
            if assigned not in target_cells:
                raise GridError(
                    f"assignment maps {cell_id!r} to unknown target "
                    f"cell {assigned!r}"
                )
            buckets.setdefault(assigned, []).append(value)
        agg_fn = AGGREGATES[aggregate]
        out_values: Dict[CellId, float] = {}
        for cell_id in target_cells:
            values = buckets.get(cell_id)
            if values:
                cost.values_aggregated += len(values)
                out_values[cell_id] = agg_fn(values)
            else:
                out_values[cell_id] = default
        out = GridField(target.grid)
        for d, named in target._attributes.items():
            for name, values in named.items():
                out.bind(d, name, values)
        out.bind(target_dim, output_name or attribute, out_values)
        return out

    def merge(self, other: "GridField") -> "GridField":
        """Combine attributes over the intersection of the two grids."""
        grid = self.grid.intersection(other.grid)
        out = GridField(grid)
        for source in (self, other):
            for d, named in source._attributes.items():
                for name, values in named.items():
                    cells = grid.cells(d)
                    if not cells:
                        continue
                    subset = {c: v for c, v in values.items() if c in cells}
                    if len(subset) == len(cells):
                        out.bind(d, name, subset)
        return out
