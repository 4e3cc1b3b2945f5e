"""Stochastic ("random") table specifications.

A :class:`RandomTableSpec` is the library analogue of MCDB's

.. code-block:: sql

    CREATE TABLE SBP_DATA(PID, GENDER, SBP) AS
      FOR EACH p IN PATIENTS
        WITH SBP AS Normal((SELECT s.MEAN, s.STD FROM SBP_PARAM s))
      SELECT p.PID, p.GENDER, b.VALUE FROM SBP b

The ``FOR EACH`` loop iterates over an outer (deterministic) table; for each
outer row a VG function is invoked, parametrized by a SQL query over the
non-random tables (optionally depending on the outer row); the output row
combines outer-row columns with generated values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.engine.catalog import Database
from repro.engine.table import Table
from repro.errors import VGFunctionError
from repro.mcdb.vg import VGFunction

Row = Dict[str, Any]
ParamSource = Union[
    None,
    Mapping[str, Any],
    str,
    Callable[[Database, Row], Mapping[str, Any]],
]


@dataclass
class RandomTableSpec:
    """Specification of one stochastic table.

    Parameters
    ----------
    name:
        Name of the generated table.
    vg:
        The VG function generating uncertain values.
    outer_table:
        The ``FOR EACH`` table; one output row is generated per outer row.
        ``None`` generates a single row (a table-level random scalar).
    parameters:
        How to parametrize the VG function.  Either a constant mapping, a
        SQL string evaluated against the database (must return exactly one
        row, whose columns become parameters), a callable
        ``(db, outer_row) -> mapping``, or ``None``.  The row-independent
        sources (mapping, SQL string, ``None``) are evaluated once per
        instantiation, at the first outer row; a callable runs once per
        outer row.  Either way each outer row's VG call receives its own
        ``dict`` of parameters.
    select:
        Mapping from output-column name to its source: either
        ``"outer.<col>"`` (copied from the outer row) or ``"vg.<col>"``
        (taken from the VG output).  When omitted, the output contains all
        outer columns plus all VG columns.
    """

    name: str
    vg: VGFunction
    outer_table: Optional[str] = None
    parameters: ParamSource = None
    select: Optional[Mapping[str, str]] = None

    # -- parameter resolution ------------------------------------------------
    def resolve_parameters(self, db: Database, outer_row: Row) -> Dict[str, Any]:
        """Evaluate the parameter source for one outer row."""
        source = self.parameters
        if source is None:
            return {}
        if callable(source):
            return dict(source(db, outer_row))
        if isinstance(source, str):
            rows = db.sql(source)
            if len(rows) != 1:
                raise VGFunctionError(
                    f"parameter query for {self.name!r} returned "
                    f"{len(rows)} rows; expected exactly 1"
                )
            return dict(rows[0])
        return dict(source)

    def _outer_rows(self, db: Database) -> List[Row]:
        if self.outer_table is None:
            return [{}]
        return [dict(r) for r in db.table(self.outer_table)]

    def _parametrized_rows(
        self, db: Database
    ) -> Iterator[Tuple[Row, Dict[str, Any]]]:
        """Each outer row with its own copy of the VG parameters.

        A row-independent source is resolved at the first outer row
        only (an empty outer table therefore never runs its query); a
        callable source sees every outer row.
        """
        shared: Optional[Dict[str, Any]] = None
        for outer_row in self._outer_rows(db):
            if callable(self.parameters):
                yield outer_row, self.resolve_parameters(db, outer_row)
                continue
            if shared is None:
                shared = self.resolve_parameters(db, outer_row)
            yield outer_row, dict(shared)

    def _assemble(self, outer_row: Row, vg_values: Mapping[str, Any]) -> Row:
        if self.select is None:
            out = dict(outer_row)
            for column, value in vg_values.items():
                if column in out:
                    raise VGFunctionError(
                        f"VG output column {column!r} collides with outer "
                        f"column in table {self.name!r}; use `select`"
                    )
                out[column] = value
            return out
        out = {}
        for target, source in self.select.items():
            realm, _, column = source.partition(".")
            if realm == "outer":
                out[target] = outer_row[column]
            elif realm == "vg":
                out[target] = vg_values[column]
            else:
                raise VGFunctionError(
                    f"select source {source!r} must start with "
                    "'outer.' or 'vg.'"
                )
        return out

    # -- instantiation -------------------------------------------------------
    def instantiate(self, db: Database, rng: np.random.Generator) -> Table:
        """Generate one realization of this table (one database instance).

        This is the *naive* MCDB execution path: each Monte Carlo iteration
        calls ``instantiate`` afresh and runs the query on the result.
        """
        rows = []
        for outer_row, params in self._parametrized_rows(db):
            vg_values = self.vg.generate(rng, params)
            rows.append(self._assemble(outer_row, vg_values))
        if not rows:
            raise VGFunctionError(
                f"random table {self.name!r} generated zero rows; "
                f"outer table {self.outer_table!r} is empty"
            )
        return Table.from_rows(self.name, rows)

    def instantiate_bundle(
        self, db: Database, rng: np.random.Generator, n_mc: int
    ) -> "BundledTable":
        """Generate all ``n_mc`` realizations at once as tuple bundles."""
        from repro.mcdb.tuple_bundle import BundledTable

        bundle_rows: List[Row] = []
        for outer_row, params in self._parametrized_rows(db):
            vg_values = self.vg.generate_bundle(rng, params, n_mc)
            bundle_rows.append(self._assemble(outer_row, vg_values))
        if not bundle_rows:
            raise VGFunctionError(
                f"random table {self.name!r} generated zero rows; "
                f"outer table {self.outer_table!r} is empty"
            )
        return BundledTable(self.name, bundle_rows, n_mc)
