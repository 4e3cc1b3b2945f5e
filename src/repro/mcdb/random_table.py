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

from dataclasses import dataclass
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
from repro.engine.columnar import ColumnVector
from repro.engine.table import Table
from repro.errors import VGFunctionError
from repro.mcdb.vg import RaggedRealizations, VGFunction, realization_columns

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
        instantiation, and never for an empty outer table; a callable
        runs once per outer row.  Either way each outer row draws as if
        its VG call received its own ``dict`` of parameters.
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
        return db.table(self.outer_table).rows

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
        """One output row from an outer row and its VG values.

        The same rule assembles a naive world's output columns from the
        outer columns and the VG columns, and a tuple bundle's row.
        """
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
    def _outer_columns(
        self, db: Database
    ) -> Tuple[Dict[str, List[Any]], int, Dict[str, Tuple[type, ColumnVector]]]:
        """The outer table's columns, read once, its row count, and each
        column's type and scan-cache vector."""
        if self.outer_table is None:
            return {}, 1, {}
        table = db.table(self.outer_table)
        version = table.version
        batch = table.column_batch()
        columns = {
            name: table.column_values(name) for name in table.schema.names
        }
        n = len(table)
        if table.version != version:
            return columns, n, {}  # written meanwhile: the batch may differ
        vectors = {
            column.name: (column.dtype, batch.columns[column.name])
            for column in table.schema.columns
        }
        return columns, n, vectors

    def _vg_columns(
        self, db: Database, rng: np.random.Generator, n: int
    ) -> Dict[str, List[Any]]:
        """The VG's ``n`` realizations as columns, one per outer row."""
        if callable(self.parameters):
            samples = [
                self.vg.generate(rng, params)
                for _, params in self._parametrized_rows(db)
            ]
            return realization_columns(samples)
        params = self.resolve_parameters(db, {})
        return self.vg.generate_many(rng, params, n)

    def instantiate(self, db: Database, rng: np.random.Generator) -> Table:
        """Generate one realization of this table (one database instance).

        This is the *naive* MCDB execution path: each Monte Carlo iteration
        calls ``instantiate`` afresh and runs the query on the result.

        The world is built a column at a time.  The outer table's columns
        are read once; a row-independent parameter source is resolved
        once and the VG columns come from one
        :meth:`~repro.mcdb.vg.VGFunction.generate_many` call, while a
        callable source sees each outer row and its VG columns come from
        one ``generate`` call per row.  The output columns then go to
        :meth:`Table.from_columns`; a column copied from the outer table
        whose values all have the outer column's exact type takes the
        outer table's scan-cache vector as it is.  Realizations whose
        key sets differ fit no columns and are assembled row by row.  Draws, values,
        types and error messages are those of one ``generate`` per outer
        row, assembled row by row and validated by :meth:`Table.from_rows`.
        """
        outer, n, outer_vectors = self._outer_columns(db)
        if n == 0:
            raise VGFunctionError(
                f"random table {self.name!r} generated zero rows; "
                f"outer table {self.outer_table!r} is empty"
            )
        try:
            vg_columns = self._vg_columns(db, rng, n)
        except RaggedRealizations as ragged:
            pairs = zip(self._outer_rows(db), ragged.samples)
            rows = [self._assemble(row, sample) for row, sample in pairs]
            return Table.from_rows(self.name, rows)
        columns = self._assemble(outer, vg_columns)
        if not columns:
            # An empty ``select``: columns alone cannot say how many rows.
            return Table.from_rows(self.name, [{} for _ in range(n)])
        # The same routing over the outer vectors names the output
        # columns that copy an outer column: a world shares such a
        # column's vector instead of coding its values again.
        shared = (
            self._assemble(outer_vectors, dict.fromkeys(vg_columns))
            if outer_vectors
            else {}
        )
        return Table._from_columns(self.name, columns, shared)

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
