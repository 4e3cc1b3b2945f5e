"""The database catalog: named tables, statistics, query entry points."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.engine import plan as lp
from repro.engine.operators import ExecutionMetrics, TableProvider, executor_for
from repro.engine.optimizer import optimize
from repro.engine.query import Query
from repro.engine.schema import Schema
from repro.engine.statistics import TableStatistics
from repro.engine.table import Row, Table
from repro.errors import CatalogError, QueryError


class Database(TableProvider):
    """An in-process relational database.

    Holds named :class:`~repro.engine.table.Table` objects, collects
    optimizer statistics on demand, and executes both fluent
    (:meth:`query`) and SQL (:meth:`sql`) queries.

    Examples
    --------
    >>> db = Database()
    >>> _ = db.create_table("t", Schema.of(x=int))
    >>> db.table("t").insert({"x": 1})
    >>> db.sql("SELECT x FROM t")
    [{'x': 1}]
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._statistics: Dict[str, TableStatistics] = {}
        self._partitionings: Dict[str, "PartitionedTable"] = {}
        self.metrics = ExecutionMetrics()

    # -- catalog management ----------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema,
        rows: Optional[Iterable[Mapping[str, Any]]] = None,
        replace: bool = False,
    ) -> Table:
        """Create (and register) a new table."""
        if name in self._tables and not replace:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, schema, rows)
        self._tables[name] = table
        self._statistics.pop(name, None)
        self._partitionings.pop(name, None)
        return table

    def register(self, table: Table, replace: bool = False) -> None:
        """Register an externally built table under its own name."""
        if table.name in self._tables and not replace:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self._statistics.pop(table.name, None)
        self._partitionings.pop(table.name, None)

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        if name not in self._tables:
            raise CatalogError(f"cannot drop unknown table {name!r}")
        del self._tables[name]
        self._statistics.pop(name, None)
        self._partitionings.pop(name, None)

    # -- partitioning -----------------------------------------------------
    def partition_table(
        self,
        name: str,
        key: str,
        partitions: int,
        scheme: str = "hash",
    ) -> "PartitionedTable":
        """Register a key-partitioning for ``name`` as catalog metadata.

        No executor reads it: queries run exactly as they would on the
        unpartitioned table.  Re-partitioning a table replaces its
        previous partitioning; position arrays are rebuilt automatically
        when the table mutates.
        """
        from repro.engine.partition import PartitionedTable

        parted = PartitionedTable(self.table(name), key, partitions, scheme)
        self._partitionings[name] = parted
        return parted

    def unpartition_table(self, name: str) -> None:
        """Drop the partitioning of ``name`` (a no-op if none exists)."""
        self._partitionings.pop(name, None)

    def partitioning(self, name: str) -> Optional["PartitionedTable"]:
        """The current partitioning of ``name`` (refreshed), or ``None``."""
        parted = self._partitionings.get(name)
        if parted is None:
            return None
        return parted.refresh()

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; catalog has {sorted(self._tables)}"
            ) from None

    def table_names(self) -> List[str]:
        """Names of all registered tables."""
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    # -- TableProvider ------------------------------------------------------
    def resolve_table(self, name: str) -> Table:
        """Resolve a base table for the executor."""
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"unknown table {name!r}") from None

    # -- statistics ---------------------------------------------------------
    def analyze(self, name: Optional[str] = None) -> None:
        """Collect optimizer statistics for one table or all tables."""
        names = [name] if name is not None else list(self._tables)
        for n in names:
            self._statistics[n] = TableStatistics.collect(self.table(n))

    def statistics(self, name: str) -> Optional[TableStatistics]:
        """Previously collected statistics for ``name`` (or ``None``)."""
        return self._statistics.get(name)

    # -- querying -------------------------------------------------------------
    def query(self, table_name: str, alias: Optional[str] = None) -> Query:
        """Start a fluent query from a base-table scan."""
        self.table(table_name)  # validate eagerly
        return Query(self, lp.Scan(table_name, alias))

    def execute_plan(
        self,
        plan: lp.PlanNode,
        optimized: bool = True,
        execution: Optional[str] = None,
    ) -> List[Row]:
        """Execute a logical plan, optionally optimizing it first.

        Uncorrelated ``IN (SELECT ...)`` subqueries are materialized into
        literal value lists before planning, under the same
        ``execution``: ``"columnar"`` (``None`` means it) or ``"row"``,
        the reference executor; any other value raises
        :class:`~repro.errors.QueryError`.  A columnar plan holding a
        LIMIT not directly over an ORDER BY still runs on the row
        executor (see :func:`~repro.engine.operators.choose_execution`).
        """
        plan = self._materialize_subqueries(plan, execution)
        if optimized:
            plan = self.optimize_plan(plan)
        return executor_for(self, plan, execution, self.metrics).execute(plan)

    def _materialize_subqueries(
        self, plan: lp.PlanNode, execution: Optional[str]
    ) -> lp.PlanNode:
        """``plan`` with each ``IN (SELECT ...)`` run into an ``IN`` list;
        ``plan`` itself, not a copy, when it holds none."""
        if not lp.subqueries(plan):
            return plan
        from repro.engine.expressions import (
            InList,
            InSubquery,
            UnaryOp,
            transform_expression,
        )

        def replace_subquery(expr):
            if not isinstance(expr, InSubquery):
                return None
            rows = self.execute_plan(
                expr.plan, optimized=True, execution=execution
            )
            values = []
            for row in rows:
                if len(row) != 1:
                    raise QueryError(
                        "IN (SELECT ...) subquery must return exactly "
                        f"one column, got {sorted(row)}"
                    )
                values.append(next(iter(row.values())))
            membership = InList(expr.operand, tuple(values))
            if expr.negated:
                return UnaryOp("not", membership)
            return membership

        return lp.map_expressions(
            plan, lambda e: transform_expression(e, replace_subquery)
        )

    def optimize_plan(self, plan: lp.PlanNode) -> lp.PlanNode:
        """Run the optimizer rewrites over ``plan``."""
        def schema_lookup(name: str) -> Sequence[str]:
            return self.table(name).schema.names

        return optimize(plan, schema_lookup, self._statistics.get)

    def explain(self, statement: str) -> str:
        """Render the (optimized) plan of a SELECT statement.

        The textual tree is the database analogue of the paper's
        simulation-run plans: what would execute, after pushdown and
        join reordering.
        """
        from repro.engine.plan import plan_summary
        from repro.engine.sqlparser import parse_select

        plan = self.optimize_plan(parse_select(statement))
        return plan_summary(plan)

    def load_csv(self, name: str, path, schema: Optional[Schema] = None):
        """Load a CSV file as a new table (see
        :func:`repro.engine.csvio.table_from_csv`)."""
        from repro.engine.csvio import table_from_csv

        table = table_from_csv(name, path, schema)
        self.register(table)
        return table

    def dump_csv(self, name: str, path) -> int:
        """Write a table to a CSV file; returns rows written."""
        from repro.engine.csvio import table_to_csv

        return table_to_csv(self.table(name), path)

    def sql(
        self,
        statement: str,
        execution: Optional[str] = None,
    ) -> List[Row]:
        """Parse and execute a SQL statement.

        ``SELECT`` returns rows; DDL/DML statements return an empty list
        (their effect is on the catalog).  See
        :mod:`repro.engine.sqlparser` for the supported dialect, and
        :meth:`execute_plan` for the ``execution`` knob.
        """
        from repro.engine.sqlparser import execute_sql

        return execute_sql(self, statement, execution=execution)
