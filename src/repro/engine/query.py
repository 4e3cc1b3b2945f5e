"""Fluent query builder over logical plans.

:class:`Query` offers a dataframe-flavoured API that desugars to the same
logical plans the SQL parser produces::

    q = (db.query("person")
           .where(col("age").between(0, 4))
           .join(db.query("infected"), on=("pid", "pid"))
           .aggregate(count("pid", alias="n")))
    rows = q.run()
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine import plan as lp
from repro.engine.expressions import Column, Expression, col
from repro.engine.operators import ExecutionMetrics, TableProvider, executor_for
from repro.errors import QueryError

Row = Dict[str, Any]


def _as_expression(item: Union[str, Expression]) -> Expression:
    return col(item) if isinstance(item, str) else item


def _alias_for(item: Union[str, Expression], index: int) -> str:
    if isinstance(item, str):
        return item
    if isinstance(item, Column):
        return item.name
    return f"expr_{index}"


def agg(
    func: str,
    argument: Union[str, Expression, None] = None,
    alias: Optional[str] = None,
    distinct: bool = False,
) -> lp.AggregateSpec:
    """Build an aggregate specification.

    >>> agg("count", alias="n")
    AggregateSpec(func='count', argument=None, alias='n', distinct=False)
    """
    expr = None if argument is None else _as_expression(argument)
    if alias is None:
        base = argument if isinstance(argument, str) else "value"
        alias = f"{func}_{base}" if argument is not None else func
    return lp.AggregateSpec(func=func, argument=expr, alias=alias, distinct=distinct)


def count(
    argument: Union[str, Expression, None] = None,
    alias: str = "count",
    distinct: bool = False,
) -> lp.AggregateSpec:
    """``COUNT(argument)`` (or ``COUNT(*)`` when argument is ``None``)."""
    return agg("count", argument, alias, distinct)


def sum_(argument: Union[str, Expression], alias: Optional[str] = None):
    """``SUM(argument)``."""
    return agg("sum", argument, alias)


def avg(argument: Union[str, Expression], alias: Optional[str] = None):
    """``AVG(argument)``."""
    return agg("avg", argument, alias)


def min_(argument: Union[str, Expression], alias: Optional[str] = None):
    """``MIN(argument)``."""
    return agg("min", argument, alias)


def max_(argument: Union[str, Expression], alias: Optional[str] = None):
    """``MAX(argument)``."""
    return agg("max", argument, alias)


class Query:
    """An immutable builder wrapping a logical plan.

    Each method returns a new :class:`Query`; nothing executes until
    :meth:`run` (or the owning database's ``execute``).
    """

    def __init__(self, provider: TableProvider, plan: lp.PlanNode) -> None:
        self._provider = provider
        self._plan = plan

    @property
    def plan(self) -> lp.PlanNode:
        """The underlying logical plan."""
        return self._plan

    def _wrap(self, plan: lp.PlanNode) -> "Query":
        return Query(self._provider, plan)

    def where(self, predicate: Expression) -> "Query":
        """Filter rows by ``predicate``."""
        return self._wrap(lp.Filter(self._plan, predicate))

    def select(self, *items: Union[str, Expression], **named: Expression) -> "Query":
        """Project to the given columns/expressions.

        Positional items keep their own name; keyword items are aliased.
        """
        exprs: List[Expression] = []
        aliases: List[str] = []
        for i, item in enumerate(items):
            exprs.append(_as_expression(item))
            aliases.append(_alias_for(item, i))
        for alias, expr in named.items():
            exprs.append(_as_expression(expr))
            aliases.append(alias)
        if not exprs:
            raise QueryError("select() needs at least one column")
        return self._wrap(
            lp.Project(self._plan, tuple(exprs), tuple(aliases))
        )

    def join(
        self,
        other: "Query",
        on: Optional[Union[Expression, Tuple[str, str]]] = None,
        how: str = "inner",
    ) -> "Query":
        """Join with another query.

        ``on`` may be an expression or a ``(left_col, right_col)`` pair.
        """
        if isinstance(on, tuple):
            left_name, right_name = on
            condition: Optional[Expression] = col(left_name) == col(right_name)
        else:
            condition = on
        return self._wrap(
            lp.Join(self._plan, other._plan, condition, how)
        )

    def aggregate(
        self,
        *aggregates: lp.AggregateSpec,
        group_by: Sequence[Union[str, Expression]] = (),
    ) -> "Query":
        """Group by the given keys and compute aggregates."""
        keys = [_as_expression(g) for g in group_by]
        aliases = [_alias_for(g, i) for i, g in enumerate(group_by)]
        return self._wrap(
            lp.Aggregate(
                self._plan, tuple(keys), tuple(aliases), tuple(aggregates)
            )
        )

    def order_by(
        self, *keys: Union[str, Expression], descending: bool = False
    ) -> "Query":
        """Sort by the given keys (uniform direction)."""
        exprs = tuple(_as_expression(k) for k in keys)
        return self._wrap(
            lp.OrderBy(self._plan, exprs, tuple(descending for _ in exprs))
        )

    def limit(self, count: int) -> "Query":
        """Keep only the first ``count`` rows."""
        if count < 0:
            raise QueryError("limit must be non-negative")
        return self._wrap(lp.Limit(self._plan, count))

    def distinct(self) -> "Query":
        """Remove duplicate rows."""
        return self._wrap(lp.Distinct(self._plan))

    def union(self, other: "Query") -> "Query":
        """Bag union with another query of as many columns, matched by
        position; the result takes this query's column names."""
        return self._wrap(lp.Union(self._plan, other._plan))

    def run(
        self,
        metrics: Optional[ExecutionMetrics] = None,
        execution: Optional[str] = None,
    ) -> List[Row]:
        """Execute the plan and return materialized rows.

        ``execution`` is ``"columnar"`` (``None`` means it) or ``"row"``,
        the reference executor, as for
        :meth:`repro.engine.catalog.Database.execute_plan`.
        """
        executor = executor_for(self._provider, self._plan, execution, metrics)
        return executor.execute(self._plan)

    def scalar(self) -> Any:
        """Execute and return the single value of a single-row/column result."""
        rows = self.run()
        if len(rows) != 1 or len(rows[0]) != 1:
            raise QueryError(
                f"scalar() needs a 1x1 result, got {len(rows)} row(s)"
            )
        return next(iter(rows[0].values()))

    def values(self, column: str) -> List[Any]:
        """Execute and return a single column as a list."""
        return [row[column] for row in self.run()]

    def count_rows(self) -> int:
        """Execute and return the number of result rows."""
        return len(self.run())
