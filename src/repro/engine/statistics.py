"""Catalog statistics for cost-based optimization.

Section 2.3 of the paper draws an explicit analogy between estimating the
run-cost/variance statistics of simulation components and "estimating
catalog statistics for a relational database system".  This module is the
database side of that analogy: per-table row counts, per-column distinct
counts and min/max, and the selectivity/cardinality estimation formulas a
textbook System-R style optimizer uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.engine.expressions import (
    BinaryOp,
    Column,
    Expression,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.engine.table import Table

_DEFAULT_SELECTIVITY = {
    "=": 0.1,
    "!=": 0.9,
    "<": 1.0 / 3.0,
    "<=": 1.0 / 3.0,
    ">": 1.0 / 3.0,
    ">=": 1.0 / 3.0,
}


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics for a single column."""

    distinct_count: int
    null_count: int
    minimum: Optional[float]
    maximum: Optional[float]


@dataclass
class TableStatistics:
    """Summary statistics for a table."""

    row_count: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    @classmethod
    def collect(cls, table: Table) -> "TableStatistics":
        """Scan ``table`` once and collect per-column statistics."""
        stats = cls(row_count=len(table))
        for name in table.schema.names:
            values = table.column_values(name)
            non_null = [v for v in values if v is not None]
            numeric = [
                v
                for v in non_null
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
            stats.columns[name] = ColumnStatistics(
                distinct_count=len(set(non_null)),
                null_count=len(values) - len(non_null),
                minimum=float(min(numeric)) if numeric else None,
                maximum=float(max(numeric)) if numeric else None,
            )
        return stats

    def column(self, name: str) -> Optional[ColumnStatistics]:
        """Column statistics by (possibly qualified) name."""
        if name in self.columns:
            return self.columns[name]
        suffix = "." + name
        matches = [k for k in self.columns if k.endswith(suffix)]
        if len(matches) == 1:
            return self.columns[matches[0]]
        # Also allow qualified lookups against unqualified stats.
        tail = name.rsplit(".", 1)[-1]
        return self.columns.get(tail)


def equality_selectivity(
    stats: TableStatistics, column_name: str
) -> float:
    """Selectivity estimate for ``column = constant`` (1/NDV heuristic)."""
    col_stats = stats.column(column_name)
    if col_stats is None or col_stats.distinct_count == 0:
        return _DEFAULT_SELECTIVITY["="]
    return 1.0 / col_stats.distinct_count


def range_selectivity(
    stats: TableStatistics, column_name: str, op: str, constant: float
) -> float:
    """Selectivity estimate for ``column <op> constant`` via min/max interpolation."""
    col_stats = stats.column(column_name)
    if (
        col_stats is None
        or col_stats.minimum is None
        or col_stats.maximum is None
        or col_stats.maximum <= col_stats.minimum
    ):
        return _DEFAULT_SELECTIVITY.get(op, 0.5)
    span = col_stats.maximum - col_stats.minimum
    fraction = (constant - col_stats.minimum) / span
    fraction = min(max(fraction, 0.0), 1.0)
    if op in ("<", "<="):
        return fraction
    if op in (">", ">="):
        return 1.0 - fraction
    return _DEFAULT_SELECTIVITY.get(op, 0.5)


def predicate_selectivity(
    predicate: Expression, stats: TableStatistics
) -> float:
    """Estimate the fraction of rows satisfying ``predicate``.

    Follows the classical independence assumptions: conjuncts multiply,
    disjuncts combine by inclusion-exclusion, NOT complements.
    """
    if isinstance(predicate, Literal):
        return 1.0 if predicate.value else 0.0
    if isinstance(predicate, UnaryOp) and predicate.op == "not":
        return 1.0 - predicate_selectivity(predicate.operand, stats)
    if isinstance(predicate, InList):
        # ``col IN (v1, ..., vk)``: of the column's NDV distinct values,
        # at most ``min(k_distinct, NDV)`` can match, each holding
        # ~``1/NDV`` of the non-null rows (uniformity assumption) — so
        # the matched fraction is ``min(k, NDV)/NDV`` scaled by the
        # non-null fraction.  Duplicated list literals are deduplicated
        # first; without usable statistics, fall back to the classical
        # ``k × equality-selectivity`` bound.
        distinct_literals = len(set(predicate.values))
        if isinstance(predicate.operand, Column):
            col_stats = stats.column(predicate.operand.name)
            if (
                col_stats is not None
                and col_stats.distinct_count > 0
                and stats.row_count > 0
            ):
                ndv = col_stats.distinct_count
                matched = min(distinct_literals, ndv)
                non_null = 1.0 - col_stats.null_count / stats.row_count
                return min(1.0, (matched / ndv) * non_null)
        names = predicate.operand.columns()
        if len(names) == 1:
            sel = equality_selectivity(stats, next(iter(names)))
            return min(1.0, sel * distinct_literals)
        return 0.3
    if isinstance(predicate, IsNull):
        return 0.1 if not predicate.negated else 0.9
    if isinstance(predicate, BinaryOp):
        op = predicate.op
        if op == "and":
            return predicate_selectivity(
                predicate.left, stats
            ) * predicate_selectivity(predicate.right, stats)
        if op == "or":
            a = predicate_selectivity(predicate.left, stats)
            b = predicate_selectivity(predicate.right, stats)
            return a + b - a * b
        col_expr, lit_expr = None, None
        if isinstance(predicate.left, Column) and isinstance(
            predicate.right, Literal
        ):
            col_expr, lit_expr = predicate.left, predicate.right
            effective_op = op
        elif isinstance(predicate.right, Column) and isinstance(
            predicate.left, Literal
        ):
            col_expr, lit_expr = predicate.right, predicate.left
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            effective_op = flip.get(op, op)
        else:
            return _DEFAULT_SELECTIVITY.get(op, 0.5)
        if effective_op == "=":
            return equality_selectivity(stats, col_expr.name)
        if effective_op == "!=":
            return 1.0 - equality_selectivity(stats, col_expr.name)
        # Coerce defensively: literals can be strings (str-typed
        # predicates), bools, or odd numeric-likes (e.g. NumPy
        # scalars); anything that does not cleanly become a finite
        # float falls back to the default selectivity instead of
        # crashing the optimizer.
        constant: Optional[float] = None
        if not isinstance(lit_expr.value, bool):
            try:
                constant = float(lit_expr.value)
            except (TypeError, ValueError):
                constant = None
        if constant is not None and math.isfinite(constant):
            return range_selectivity(
                stats, col_expr.name, effective_op, constant
            )
        return _DEFAULT_SELECTIVITY.get(effective_op, 0.5)
    return 0.5


def join_cardinality(
    left: TableStatistics,
    right: TableStatistics,
    left_key: Optional[str],
    right_key: Optional[str],
) -> float:
    """Classical equi-join cardinality: ``|L||R| / max(ndv_L, ndv_R)``."""
    if left.row_count == 0 or right.row_count == 0:
        return 0.0
    cross = float(left.row_count) * float(right.row_count)
    if left_key is None or right_key is None:
        return cross
    lstats = left.column(left_key)
    rstats = right.column(right_key)
    ndv = max(
        lstats.distinct_count if lstats else 1,
        rstats.distinct_count if rstats else 1,
        1,
    )
    return cross / ndv
