"""Logical query plans.

A plan is an immutable tree of nodes; the executor
(:mod:`repro.engine.operators`) interprets it and the optimizer
(:mod:`repro.engine.optimizer`) rewrites it.  Keeping logical plans as plain
dataclasses makes rewrites (predicate pushdown, join reordering) simple
structural transformations — the same architecture the paper invokes when it
argues that simulation-experiment optimization "subsumes the problem of
query optimization".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

from repro.engine.expressions import (
    BinaryOp,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    UnaryOp,
)
from repro.errors import QueryError


class PlanNode:
    """Base class for logical plan nodes."""

    def children(self) -> Tuple["PlanNode", ...]:
        """Child plan nodes."""
        return ()

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """Return a copy of this node with new children."""
        if children:
            raise QueryError(f"{type(self).__name__} takes no children")
        return self


@dataclass(frozen=True)
class Scan(PlanNode):
    """Scan a named base table, optionally aliasing its columns."""

    table: str
    alias: Optional[str] = None

    @property
    def effective_name(self) -> str:
        """The name this relation is visible as downstream."""
        return self.alias or self.table


@dataclass(frozen=True)
class Values(PlanNode):
    """An inline relation (list of row dicts), used for literals/tests."""

    rows: Tuple[Any, ...]


@dataclass(frozen=True)
class Filter(PlanNode):
    """Keep rows where ``predicate`` evaluates to ``True``."""

    child: PlanNode
    predicate: Expression

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Project(PlanNode):
    """Compute output columns ``aliases[i] = expressions[i]``."""

    child: PlanNode
    expressions: Tuple[Expression, ...]
    aliases: Tuple[str, ...]

    def __post_init__(self):
        if len(self.expressions) != len(self.aliases):
            raise QueryError("projection aliases/expressions mismatch")
        if len(set(self.aliases)) != len(self.aliases):
            raise QueryError(
                f"duplicate projection aliases {list(self.aliases)}; "
                "alias the columns explicitly"
            )

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Join(PlanNode):
    """Join two relations.

    ``condition`` may be ``None`` for a cross join.  ``how`` is ``"inner"``
    or ``"left"``.  Equi-joins run as hash joins, anything else as a
    nested loop.
    """

    left: PlanNode
    right: PlanNode
    condition: Optional[Expression] = None
    how: str = "inner"

    def __post_init__(self):
        if self.how not in ("inner", "left"):
            raise QueryError(f"unsupported join type {self.how!r}")

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return replace(self, left=left, right=right)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute: ``alias = func(argument)``.

    ``func`` is one of ``count``, ``sum``, ``avg``, ``min``, ``max``,
    ``var``, ``std``.  ``argument`` is ``None`` only for ``count(*)``.
    """

    func: str
    argument: Optional[Expression]
    alias: str
    distinct: bool = False

    _FUNCS = ("count", "sum", "avg", "min", "max", "var", "std")

    def __post_init__(self):
        if self.func not in self._FUNCS:
            raise QueryError(
                f"unknown aggregate {self.func!r}; supported: {self._FUNCS}"
            )
        if self.argument is None and self.func != "count":
            raise QueryError(f"{self.func}(*) is not defined")


@dataclass(frozen=True)
class Aggregate(PlanNode):
    """Group-by aggregation."""

    child: PlanNode
    group_by: Tuple[Expression, ...]
    group_aliases: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...]

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class OrderBy(PlanNode):
    """Sort by expressions with per-key direction flags."""

    child: PlanNode
    keys: Tuple[Expression, ...]
    descending: Tuple[bool, ...]

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Limit(PlanNode):
    """Keep the first ``count`` rows."""

    child: PlanNode
    count: int

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Distinct(PlanNode):
    """Remove duplicate rows."""

    child: PlanNode

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return replace(self, child=child)


@dataclass(frozen=True)
class Union(PlanNode):
    """Bag union of two relations with as many columns, matched by
    position; the output takes the left relation's column names."""

    left: PlanNode
    right: PlanNode

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return replace(self, left=left, right=right)


def map_expressions(node: PlanNode, fn) -> PlanNode:
    """Rebuild a plan with every embedded expression passed through ``fn``.

    ``fn`` maps an :class:`~repro.engine.expressions.Expression` to a
    replacement expression (see
    :func:`repro.engine.expressions.transform_expression`).  Used by the
    database to materialize uncorrelated ``IN (SELECT ...)`` subqueries.
    """
    children = [map_expressions(c, fn) for c in node.children()]
    if children:
        node = node.with_children(children)
    if isinstance(node, Filter):
        return replace(node, predicate=fn(node.predicate))
    if isinstance(node, Project):
        return replace(
            node, expressions=tuple(fn(e) for e in node.expressions)
        )
    if isinstance(node, Join) and node.condition is not None:
        return replace(node, condition=fn(node.condition))
    if isinstance(node, Aggregate):
        return replace(
            node,
            group_by=tuple(fn(g) for g in node.group_by),
            aggregates=tuple(
                AggregateSpec(
                    a.func,
                    None if a.argument is None else fn(a.argument),
                    a.alias,
                    a.distinct,
                )
                for a in node.aggregates
            ),
        )
    if isinstance(node, OrderBy):
        return replace(node, keys=tuple(fn(k) for k in node.keys))
    return node


def _node_expressions(node: PlanNode) -> Tuple[Expression, ...]:
    """The expressions ``node`` itself holds: those :func:`map_expressions`
    passes to its ``fn``, in the same order."""
    if isinstance(node, Filter):
        return (node.predicate,)
    if isinstance(node, Project):
        return node.expressions
    if isinstance(node, Join) and node.condition is not None:
        return (node.condition,)
    if isinstance(node, Aggregate):
        return node.group_by + tuple(
            a.argument for a in node.aggregates if a.argument is not None
        )
    if isinstance(node, OrderBy):
        return node.keys
    return ()


def subqueries(plan: PlanNode) -> List[InSubquery]:
    """Every ``IN (SELECT ...)`` in the expressions of ``plan``'s nodes,
    in no particular order.

    A read-only walk: nothing is rebuilt, and the plans of the
    subqueries found are not entered.
    """
    expressions: List[Expression] = []
    nodes = [plan]
    while nodes:
        node = nodes.pop()
        nodes.extend(node.children())
        expressions.extend(_node_expressions(node))
    found = []
    while expressions:
        expr = expressions.pop()
        # Exact types, not ``isinstance``: an ``isinstance`` against these
        # ABC-derived classes costs several times the rest of the walk.
        kind = type(expr)
        if kind is BinaryOp:
            expressions.append(expr.left)
            expressions.append(expr.right)
        elif kind is UnaryOp or kind is InList or kind is IsNull:
            expressions.append(expr.operand)
        elif kind is FunctionCall:
            expressions.extend(expr.args)
        elif kind is InSubquery:
            found.append(expr)
            expressions.append(expr.operand)
    return found


def walk(node: PlanNode):
    """Yield every node of the plan in depth-first pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)


def node_label(node: PlanNode) -> str:
    """A short, stable label for one node, used as a metric/trace key.

    Scans carry their table (so ``engine.operator.rows{op=Scan(person)}``
    separates per-relation flow) and joins their strategy-relevant kind;
    everything else is just the class name.  Labels must be stable across
    runs and backends — no ids, no memory addresses.
    """
    if isinstance(node, Scan):
        return f"Scan({node.effective_name})"
    if isinstance(node, Join):
        return f"Join({node.how})"
    return type(node).__name__


def plan_signature(node: PlanNode) -> str:
    """A one-line structural rendering, e.g. ``Project(Filter(Scan(t)))``.

    Attached to ``engine.execute`` tracing spans so a trace identifies
    *which* plan a timing belongs to without the multi-line summary.
    """
    children = node.children()
    if not children:
        return node_label(node)
    inner = ",".join(plan_signature(c) for c in children)
    return f"{node_label(node)}({inner})"


def plan_summary(node: PlanNode, indent: int = 0) -> str:
    """A human-readable indented rendering of the plan tree."""
    pad = "  " * indent
    if isinstance(node, Scan):
        line = f"{pad}Scan({node.table}"
        if node.alias:
            line += f" as {node.alias}"
        line += ")"
    elif isinstance(node, Filter):
        line = f"{pad}Filter({node.predicate!r})"
    elif isinstance(node, Project):
        line = f"{pad}Project({', '.join(node.aliases)})"
    elif isinstance(node, Join):
        cond = repr(node.condition) if node.condition is not None else "cross"
        line = f"{pad}Join[{node.how}]({cond})"
    elif isinstance(node, Aggregate):
        aggs = ", ".join(a.alias for a in node.aggregates)
        line = f"{pad}Aggregate(group={list(node.group_aliases)}, aggs=[{aggs}])"
    else:
        line = f"{pad}{type(node).__name__}"
    parts = [line]
    for child in node.children():
        parts.append(plan_summary(child, indent + 1))
    return "\n".join(parts)
