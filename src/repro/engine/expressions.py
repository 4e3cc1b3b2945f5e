"""Scalar expression trees for predicates and projections.

Expressions are small immutable ASTs evaluated against row dictionaries.
They support Python operator overloading, so predicates read naturally::

    from repro.engine import col, lit
    predicate = (col("age") >= 0) & (col("age") <= 4)

Column references may be qualified (``"person.age"``).  An unqualified name
resolves against a row by exact match first, then by unique ``*.name``
suffix match — mirroring SQL name resolution after joins.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import QueryError

Row = Mapping[str, Any]


def resolve_column(row: Row, name: str) -> Any:
    """Resolve ``name`` in ``row`` with SQL-style suffix matching.

    Resolution order: exact key; unique ``*.name`` suffix match; and —
    for a qualified ``name`` against a row whose keys carry no
    qualifiers at all (a single unaliased table) — the bare tail.
    """
    if name in row:
        return row[name]
    suffix = "." + name
    matches = [k for k in row if k.endswith(suffix)]
    if len(matches) == 1:
        return row[matches[0]]
    if len(matches) > 1:
        raise QueryError(
            f"ambiguous column {name!r}: matches {sorted(matches)}"
        )
    if "." in name and not any("." in key for key in row):
        tail = name.rsplit(".", 1)[1]
        if tail in row:
            return row[tail]
    raise QueryError(f"unknown column {name!r}; row has {sorted(row)}")


class Expression(ABC):
    """Base class for scalar expressions."""

    @abstractmethod
    def evaluate(self, row: Row) -> Any:
        """Evaluate this expression against a row."""

    @abstractmethod
    def columns(self) -> FrozenSet[str]:
        """Names of all columns referenced by this expression."""

    # -- operator overloading -------------------------------------------
    def _bin(self, op: str, other: Any, flip: bool = False) -> "BinaryOp":
        other_expr = other if isinstance(other, Expression) else Literal(other)
        left, right = (other_expr, self) if flip else (self, other_expr)
        return BinaryOp(op, left, right)

    def __add__(self, other):
        return self._bin("+", other)

    def __radd__(self, other):
        return self._bin("+", other, flip=True)

    def __sub__(self, other):
        return self._bin("-", other)

    def __rsub__(self, other):
        return self._bin("-", other, flip=True)

    def __mul__(self, other):
        return self._bin("*", other)

    def __rmul__(self, other):
        return self._bin("*", other, flip=True)

    def __truediv__(self, other):
        return self._bin("/", other)

    def __rtruediv__(self, other):
        return self._bin("/", other, flip=True)

    def __mod__(self, other):
        return self._bin("%", other)

    def __eq__(self, other):  # type: ignore[override]
        return self._bin("=", other)

    def __ne__(self, other):  # type: ignore[override]
        return self._bin("!=", other)

    def __lt__(self, other):
        return self._bin("<", other)

    def __le__(self, other):
        return self._bin("<=", other)

    def __gt__(self, other):
        return self._bin(">", other)

    def __ge__(self, other):
        return self._bin(">=", other)

    def __and__(self, other):
        return self._bin("and", other)

    def __or__(self, other):
        return self._bin("or", other)

    def __invert__(self):
        return UnaryOp("not", self)

    def __neg__(self):
        return UnaryOp("-", self)

    def __hash__(self) -> int:  # Expressions are used in sets during rewrite
        return hash(repr(self))

    def is_in(self, values: Sequence[Any]) -> "InList":
        """Build an ``x IN (...)`` membership predicate."""
        return InList(self, tuple(values))

    def between(self, low: Any, high: Any) -> "BinaryOp":
        """Build a ``low <= x AND x <= high`` predicate."""
        return (self >= low) & (self <= high)


class Column(Expression):
    """Reference to a column by (possibly qualified) name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise QueryError("column name must be non-empty")
        self.name = name

    def evaluate(self, row: Row) -> Any:
        return resolve_column(row, self.name)

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, row: Row) -> Any:
        return self.value

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


def _null_safe(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def wrapped(a: Any, b: Any) -> Any:
        if a is None or b is None:
            return None
        return fn(a, b)

    return wrapped


def _sql_and(a: Any, b: Any) -> Any:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return bool(a) and bool(b)


def _sql_or(a: Any, b: Any) -> Any:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return bool(a) or bool(b)


_BINARY_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": _null_safe(operator.add),
    "-": _null_safe(operator.sub),
    "*": _null_safe(operator.mul),
    "/": _null_safe(operator.truediv),
    "%": _null_safe(operator.mod),
    "=": _null_safe(operator.eq),
    "!=": _null_safe(operator.ne),
    "<": _null_safe(operator.lt),
    "<=": _null_safe(operator.le),
    ">": _null_safe(operator.gt),
    ">=": _null_safe(operator.ge),
    "and": _sql_and,
    "or": _sql_or,
}


class BinaryOp(Expression):
    """A binary arithmetic, comparison, or boolean operation."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _BINARY_OPS:
            raise QueryError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: Row) -> Any:
        return _BINARY_OPS[self.op](
            self.left.evaluate(row), self.right.evaluate(row)
        )

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expression):
    """Unary negation or boolean NOT."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression) -> None:
        if op not in ("-", "not"):
            raise QueryError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def evaluate(self, row: Row) -> Any:
        value = self.operand.evaluate(row)
        if value is None:
            return None
        if self.op == "-":
            return -value
        return not value

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


class InList(Expression):
    """SQL ``IN`` membership over a literal list.

    Three-valued as in SQL: a NULL operand gives NULL, and so does a
    value missing from a list that holds NULL; an empty list (an empty
    ``IN (SELECT ...)``) gives false for every operand, NULL included.
    """

    __slots__ = ("operand", "values", "_value_set", "_miss")

    def __init__(self, operand: Expression, values: Tuple[Any, ...]) -> None:
        self.operand = operand
        self.values = values
        self._value_set = set(values)
        self._miss = None if None in self._value_set else False

    def evaluate(self, row: Row) -> Any:
        if not self.values:
            return False
        value = self.operand.evaluate(row)
        if value is None:
            return None
        return True if value in self._value_set else self._miss

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"({self.operand!r} in {self.values!r})"


class InSubquery(Expression):
    """SQL ``x IN (SELECT ...)`` over an *uncorrelated* subquery.

    The subquery plan is materialized into an :class:`InList` by the
    database before execution (see
    :meth:`repro.engine.catalog.Database.execute_plan`); evaluating an
    unmaterialized instance is an error.
    """

    __slots__ = ("operand", "plan", "negated")

    def __init__(self, operand: Expression, plan: Any, negated: bool = False) -> None:
        self.operand = operand
        self.plan = plan
        self.negated = negated

    def evaluate(self, row: Row) -> Any:
        raise QueryError(
            "IN (SELECT ...) was not materialized; execute the query "
            "through Database.sql()/execute_plan()"
        )

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        op = "not in" if self.negated else "in"
        return f"({self.operand!r} {op} <subquery>)"


def transform_expression(
    expr: Expression, fn: Callable[[Expression], Optional[Expression]]
) -> Expression:
    """Rebuild an expression bottom-up, letting ``fn`` replace nodes.

    ``fn`` receives each (already child-transformed) node and returns a
    replacement or ``None`` to keep it.
    """
    if isinstance(expr, BinaryOp):
        rebuilt: Expression = BinaryOp(
            expr.op,
            transform_expression(expr.left, fn),
            transform_expression(expr.right, fn),
        )
    elif isinstance(expr, UnaryOp):
        rebuilt = UnaryOp(expr.op, transform_expression(expr.operand, fn))
    elif isinstance(expr, InList):
        rebuilt = InList(
            transform_expression(expr.operand, fn), expr.values
        )
    elif isinstance(expr, IsNull):
        rebuilt = IsNull(
            transform_expression(expr.operand, fn), expr.negated
        )
    elif isinstance(expr, FunctionCall):
        rebuilt = FunctionCall(
            expr.name,
            [transform_expression(a, fn) for a in expr.args],
        )
    elif isinstance(expr, InSubquery):
        rebuilt = InSubquery(
            transform_expression(expr.operand, fn), expr.plan, expr.negated
        )
    else:
        rebuilt = expr
    replacement = fn(rebuilt)
    return rebuilt if replacement is None else replacement


class IsNull(Expression):
    """SQL ``IS NULL`` / ``IS NOT NULL`` test."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expression, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def evaluate(self, row: Row) -> Any:
        result = self.operand.evaluate(row) is None
        return not result if self.negated else result

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        op = "is not null" if self.negated else "is null"
        return f"({self.operand!r} {op})"


_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "abs": abs,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "floor": math.floor,
    "ceil": math.ceil,
    "round": round,
    "lower": lambda s: s.lower(),
    "upper": lambda s: s.upper(),
    "length": len,
    "coalesce": lambda *args: next(
        (a for a in args if a is not None), None
    ),
    "least": min,
    "greatest": max,
}


class FunctionCall(Expression):
    """A call to a built-in scalar function (``abs``, ``sqrt``, ...)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expression]) -> None:
        lowered = name.lower()
        if lowered not in _FUNCTIONS:
            raise QueryError(
                f"unknown function {name!r}; "
                f"available: {sorted(_FUNCTIONS)}"
            )
        self.name = lowered
        self.args = tuple(args)

    def evaluate(self, row: Row) -> Any:
        values = [a.evaluate(row) for a in self.args]
        if self.name != "coalesce" and any(v is None for v in values):
            return None
        return _FUNCTIONS[self.name](*values)

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for a in self.args:
            out |= a.columns()
        return out

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({inner})"


# ---------------------------------------------------------------------------
# Vectorized (batch) evaluation
# ---------------------------------------------------------------------------

#: Functions with an exact vectorized replica (``math``-identical values
#: *and* error behaviour).  ``round``/``floor``/``ceil`` return Python
#: ints where NumPy returns floats, and the string functions have no
#: NumPy equivalent over object columns — those stay row-only, which is
#: what exercises the executor's per-node row fallback.
VECTORIZED_FUNCTIONS = frozenset({"abs", "sqrt", "exp", "log"})


def is_vectorizable(expr: Expression) -> bool:
    """True when ``expr`` has an exact columnar evaluation.

    The columnar executor only batches plan nodes whose expressions all
    pass this check; anything else runs through the row interpreter, so
    vectorization is never allowed to change results.
    """
    if isinstance(expr, (Column, Literal)):
        return True
    if isinstance(expr, BinaryOp):
        return is_vectorizable(expr.left) and is_vectorizable(expr.right)
    if isinstance(expr, UnaryOp):
        return is_vectorizable(expr.operand)
    if isinstance(expr, (InList, IsNull)):
        return is_vectorizable(expr.operand)
    if isinstance(expr, FunctionCall):
        return expr.name in VECTORIZED_FUNCTIONS and all(
            is_vectorizable(a) for a in expr.args
        )
    return False


def evaluate_batch(expr: Expression, batch: "columnar.ColumnBatch"):
    """Evaluate ``expr`` over a whole :class:`~repro.engine.columnar
    .ColumnBatch`, returning a :class:`~repro.engine.columnar
    .ColumnVector` byte-identical to per-row evaluation.

    Raises :class:`~repro.errors.QueryError` for expressions that
    :func:`is_vectorizable` rejects.
    """
    from repro.engine import columnar

    if isinstance(expr, Column):
        return batch.resolve(expr.name)
    if isinstance(expr, Literal):
        return columnar.vector_from_scalar(expr.value, batch.length)
    if isinstance(expr, BinaryOp):
        if expr.op == "and":
            return columnar.logical_and(
                evaluate_batch(expr.left, batch),
                evaluate_batch(expr.right, batch),
            )
        if expr.op == "or":
            return columnar.logical_or(
                evaluate_batch(expr.left, batch),
                evaluate_batch(expr.right, batch),
            )
        left = evaluate_batch(expr.left, batch)
        right = evaluate_batch(expr.right, batch)
        fallback = _BINARY_OPS[expr.op]
        if expr.op in ("+", "-", "*", "/", "%"):
            return columnar.arith(expr.op, fallback, left, right)
        return columnar.compare(expr.op, fallback, left, right)
    if isinstance(expr, UnaryOp):
        operand = evaluate_batch(expr.operand, batch)
        if expr.op == "-":
            return columnar.negate(operand)
        return columnar.logical_not(operand)
    if isinstance(expr, InList):
        return columnar.in_list(
            evaluate_batch(expr.operand, batch),
            expr.values,
            expr._value_set,
        )
    if isinstance(expr, IsNull):
        return columnar.is_null(
            evaluate_batch(expr.operand, batch), expr.negated
        )
    if isinstance(expr, FunctionCall):
        if expr.name not in VECTORIZED_FUNCTIONS:
            raise QueryError(
                f"function {expr.name!r} is not vectorized; "
                "use the row execution mode"
            )
        args = [evaluate_batch(a, batch) for a in expr.args]
        return columnar.call_function(expr.name, _FUNCTIONS[expr.name], args)
    raise QueryError(
        f"expression {expr!r} has no columnar evaluation"
    )


def col(name: str) -> Column:
    """Shorthand constructor for a column reference."""
    return Column(name)


def lit(value: Any) -> Literal:
    """Shorthand constructor for a literal."""
    return Literal(value)


def conjuncts(predicate: Expression) -> Tuple[Expression, ...]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if isinstance(predicate, BinaryOp) and predicate.op == "and":
        return conjuncts(predicate.left) + conjuncts(predicate.right)
    return (predicate,)


def combine_and(predicates: Sequence[Expression]) -> Expression:
    """Combine predicates with AND (identity: ``lit(True)``)."""
    preds = list(predicates)
    if not preds:
        return Literal(True)
    out = preds[0]
    for p in preds[1:]:
        out = BinaryOp("and", out, p)
    return out
