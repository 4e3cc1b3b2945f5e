"""A compact SQL dialect for the relational engine.

Supported statements::

    SELECT [DISTINCT] items FROM rel [, rel | JOIN rel ON expr]*
        [WHERE expr] [GROUP BY exprs] [HAVING expr]
        [ORDER BY expr [ASC|DESC], ...] [LIMIT n]
    CREATE TABLE name (col type, ...)
    CREATE TABLE name AS SELECT ...
    INSERT INTO name [(cols)] VALUES (v, ...), ...
    INSERT INTO name SELECT ...
    UPDATE name SET col = expr [, ...] [WHERE expr]
    DELETE FROM name [WHERE expr]
    DROP TABLE name

Aggregates (``COUNT/SUM/AVG/MIN/MAX/VAR/STD``, with optional ``DISTINCT``)
appear at the top level of select items.  This covers everything the paper's
examples need — in particular the Indemics intervention queries of
Algorithm 1 and MCDB's VG-function parameter queries.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine import plan as lp
from repro.engine.operators import check_execution
from repro.engine.expressions import (
    BinaryOp,
    Column,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    combine_and,
)
from repro.engine.schema import Schema
from repro.errors import QueryError

_AGGREGATES = {"count", "sum", "avg", "min", "max", "var", "std"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><>|!=|<=|>=|=|<|>|\+|-|\*|/|%|\(|\)|,|\.|;)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having",
    "order", "limit", "join", "inner", "left", "outer", "on", "and",
    "or", "not", "in", "is", "null", "between", "as", "asc", "desc",
    "create", "table", "insert", "into", "values", "update", "set",
    "delete", "drop", "union", "true", "false", "with",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "string" | "ident" | "keyword" | "op" | "eof"
    text: str


def _tokenize(sql: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise QueryError(f"cannot tokenize SQL at: {sql[pos:pos + 20]!r}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        text = match.group()
        kind = match.lastgroup or "op"
        if kind == "ident" and text.lower() in _KEYWORDS:
            tokens.append(_Token("keyword", text.lower()))
        else:
            tokens.append(_Token(kind, text))
    tokens.append(_Token("eof", ""))
    return tokens


@dataclass(frozen=True)
class SelectItem:
    """One parsed item of a select list."""

    expression: Optional[Expression]
    aggregate: Optional[lp.AggregateSpec]
    alias: str
    is_star: bool = False


class _Parser:
    def __init__(self, sql: str) -> None:
        self.tokens = _tokenize(sql)
        self.pos = 0

    # -- token helpers ------------------------------------------------------
    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self.accept(kind, text)
        if token is None:
            want = text or kind
            raise QueryError(
                f"expected {want!r}, found {self.peek().text!r} "
                f"(token #{self.pos})"
            )
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "keyword" and token.text in words

    # -- expression grammar -----------------------------------------------
    def parse_expression(self) -> Expression:
        return self._or()

    def _or(self) -> Expression:
        left = self._and()
        while self.accept("keyword", "or"):
            left = BinaryOp("or", left, self._and())
        return left

    def _and(self) -> Expression:
        left = self._not()
        while self.accept("keyword", "and"):
            left = BinaryOp("and", left, self._not())
        return left

    def _not(self) -> Expression:
        if self.accept("keyword", "not"):
            return UnaryOp("not", self._not())
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._additive()
        token = self.peek()
        if token.kind == "op" and token.text in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self.advance()
            op = "!=" if token.text == "<>" else token.text
            return BinaryOp(op, left, self._additive())
        if self.at_keyword("between"):
            self.advance()
            low = self._additive()
            self.expect("keyword", "and")
            high = self._additive()
            return BinaryOp(
                "and", BinaryOp(">=", left, low), BinaryOp("<=", left, high)
            )
        negated = False
        if self.at_keyword("not") and self.peek(1).text == "in":
            self.advance()
            negated = True
        if self.at_keyword("in"):
            self.advance()
            self.expect("op", "(")
            if self.at_keyword("select"):
                subplan = self.parse_select()
                self.expect("op", ")")
                from repro.engine.expressions import InSubquery

                return InSubquery(left, subplan, negated=negated)
            values: List[Any] = []
            while True:
                values.append(self._literal_value())
                if not self.accept("op", ","):
                    break
            self.expect("op", ")")
            membership = InList(left, tuple(values))
            return UnaryOp("not", membership) if negated else membership
        if self.at_keyword("is"):
            self.advance()
            is_negated = bool(self.accept("keyword", "not"))
            self.expect("keyword", "null")
            return IsNull(left, negated=is_negated)
        return left

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in ("+", "-"):
                self.advance()
                left = BinaryOp(token.text, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in ("*", "/", "%"):
                self.advance()
                left = BinaryOp(token.text, left, self._unary())
            else:
                return left

    def _unary(self) -> Expression:
        if self.accept("op", "-"):
            return UnaryOp("-", self._unary())
        return self._primary()

    def _literal_value(self) -> Any:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return (
                float(token.text)
                if any(c in token.text for c in ".eE")
                else int(token.text)
            )
        if token.kind == "string":
            self.advance()
            return token.text[1:-1].replace("''", "'")
        if self.accept("keyword", "true"):
            return True
        if self.accept("keyword", "false"):
            return False
        if self.accept("keyword", "null"):
            return None
        if self.accept("op", "-"):
            value = self._literal_value()
            return -value
        raise QueryError(f"expected literal, found {token.text!r}")

    def _primary(self) -> Expression:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            value = (
                float(token.text)
                if any(c in token.text for c in ".eE")
                else int(token.text)
            )
            return Literal(value)
        if token.kind == "string":
            self.advance()
            return Literal(token.text[1:-1].replace("''", "'"))
        if self.at_keyword("true"):
            self.advance()
            return Literal(True)
        if self.at_keyword("false"):
            self.advance()
            return Literal(False)
        if self.at_keyword("null"):
            self.advance()
            return Literal(None)
        if self.accept("op", "("):
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        if token.kind == "ident":
            self.advance()
            name = token.text
            if self.peek().kind == "op" and self.peek().text == "(":
                self.advance()
                args: List[Expression] = []
                if not (self.peek().kind == "op" and self.peek().text == ")"):
                    while True:
                        args.append(self.parse_expression())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                return FunctionCall(name, args)
            if self.accept("op", "."):
                field = self.expect("ident").text
                return Column(f"{name}.{field}")
            return Column(name)
        raise QueryError(f"unexpected token {token.text!r} in expression")

    # -- SELECT ---------------------------------------------------------------
    def parse_select(self) -> lp.PlanNode:
        self.expect("keyword", "select")
        distinct = bool(self.accept("keyword", "distinct"))
        items = self._select_items()
        self.expect("keyword", "from")
        source = self._from_clause()
        predicate = None
        if self.accept("keyword", "where"):
            predicate = self.parse_expression()
        group_exprs: List[Expression] = []
        if self.accept("keyword", "group"):
            self.expect("keyword", "by")
            while True:
                group_exprs.append(self.parse_expression())
                if not self.accept("op", ","):
                    break
        having = None
        if self.accept("keyword", "having"):
            having = self.parse_expression()
        order_keys: List[Tuple[Expression, bool]] = []
        if self.accept("keyword", "order"):
            self.expect("keyword", "by")
            while True:
                expr = self.parse_expression()
                desc = False
                if self.accept("keyword", "desc"):
                    desc = True
                else:
                    self.accept("keyword", "asc")
                order_keys.append((expr, desc))
                if not self.accept("op", ","):
                    break
        limit = None
        if self.accept("keyword", "limit"):
            limit_token = self.expect("number")
            limit = int(float(limit_token.text))

        plan = source
        if predicate is not None:
            plan = lp.Filter(plan, predicate)

        has_aggregates = any(item.aggregate is not None for item in items)
        if has_aggregates or group_exprs:
            plan = self._build_aggregate(plan, items, group_exprs)
        else:
            star = any(item.is_star for item in items)
            if not star:
                exprs = tuple(item.expression for item in items)
                aliases = tuple(item.alias for item in items)
                plan = lp.Project(plan, exprs, aliases)
        if having is not None:
            plan = lp.Filter(plan, having)
        if distinct:
            plan = lp.Distinct(plan)
        for expr, desc in order_keys:
            pass  # collected below to keep multi-key ordering in one node
        if order_keys:
            plan = lp.OrderBy(
                plan,
                tuple(k for k, _ in order_keys),
                tuple(d for _, d in order_keys),
            )
        if limit is not None:
            plan = lp.Limit(plan, limit)
        if self.accept("keyword", "union"):
            rest = self.parse_select()
            plan = lp.Union(plan, rest)
        return plan

    def _select_items(self) -> List[SelectItem]:
        items: List[SelectItem] = []
        index = 0
        while True:
            if self.peek().kind == "op" and self.peek().text == "*":
                self.advance()
                items.append(SelectItem(None, None, "*", is_star=True))
            else:
                items.append(self._select_item(index))
            index += 1
            if not self.accept("op", ","):
                break
        return self._dedupe_aliases(items)

    @staticmethod
    def _dedupe_aliases(items: List[SelectItem]) -> List[SelectItem]:
        """Disambiguate clashing default aliases (``a.v, b.v`` -> ``v, b_v``).

        The first occurrence keeps the short alias; later clashes fall
        back to the qualified name with dots replaced, then to numbered
        suffixes.
        """
        seen: set = set()
        out: List[SelectItem] = []
        for item in items:
            alias = item.alias
            if alias in seen and not item.is_star:
                if isinstance(item.expression, Column) and "." in item.expression.name:
                    alias = item.expression.name.replace(".", "_")
                counter = 2
                base = alias
                while alias in seen:
                    alias = f"{base}_{counter}"
                    counter += 1
                aggregate = item.aggregate
                if aggregate is not None:
                    aggregate = lp.AggregateSpec(
                        aggregate.func,
                        aggregate.argument,
                        alias,
                        aggregate.distinct,
                    )
                item = SelectItem(
                    item.expression, aggregate, alias, item.is_star
                )
            seen.add(alias)
            out.append(item)
        return out

    def _select_item(self, index: int) -> SelectItem:
        token = self.peek()
        aggregate: Optional[lp.AggregateSpec] = None
        expression: Optional[Expression] = None
        default_alias = f"col_{index}"
        is_agg_call = (
            token.kind == "ident"
            and token.text.lower() in _AGGREGATES
            and self.peek(1).kind == "op"
            and self.peek(1).text == "("
        )
        if is_agg_call:
            func = self.advance().text.lower()
            self.expect("op", "(")
            distinct = bool(self.accept("keyword", "distinct"))
            if self.peek().kind == "op" and self.peek().text == "*":
                self.advance()
                argument = None
                default_alias = func
            else:
                argument = self.parse_expression()
                arg_name = (
                    argument.name.replace(".", "_")
                    if isinstance(argument, Column)
                    else f"expr_{index}"
                )
                default_alias = f"{func}_{arg_name}"
            self.expect("op", ")")
            aggregate = lp.AggregateSpec(func, argument, default_alias, distinct)
        else:
            expression = self.parse_expression()
            if isinstance(expression, Column):
                default_alias = expression.name.split(".")[-1]
        alias = default_alias
        if self.accept("keyword", "as"):
            alias = self.expect("ident").text
        elif self.peek().kind == "ident":
            alias = self.advance().text
        if aggregate is not None:
            aggregate = lp.AggregateSpec(
                aggregate.func, aggregate.argument, alias, aggregate.distinct
            )
        return SelectItem(expression, aggregate, alias)

    def _relation(self) -> lp.PlanNode:
        if self.accept("op", "("):
            inner = self.parse_select()
            self.expect("op", ")")
            # Optional subquery alias (columns keep their own names).
            self.accept("keyword", "as")
            if self.peek().kind == "ident":
                self.advance()
            return inner
        name = self.expect("ident").text
        alias = None
        if self.accept("keyword", "as"):
            alias = self.expect("ident").text
        elif self.peek().kind == "ident":
            alias = self.advance().text
        return lp.Scan(name, alias)

    @staticmethod
    def _qualify(node: lp.PlanNode) -> lp.PlanNode:
        """Alias an alias-less scan with its own table name.

        SQL lets a table name qualify its columns (``t.k`` with
        ``FROM t``); in multi-relation FROM clauses every scan therefore
        gets an explicit qualifier so qualified references resolve.
        """
        if isinstance(node, lp.Scan) and node.alias is None:
            return lp.Scan(node.table, node.table)
        return node

    def _from_clause(self) -> lp.PlanNode:
        plan = self._relation()
        joined = False
        while True:
            if self.accept("op", ","):
                right = self._relation()
                if not joined:
                    plan = self._qualify(plan)
                    joined = True
                plan = lp.Join(plan, self._qualify(right), None, "inner")
                continue
            how = None
            if self.at_keyword("join"):
                self.advance()
                how = "inner"
            elif self.at_keyword("inner") and self.peek(1).text == "join":
                self.advance()
                self.advance()
                how = "inner"
            elif self.at_keyword("left"):
                self.advance()
                self.accept("keyword", "outer")
                self.expect("keyword", "join")
                how = "left"
            if how is None:
                return plan
            right = self._relation()
            if not joined:
                plan = self._qualify(plan)
                joined = True
            right = self._qualify(right)
            condition = None
            if self.accept("keyword", "on"):
                condition = self.parse_expression()
            plan = lp.Join(plan, right, condition, how)

    def _build_aggregate(
        self,
        child: lp.PlanNode,
        items: Sequence[SelectItem],
        group_exprs: Sequence[Expression],
    ) -> lp.PlanNode:
        group_by: List[Expression] = list(group_exprs)
        group_aliases: List[str] = []
        aggregates: List[lp.AggregateSpec] = []
        used_groups: Dict[str, str] = {}
        for expr in group_by:
            alias = (
                expr.name.split(".")[-1]
                if isinstance(expr, Column)
                else f"group_{len(group_aliases)}"
            )
            group_aliases.append(alias)
            used_groups[repr(expr)] = alias
        # Non-aggregate select items must match a group-by expression.
        ordered_aliases: List[str] = []
        for item in items:
            if item.is_star:
                raise QueryError("SELECT * cannot be combined with GROUP BY")
            if item.aggregate is not None:
                aggregates.append(item.aggregate)
                ordered_aliases.append(item.aggregate.alias)
                continue
            key = repr(item.expression)
            if key in used_groups:
                idx = list(used_groups).index(key)
                group_aliases[idx] = item.alias
                used_groups[key] = item.alias
                ordered_aliases.append(item.alias)
            elif not group_by:
                raise QueryError(
                    f"non-aggregate select item {item.alias!r} "
                    "without GROUP BY"
                )
            else:
                raise QueryError(
                    f"select item {item.alias!r} is not in GROUP BY"
                )
        agg_node = lp.Aggregate(
            child, tuple(group_by), tuple(group_aliases), tuple(aggregates)
        )
        # Re-project to the select-list order when it differs.
        out_exprs = tuple(Column(a) for a in ordered_aliases)
        return lp.Project(agg_node, out_exprs, tuple(ordered_aliases))

    # -- DDL / DML -------------------------------------------------------------
    def parse_statement(self) -> Tuple[str, Any]:
        """Parse one statement; returns ``(kind, payload)``."""
        if self.at_keyword("with"):
            return "select_with_ctes", self._parse_with()
        if self.at_keyword("select"):
            return "select", self.parse_select()
        if self.at_keyword("create"):
            return self._parse_create()
        if self.at_keyword("insert"):
            return self._parse_insert()
        if self.at_keyword("update"):
            return self._parse_update()
        if self.at_keyword("delete"):
            return self._parse_delete()
        if self.at_keyword("drop"):
            self.advance()
            self.expect("keyword", "table")
            name = self.expect("ident").text
            return "drop", name
        raise QueryError(f"unsupported statement near {self.peek().text!r}")

    def _parse_with(
        self,
    ) -> Tuple[Tuple[Tuple[str, Optional[Tuple[str, ...]], Any], ...], Any]:
        """``WITH name [(cols)] AS (SELECT ...) [, ...] SELECT ...``.

        Returns ``(ctes, main_plan)`` where each CTE entry is
        ``(name, column_names_or_None, plan)`` — the form Algorithm 1 of
        the paper uses (``WITH InfectedPreschool (pid) AS (...)``).
        """
        self.expect("keyword", "with")
        ctes: List[Tuple[str, Optional[Tuple[str, ...]], Any]] = []
        while True:
            name = self.expect("ident").text
            columns = self._column_list() if self.accept("op", "(") else None
            self.expect("keyword", "as")
            self.expect("op", "(")
            plan = self.parse_select()
            self.expect("op", ")")
            ctes.append((name, columns, plan))
            if not self.accept("op", ","):
                break
        main = self.parse_select()
        return tuple(ctes), main

    def _column_list(self) -> Tuple[str, ...]:
        """The names of a ``(name, ...)`` list whose ``(`` was just read."""
        columns = []
        while True:
            columns.append(self.expect("ident").text)
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        return tuple(columns)

    def _parse_create(self) -> Tuple[str, Any]:
        self.advance()  # create
        self.expect("keyword", "table")
        name = self.expect("ident").text
        if self.accept("keyword", "as"):
            plan = self.parse_select()
            return "create_as", (name, plan)
        self.expect("op", "(")
        spec: Dict[str, str] = {}
        while True:
            col_name = self.expect("ident").text
            type_name = self.expect("ident").text.lower()
            mapping = {
                "int": "int", "integer": "int", "bigint": "int",
                "float": "float", "real": "float", "double": "float",
                "str": "str", "text": "str", "varchar": "str",
                "bool": "bool", "boolean": "bool",
            }
            if type_name not in mapping:
                raise QueryError(f"unknown SQL type {type_name!r}")
            spec[col_name] = mapping[type_name]
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        return "create", (name, tuple(spec.items()))

    def _parse_insert(self) -> Tuple[str, Any]:
        self.advance()  # insert
        self.expect("keyword", "into")
        name = self.expect("ident").text
        columns = self._column_list() if self.accept("op", "(") else None
        if self.at_keyword("select"):
            plan = self.parse_select()
            return "insert_select", (name, columns, plan)
        self.expect("keyword", "values")
        rows: List[Tuple[Any, ...]] = []
        while True:
            self.expect("op", "(")
            values: List[Any] = []
            while True:
                values.append(self._literal_value())
                if not self.accept("op", ","):
                    break
            self.expect("op", ")")
            rows.append(tuple(values))
            if not self.accept("op", ","):
                break
        return "insert", (name, columns, tuple(rows))

    def _parse_update(self) -> Tuple[str, Any]:
        self.advance()  # update
        name = self.expect("ident").text
        self.expect("keyword", "set")
        assignments: Dict[str, Expression] = {}
        while True:
            column = self.expect("ident").text
            self.expect("op", "=")
            assignments[column] = self.parse_expression()
            if not self.accept("op", ","):
                break
        predicate: Expression = Literal(True)
        if self.accept("keyword", "where"):
            predicate = self.parse_expression()
        return "update", (name, tuple(assignments.items()), predicate)

    def _parse_delete(self) -> Tuple[str, Any]:
        self.advance()  # delete
        self.expect("keyword", "from")
        name = self.expect("ident").text
        predicate: Expression = Literal(True)
        if self.accept("keyword", "where"):
            predicate = self.parse_expression()
        return "delete", (name, predicate)


def parse_select(sql: str) -> lp.PlanNode:
    """Parse a SELECT statement into a logical plan."""
    parser = _Parser(sql)
    plan = parser.parse_select()
    parser.accept("op", ";")
    if parser.peek().kind != "eof":
        raise QueryError(
            f"trailing tokens after statement: {parser.peek().text!r}"
        )
    return plan


#: Distinct statement texts whose parse is kept, least recently used
#: out first.  The bound keeps a server's resident memory within a
#: fraction of a megabyte of what it is without the cache (DESIGN.md,
#: "Statements are parsed once").
PARSE_CACHE_ENTRIES = 256


class ParsedStatement(NamedTuple):
    """One statement as :func:`parsed_statement` keeps it.

    ``kind`` and ``payload`` are what :func:`parse_statement` returns;
    ``reads`` and ``writes`` are :func:`statement_tables` of them.  Every
    part is immutable all the way down — frozen plan nodes, expressions
    that set their attributes only when built, tuples and frozensets —
    so every caller of the same text can share the one object.
    """

    kind: str
    payload: Any
    reads: FrozenSet[str]
    writes: FrozenSet[str]


@functools.lru_cache(maxsize=PARSE_CACHE_ENTRIES)
def parsed_statement(sql: str) -> ParsedStatement:
    """Parse one complete SQL statement, once per distinct text.

    Parsing reads the text and nothing else — tables, schemas and
    statistics are read only when the statement is optimized or run —
    so the text alone keys a process-wide, thread-safe LRU of
    :data:`PARSE_CACHE_ENTRIES` entries.  Only successful parses are
    kept: a malformed text raises the same
    :class:`~repro.errors.QueryError` on every call.
    """
    parser = _Parser(sql)
    kind, payload = parser.parse_statement()
    parser.accept("op", ";")
    if parser.peek().kind != "eof":
        raise QueryError(
            f"trailing tokens after statement: {parser.peek().text!r}"
        )
    reads, writes = statement_tables(kind, payload)
    return ParsedStatement(kind, payload, reads, writes)


def parse_statement(sql: str) -> Tuple[str, Any]:
    """Parse one complete SQL statement without executing it.

    Returns ``(kind, payload)`` exactly as :func:`execute_statement`
    takes it — ``kind`` is one of ``select``, ``select_with_ctes``,
    ``create``, ``create_as``, ``insert``, ``insert_select``,
    ``update``, ``delete``, or ``drop``.  The parse comes from
    :func:`parsed_statement`, so a repeated text is not parsed again.
    The service layer classifies a request (read vs write, which tables
    it touches) from the same parse *before* admitting it, so a
    malformed statement is rejected as a client error rather than
    burning an execution slot and a retry budget.
    """
    kind, payload, _, _ = parsed_statement(sql)
    return kind, payload


def _plan_tables(plan) -> FrozenSet[str]:
    """Base-table names a plan scans, subquery plans included."""
    tables = {node.table for node in lp.walk(plan) if isinstance(node, lp.Scan)}
    for subquery in lp.subqueries(plan):
        tables |= _plan_tables(subquery.plan)
    return frozenset(tables)


def statement_tables(kind: str, payload) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """The ``(reads, writes)`` table-name sets of a parsed statement.

    ``reads`` are catalog tables the statement scans (CTE names are
    resolved away — a ``WITH`` alias is not a catalog read); ``writes``
    are tables it creates, mutates, or drops.  Cache keys for served
    queries fold the versions of every read table, and session scoping
    forbids writes to the shared catalog, so both sides of the service
    layer consume this classification.
    """
    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    if kind == "select":
        reads = _plan_tables(payload)
    elif kind == "select_with_ctes":
        ctes, main = payload
        cte_names = {name for name, _, _ in ctes}
        for _, _, plan in ctes:
            reads |= _plan_tables(plan)
        reads = (reads | _plan_tables(main)) - cte_names
    elif kind in ("create", "insert"):
        writes = frozenset({payload[0]})
    elif kind == "create_as":
        name, plan = payload
        writes = frozenset({name})
        reads = _plan_tables(plan)
    elif kind == "insert_select":
        name, _, plan = payload
        writes = frozenset({name})
        reads = _plan_tables(plan)
    elif kind in ("update", "delete"):
        writes = frozenset({payload[0]})
    elif kind == "drop":
        writes = frozenset({payload})
    else:  # pragma: no cover - parse_statement never returns other kinds
        raise QueryError(f"unhandled statement kind {kind!r}")
    return reads, writes


def execute_sql(db, sql: str, execution=None):
    """Parse and execute one SQL statement against ``db``.

    ``db`` is a :class:`repro.engine.catalog.Database`.  Returns the result
    rows for SELECT, an empty list otherwise.  ``execution`` picks the
    executor mode per plan (see ``Database.execute_plan``).
    """
    kind, payload = parse_statement(sql)
    return execute_statement(db, kind, payload, execution)


def execute_statement(db, kind: str, payload, execution=None):
    """Execute one parsed statement (see :func:`parse_statement`) against ``db``.

    Returns what :func:`execute_sql` returns for the statement's text.
    ``execution`` is checked before anything runs, for every statement
    kind, so an unknown name never leaves a DDL or DML half applied.
    """
    check_execution(execution)
    if kind == "select":
        return db.execute_plan(payload, execution=execution)
    if kind == "select_with_ctes":
        ctes, main = payload
        # Materialize CTEs into an overlay database so the base catalog
        # is never mutated; later CTEs may reference earlier ones.
        from repro.engine.catalog import Database as _Database
        from repro.engine.table import Table

        overlay = _Database()
        for table_name in db.table_names():
            overlay.register(db.table(table_name))
        for name, columns, plan in ctes:
            rows = overlay.execute_plan(plan, execution=execution)
            if not rows:
                if columns is None:
                    raise QueryError(
                        f"CTE {name!r} produced zero rows; declare its "
                        "column list (WITH name (cols) AS ...) so an "
                        "empty relation can be typed"
                    )
                empty_schema = Schema.from_spec(
                    {column: "float" for column in columns}
                )
                overlay.register(Table(name, empty_schema), replace=True)
                continue
            if columns is not None:
                if len(columns) != len(rows[0]):
                    raise QueryError(
                        f"CTE {name!r} declares {len(columns)} columns "
                        f"but produces {len(rows[0])}"
                    )
                rows = [
                    dict(zip(columns, row.values())) for row in rows
                ]
            overlay.register(Table.from_rows(name, rows), replace=True)
        return overlay.execute_plan(main, execution=execution)
    if kind == "create":
        name, spec = payload
        db.create_table(name, Schema.from_spec(dict(spec)))
        return []
    if kind == "create_as":
        name, plan = payload
        rows = db.execute_plan(plan, execution=execution)
        if not rows:
            raise QueryError(
                "CREATE TABLE AS with an empty result cannot infer a schema"
            )
        from repro.engine.table import Table

        db.register(Table.from_rows(name, rows))
        return []
    if kind == "insert":
        name, columns, rows = payload
        table = db.table(name)
        names = columns or table.schema.names
        for values in rows:
            if len(values) != len(names):
                raise QueryError(
                    f"INSERT arity mismatch: {len(values)} values "
                    f"for {len(names)} columns"
                )
            table.insert(dict(zip(names, values)))
        return []
    if kind == "insert_select":
        name, columns, plan = payload
        table = db.table(name)
        names = columns or table.schema.names
        for row in db.execute_plan(plan, execution=execution):
            values = list(row.values())
            if len(values) != len(names):
                raise QueryError(
                    "INSERT ... SELECT arity mismatch: "
                    f"{len(values)} values for {len(names)} columns"
                )
            table.insert(dict(zip(names, values)))
        return []
    if kind == "update":
        name, assignments, predicate = payload
        db.table(name).update_where(predicate, dict(assignments))
        return []
    if kind == "delete":
        name, predicate = payload
        db.table(name).delete_where(predicate)
        return []
    if kind == "drop":
        db.drop_table(payload)
        return []
    raise QueryError(f"unhandled statement kind {kind!r}")
