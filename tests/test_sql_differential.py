"""Differential SQL oracle: both executors against stdlib ``sqlite3``.

Every other engine oracle compares the engine with itself, so a bug the
row and columnar executors share is invisible to it.  Here hypothesis
generates NULL-rich, tie-rich tables and queries from the grammar
:mod:`repro.engine.sqlparser` accepts — filters, ``GROUP BY`` string
keys, int keys and both, inner and left equi-joins on string and int
keys, ``ORDER BY`` … ``LIMIT`` and ``ORDER BY`` over a grouped result,
``SELECT DISTINCT`` and ``DISTINCT`` aggregates, ``HAVING``, ``[NOT] IN
(SELECT …)``, ``WITH`` CTEs with column lists, select-list
arithmetic (``+``, ``-``, ``*``, unary minus, ``abs`` and ``coalesce``
over ``i``, ``f``, ``w`` and literals), and compounds of two or three
SELECTs joined by ``UNION`` and ``UNION ALL``, with an ``ORDER BY`` …
``LIMIT`` over the whole compound — and each query must
give the same answer with ``execution="row"``, with ``"columnar"`` (byte
for byte) and through ``sqlite3``.  Int keys come in two widths: ``i``
and ``v`` span a few values, which the engine addresses directly, and
``w`` holds values from about -2**40 to 2**52, which it sorts.  Every
statement runs through ``Database.sql`` more than once, so all but its
first answer come from a cached parse.

Divergences these generators found are fixed, each with a regression
test in :class:`TestDivergencesFound`: ``IN`` ignored SQL's NULL rules
for a list holding NULL or an empty subquery, a CTE column took its
type from the first row even when that value was NULL, a CTE or
``CREATE TABLE … AS`` column mixing ints and floats was typed ``int``
and truncated its floats, ``UNION`` kept duplicates (a bag union, where
SQL's is a set union), ``UNION ALL`` did not parse, a trailing ``ORDER
BY`` sorted only the last SELECT of a compound, and the arms of a
compound were matched by column name, where SQL matches them by
position.

The known differences are allowed here and nowhere else:

* NULL placement: the engine sorts NULLs last under ASC and first under
  DESC, so the sqlite text spells ``NULLS LAST``/``NULLS FIRST`` out.
* Without ORDER BY, row order is unspecified: answers compare as
  multisets.
* Numbers compare by value: the engine's ``SUM`` of ints is a float, and
  a float ``SUM``/``AVG`` may differ within ``rel_tol=1e-9`` because
  sqlite adds in its own order.
* ``/`` is true division here, integer division on sqlite integers: the
  sqlite text multiplies the dividend by ``1.0``.
* ``/`` is left out of the arithmetic generator: ``i / 0`` raises
  ``ZeroDivisionError`` in both executors, where sqlite answers NULL.
* Integer arithmetic stays exact past 2**63 here, where sqlite switches
  to REAL: such values compare within ``rel_tol``, but ``w * w + 1 - w *
  w`` answers 1 here and 0.0 there, so the arithmetic generator stops at
  four leaves, too few to cancel an overflowing term.
* An ORDER BY key outside the select list raises ``QueryError`` here
  while sqlite accepts it, so none is generated.

Examples are derandomized and the budget is hypothesis's default; the
``sql-differential`` profile registered in ``tests/conftest.py`` raises
it (``pytest --hypothesis-profile=sql-differential``).
"""

from __future__ import annotations

import math
import sqlite3
from typing import Any, List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Database, Schema
from repro.engine.sqlparser import parsed_statement
from repro.ensemble.store import result_fingerprint

pytestmark = pytest.mark.skipif(
    sqlite3.sqlite_version_info < (3, 30, 0),
    reason="sqlite accepts NULLS FIRST/LAST from 3.30 on",
)

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Small, case- and accent-mixed: plenty of ties, and code-point order
#: (Python ``sorted``) equals sqlite's BINARY collation over UTF-8.
ALPHABET = ("", "a", "A", "ab", "aB", "b", "B", "z", "é", "É", "ß", "日本")
#: Literals that never occur in a table, for IN and comparisons.
ABSENT = ("q", "Ab", "zz")
INTS = tuple(range(-2, 4))
#: Around +-2**40, under 2**53: keys over these span far more than the
#: rows, so they group and join by sorting where ``INTS`` keys are
#: addressed directly.
WIDE = (-(2 ** 40) - 1, -(2 ** 40), 2 ** 40, 2 ** 40 + 3, 2 ** 52 + 1)
FLOATS = tuple(k * 0.5 for k in range(-4, 5))
OPS = ("=", "<>", "<", "<=", ">", ">=")

T_SCHEMA = Schema.of(id=int, s1=str, s2=str, i=int, f=float, w=int)
U_SCHEMA = Schema.of(id=int, s=str, v=int, w=int)


# -- tables ------------------------------------------------------------------


def _nullable(values: Sequence[Any]) -> st.SearchStrategy:
    # One draw per cell; the repeated None makes a quarter to two fifths
    # of the cells NULL.  Shrinking moves towards NULL.
    return st.sampled_from((None,) * 4 + tuple(values))


def _rows(columns, max_size) -> st.SearchStrategy:
    """Rows with a unique ``id`` that is not in insertion order."""
    names = ["id"] + [name for name, _ in columns]
    cells = st.lists(
        st.tuples(*(_nullable(values) for _, values in columns)),
        max_size=max_size,
    )

    @st.composite
    def rows(draw) -> List[dict]:
        drawn = draw(cells)
        ids = draw(st.permutations(range(len(drawn))))
        return [
            dict(zip(names, (key,) + row)) for key, row in zip(ids, drawn)
        ]

    return rows()


T_ROWS = _rows(
    [("s1", ALPHABET), ("s2", ALPHABET), ("i", INTS), ("f", FLOATS),
     ("w", WIDE)],
    25,
)
U_ROWS = _rows([("s", ALPHABET), ("v", INTS), ("w", WIDE)], 12)


_SQLITE_TYPES = {int: "INTEGER", float: "REAL", str: "TEXT"}


def load(tables, cuts=None) -> Tuple[Database, sqlite3.Connection]:
    """The same tables in the engine and in sqlite.

    ``tables`` maps a name to ``(schema, rows)``.  Each engine table is
    loaded in two appends split at ``cuts[name]`` with a scan between
    them, so its string dictionaries are extended, not built once.
    """
    db = Database()
    con = sqlite3.connect(":memory:")
    for name, (schema, rows) in tables.items():
        cut = (cuts or {}).get(name, 0)
        table = db.create_table(name, schema)
        table.insert_many(rows[:cut])
        table.column_batch()
        table.insert_many(rows[cut:])
        columns = ", ".join(
            f"{c.name} {_SQLITE_TYPES[c.dtype]}" for c in schema.columns
        )
        con.execute(f"CREATE TABLE {name} ({columns})")
        marks = ", ".join("?" * len(schema.names))
        con.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [tuple(row[c] for c in schema.names) for row in rows],
        )
    return db, con


@st.composite
def databases(draw) -> Tuple[Database, sqlite3.Connection]:
    tables = {"t": (T_SCHEMA, draw(T_ROWS)), "u": (U_SCHEMA, draw(U_ROWS))}
    cuts = {
        name: draw(st.integers(0, len(rows)))
        for name, (_, rows) in tables.items()
    }
    return load(tables, cuts)


# -- queries -----------------------------------------------------------------
# A query is ``(engine_sql, sqlite_sql, ordered)``.


def _text(value: Any) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


def predicates(prefix: str = "") -> st.SearchStrategy:
    """WHERE clauses over ``t``'s columns (``prefix`` qualifies them)."""
    s = st.sampled_from([prefix + c for c in ("s1", "s2")])
    n = st.sampled_from([prefix + c for c in ("i", "f")])
    op = st.sampled_from(OPS)
    strings = st.sampled_from(ALPHABET + ABSENT)
    numbers = st.sampled_from(INTS + FLOATS)
    atoms = st.one_of(
        st.tuples(s, op, strings).map(lambda a: f"{a[0]} {a[1]} {_text(a[2])}"),
        st.tuples(strings, op, s).map(lambda a: f"{_text(a[0])} {a[1]} {a[2]}"),
        st.tuples(s, op, s).map(" ".join),
        st.tuples(n, op, numbers).map(lambda a: f"{a[0]} {a[1]} {_text(a[2])}"),
        st.tuples(n, op, n).map(" ".join),
        st.tuples(
            s, st.sampled_from(["IN", "NOT IN"]),
            st.lists(strings, min_size=1, max_size=3),
        ).map(lambda a: f"{a[0]} {a[1]} ({', '.join(map(_text, a[2]))})"),
        st.tuples(
            n, st.sampled_from(["IN", "NOT IN"]),
            st.lists(numbers, min_size=1, max_size=3),
        ).map(lambda a: f"{a[0]} {a[1]} ({', '.join(map(_text, a[2]))})"),
        st.tuples(
            st.one_of(s, n), st.sampled_from(["IS NULL", "IS NOT NULL"])
        ).map(" ".join),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            inner.map(lambda p: f"NOT ({p})"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]} AND {p[1]})"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]} OR {p[1]})"),
        ),
        max_leaves=4,
    )


PREDICATES = predicates()
MAYBE_PREDICATE = st.none() | PREDICATES


def _where(pred: Optional[str]) -> str:
    return "" if pred is None else f" WHERE {pred}"


@st.composite
def filter_queries(draw) -> Tuple[str, str, bool]:
    sql = f"SELECT id, s1, s2, i, f FROM t WHERE {draw(PREDICATES)}"
    return sql, sql, False


@st.composite
def group_queries(draw) -> Tuple[str, str, bool]:
    key = draw(st.sampled_from(["s1", "s2", None]))
    pred = draw(MAYBE_PREDICATE)
    items = (
        "COUNT(*) AS n, COUNT(s2) AS ns, SUM(i) AS si, SUM(f) AS sf, "
        "AVG(f) AS af, AVG(i) AS ai, MIN(s2) AS lo, MAX(s1) AS hi, "
        "MIN(f) AS fl, MAX(i) AS ih"
    )
    if key is None:
        sql = f"SELECT {items} FROM t{_where(pred)}"
    else:
        sql = f"SELECT {key}, {items} FROM t{_where(pred)} GROUP BY {key}"
    return sql, sql, False


MAYBE_JOIN_PREDICATE = st.none() | predicates("a.")


@st.composite
def join_queries(draw) -> Tuple[str, str, bool]:
    how = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    on = f"a.{draw(st.sampled_from(['s1', 's2']))} = b.s"
    if draw(st.booleans()):
        on += " AND a.i = b.v"
    pred = draw(MAYBE_JOIN_PREDICATE)
    sql = (
        "SELECT a.id AS aid, b.id AS bid, a.s1 AS s, b.v AS v "
        f"FROM t a {how} u b ON {on}{_where(pred)}"
    )
    return sql, sql, False


@st.composite
def int_group_queries(draw) -> Tuple[str, str, bool]:
    key = draw(st.sampled_from(["i", "w", "s1, i", "i, w", "w, s2, i"]))
    pred = draw(MAYBE_PREDICATE)
    items = (
        "COUNT(*) AS n, COUNT(f) AS nf, SUM(i) AS si, SUM(f) AS sf, "
        "MIN(i) AS lo, MAX(s1) AS hi, MAX(w) AS wh"
    )
    sql = f"SELECT {key}, {items} FROM t{_where(pred)} GROUP BY {key}"
    return sql, sql, False


@st.composite
def int_join_queries(draw) -> Tuple[str, str, bool]:
    how = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    on = draw(st.sampled_from([
        "a.i = b.v", "a.w = b.w", "a.i = b.v AND a.w = b.w",
        "a.w = b.w AND a.s2 = b.s",
    ]))
    pred = draw(MAYBE_JOIN_PREDICATE)
    sql = (
        "SELECT a.id AS aid, b.id AS bid, a.i AS i, b.w AS w "
        f"FROM t a {how} u b ON {on}{_where(pred)}"
    )
    return sql, sql, False


def _order_clause(keys: Sequence[Tuple[str, bool]], nulls: bool) -> str:
    parts = []
    for name, desc in keys:
        part = f"{name} {'DESC' if desc else 'ASC'}"
        if nulls:
            part += " NULLS FIRST" if desc else " NULLS LAST"
        parts.append(part)
    return "ORDER BY " + ", ".join(parts)


@st.composite
def _limit(draw) -> str:
    count = draw(st.one_of(
        st.none(), st.just(0), st.integers(1, 5), st.just(40)
    ))
    return "" if count is None else f" LIMIT {count}"


@st.composite
def order_queries(draw) -> Tuple[str, str, bool]:
    names = draw(st.lists(
        st.sampled_from(["s1", "s2", "i", "f", "h"]),
        min_size=1, max_size=3, unique=True,
    ))
    keys = [(name, draw(st.booleans())) for name in names]
    keys.append(("id", draw(st.booleans())))
    pred = draw(MAYBE_PREDICATE)
    limit = draw(_limit())
    body = "SELECT id, s1, s2, i, f, {h} AS h FROM t" + _where(pred)
    return (
        f"{body.format(h='i / 2')} {_order_clause(keys, False)}{limit}",
        f"{body.format(h='i * 1.0 / 2')} {_order_clause(keys, True)}{limit}",
        True,
    )


@st.composite
def grouped_order_queries(draw) -> Tuple[str, str, bool]:
    key = draw(st.sampled_from(["s1", "s2"]))
    first = draw(st.sampled_from(["n", "sf", "mi", "lo"]))
    keys = [(first, draw(st.booleans())), (key, draw(st.booleans()))]
    pred = draw(MAYBE_PREDICATE)
    body = (
        f"SELECT {key}, COUNT(*) AS n, SUM(f) AS sf, MAX(i) AS mi, "
        f"MIN(s1) AS lo FROM t{_where(pred)} GROUP BY {key}"
    )
    limit = draw(_limit())
    return (
        f"{body} {_order_clause(keys, False)}{limit}",
        f"{body} {_order_clause(keys, True)}{limit}",
        True,
    )


@st.composite
def distinct_queries(draw) -> Tuple[str, str, bool]:
    names = draw(st.lists(
        st.sampled_from(["s1", "s2", "i", "f"]),
        min_size=1, max_size=3, unique=True,
    ))
    body = f"SELECT DISTINCT {', '.join(names)} FROM t{_where(draw(MAYBE_PREDICATE))}"
    if not draw(st.booleans()):
        return body, body, False
    # Distinct rows differ in some selected column, so ordering by all of
    # them is total and LIMIT picks the same rows on both sides.
    keys = [(name, draw(st.booleans())) for name in names]
    limit = draw(_limit())
    return (
        f"{body} {_order_clause(keys, False)}{limit}",
        f"{body} {_order_clause(keys, True)}{limit}",
        True,
    )


@st.composite
def distinct_aggregate_queries(draw) -> Tuple[str, str, bool]:
    key = draw(st.sampled_from(["s1", "s2", None]))
    items = (
        "COUNT(DISTINCT s2) AS ds, COUNT(DISTINCT i) AS di, "
        "SUM(DISTINCT i) AS si, AVG(DISTINCT f) AS af"
    )
    where = _where(draw(MAYBE_PREDICATE))
    if key is None:
        sql = f"SELECT {items} FROM t{where}"
    else:
        sql = f"SELECT {key}, {items} FROM t{where} GROUP BY {key}"
    return sql, sql, False


def having_predicates(key: str) -> st.SearchStrategy:
    """HAVING clauses over a group key and the aliases n, si and mf."""
    atoms = st.one_of(
        st.tuples(st.sampled_from(OPS), st.integers(0, 3)).map(
            lambda a: f"n {a[0]} {a[1]}"
        ),
        st.tuples(
            st.sampled_from(["si", "mf"]), st.sampled_from(OPS),
            st.sampled_from(INTS + FLOATS),
        ).map(lambda a: f"{a[0]} {a[1]} {_text(a[2])}"),
        st.tuples(st.sampled_from(OPS), st.sampled_from(ALPHABET + ABSENT)).map(
            lambda a: f"{key} {a[0]} {_text(a[1])}"
        ),
        st.tuples(
            st.sampled_from([key, "si", "mf"]),
            st.sampled_from(["IS NULL", "IS NOT NULL"]),
        ).map(" ".join),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            inner.map(lambda p: f"NOT ({p})"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]} AND {p[1]})"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]} OR {p[1]})"),
        ),
        max_leaves=3,
    )


@st.composite
def having_queries(draw) -> Tuple[str, str, bool]:
    key = draw(st.sampled_from(["s1", "s2"]))
    sql = (
        f"SELECT {key}, COUNT(*) AS n, SUM(i) AS si, MAX(f) AS mf "
        f"FROM t{_where(draw(MAYBE_PREDICATE))} GROUP BY {key} "
        f"HAVING {draw(having_predicates(key))}"
    )
    return sql, sql, False


#: Filters of the subquery's ``u`` rows.
U_PREDICATES = st.sampled_from([
    None, "v > 0", "v IS NOT NULL", "s IS NULL", "s IS NOT NULL",
    "v IN (1, 2)", "s >= 'a'", "s < 'b' OR v = 0",
])


@st.composite
def subquery_queries(draw) -> Tuple[str, str, bool]:
    operand, column = draw(st.sampled_from([("s1", "s"), ("s2", "s"), ("i", "v")]))
    op = draw(st.sampled_from(["IN", "NOT IN"]))
    sub = f"SELECT {column} FROM u{_where(draw(U_PREDICATES))}"
    where = f"{operand} {op} ({sub})"
    if draw(st.booleans()):
        where = f"NOT ({where})"
    pred = draw(MAYBE_PREDICATE)
    if pred is not None:
        where = f"({where}) {draw(st.sampled_from(['AND', 'OR']))} {pred}"
    sql = f"SELECT id, s1, s2, i, f FROM t WHERE {where}"
    return sql, sql, False


CTE_SHAPES = ("group", "chain", "join", "mixed")


@st.composite
def cte_queries(draw, shapes=CTE_SHAPES) -> Tuple[str, str, bool]:
    key = draw(st.sampled_from(["s1", "s2"]))
    where = _where(draw(MAYBE_PREDICATE))
    shape = draw(st.sampled_from(shapes))
    if shape == "group":
        outer = draw(st.sampled_from(
            [None, "n > 1", "k IS NULL", "k >= 'a'", "m IS NOT NULL", "m > 0"]
        ))
        sql = (
            f"WITH c (k, n, m) AS (SELECT {key}, COUNT(*), MAX(i) FROM t"
            f"{where} GROUP BY {key}) SELECT k, n, m FROM c{_where(outer)}"
        )
    elif shape == "chain":
        outer = draw(st.sampled_from(
            [None, "z > 0", "z IS NULL", "y <> 'a'", "w < 5"]
        ))
        sql = (
            f"WITH a (w, y, z) AS (SELECT id, {key}, f FROM t{where}), "
            f"b (w, y, z) AS (SELECT w, y, z FROM a{_where(outer)}) "
            "SELECT w, y, z FROM b"
        )
    elif shape == "join":
        sql = (
            "WITH c (k, n) AS (SELECT s, COUNT(*) FROM u GROUP BY s) "
            f"SELECT t.id AS id, c.n AS n FROM t JOIN c ON t.{key} = c.k{where}"
        )
    else:  # columns whose values mix ints and floats
        outer = draw(st.sampled_from(
            [None, "v > 1", "v = w", "w IS NULL", "v < 0.5"]
        ))
        sql = (
            f"WITH c (v, w) AS (SELECT coalesce(i, f), coalesce(f, i) "
            f"FROM t{where}) SELECT v, w FROM c{_where(outer)}"
        )
    return sql, sql, False


def arithmetic() -> st.SearchStrategy:
    """Numeric expressions over ``t``'s ``i``, ``f`` and ``w`` and literals.

    ``+``, ``-``, ``*``, unary minus, ``abs`` and ``coalesce``; a binary
    operation is parenthesized or not, so operator precedence is in play.
    Unary minus is followed by a space: ``--`` opens a comment.
    """
    atoms = st.one_of(
        st.sampled_from(("i", "f", "w")),
        st.sampled_from(INTS + FLOATS).map(_text),
    )

    def binary(a) -> str:
        text = f"{a[0]} {a[1]} {a[2]}"
        return f"({text})" if a[3] else text

    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(
                inner, st.sampled_from(("+", "-", "*")), inner, st.booleans()
            ).map(binary),
            inner.map(lambda x: f"- {x}"),
            inner.map(lambda x: f"abs({x})"),
            st.lists(inner, min_size=2, max_size=3).map(
                lambda xs: f"coalesce({', '.join(xs)})"
            ),
        ),
        max_leaves=4,
    )


@st.composite
def arithmetic_queries(draw) -> Tuple[str, str, bool]:
    items = draw(st.lists(arithmetic(), min_size=1, max_size=3))
    select = ", ".join(f"{item} AS e{k}" for k, item in enumerate(items))
    sql = f"SELECT id, {select} FROM t{_where(draw(MAYBE_PREDICATE))}"
    return sql, sql, False


#: Each position of a compound's select list draws its column from one
#: of these per arm: strings, or numbers (ints and floats mix, so ``1``
#: and ``1.0`` meet in one column).
UNION_COLUMNS = (("s1", "s2"), ("i", "f", "w"))


@st.composite
def union_queries(draw) -> Tuple[str, str, bool]:
    """Two or three SELECTs over ``t`` joined by ``UNION`` and ``UNION
    ALL``, each arm with its own columns and filter, maybe sorted and cut
    as a whole.  The arms are matched by position: a later arm names its
    columns like the first, in another order, or otherwise."""
    positions = draw(st.lists(st.sampled_from(UNION_COLUMNS), min_size=1, max_size=3))
    first = [f"c{k}" for k in range(len(positions))]

    def arm(aliases) -> str:
        items = ", ".join(
            f"{draw(st.sampled_from(columns))} AS {alias}"
            for alias, columns in zip(aliases, positions)
        )
        return f"SELECT {items} FROM t{_where(draw(MAYBE_PREDICATE))}"

    body = arm(first)
    for _ in range(draw(st.integers(1, 2))):
        aliases = draw(st.one_of(
            st.permutations(first), st.just([f"d{k}" for k in range(len(first))])
        ))
        body += f" {draw(st.sampled_from(['UNION', 'UNION ALL']))} {arm(aliases)}"
    if not draw(st.booleans()):
        return body, body, False
    # Ordering by every column, named as the first arm names it, is
    # total up to rows that compare equal.
    keys = [(alias, draw(st.booleans())) for alias in first]
    limit = draw(_limit())
    return (
        f"{body} {_order_clause(keys, False)}{limit}",
        f"{body} {_order_clause(keys, True)}{limit}",
        True,
    )


# -- comparison ----------------------------------------------------------------


def _same(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, str) or isinstance(b, str):
        return type(a) is type(b) and a == b
    return math.isclose(a, b, rel_tol=1e-9)


def _sort_key(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
    return tuple(
        (v is None, isinstance(v, str), 0 if v is None else v) for v in row
    )


def check(db: Database, con: sqlite3.Connection, query) -> List[tuple]:
    """Assert row == columnar (byte for byte) == sqlite; return the rows.

    After its first, row run the statement runs twice more, columnar and
    then row again; both repeats must be answered from the cached parse.
    """
    engine_sql, sqlite_sql, ordered = query
    cursor = con.execute(sqlite_sql)
    names = [d[0] for d in cursor.description]
    want = [tuple(row) for row in cursor.fetchall()]
    row = db.sql(engine_sql, execution="row")
    hits = parsed_statement.cache_info().hits
    columnar = db.sql(engine_sql, execution="columnar")
    again = db.sql(engine_sql, execution="row")
    assert parsed_statement.cache_info().hits == hits + 2, engine_sql
    assert result_fingerprint(columnar) == result_fingerprint(row), engine_sql
    assert result_fingerprint(again) == result_fingerprint(row), engine_sql
    got = [tuple(r[name] for name in names) for r in row]
    if not ordered:
        got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    assert len(got) == len(want), (engine_sql, got, want)
    for g, w in zip(got, want):
        assert all(map(_same, g, w)), (engine_sql, got, want)
    return got


@SETTINGS
@given(databases(), filter_queries())
def test_filters_match_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), group_queries())
def test_string_group_by_matches_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), join_queries())
def test_string_key_joins_match_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), int_group_queries())
def test_int_group_by_matches_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), int_join_queries())
def test_int_key_joins_match_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), order_queries())
def test_order_by_limit_matches_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), grouped_order_queries())
def test_order_by_over_groups_matches_sqlite(tables, query):
    check(*tables, query)


class TestNullKeyJoins:
    """An equi-join never pairs a NULL key, not even with a NULL key."""

    A = Schema.of(k=str, j=int, x=int)
    B = Schema.of(k=str, j=int, y=int)

    def _db(self):
        return load({
            "a": (self.A, [
                {"k": None, "j": 1, "x": 1},
                {"k": "p", "j": 1, "x": 2},
                {"k": "p", "j": None, "x": 3},
            ]),
            "b": (self.B, [
                {"k": None, "j": 1, "y": 10},
                {"k": "p", "j": 1, "y": 20},
                {"k": "p", "j": None, "y": 30},
            ]),
        })

    def _pairs_examined(self, db, sql):
        counts = []
        for mode in ("row", "columnar"):
            db.metrics.reset()
            db.sql(sql, execution=mode)
            counts.append(db.metrics.join_pairs_examined)
        return counts

    @pytest.mark.parametrize(
        "how, on, want",
        [
            ("JOIN", "a.k = b.k", [(2, 20), (2, 30), (3, 20), (3, 30)]),
            ("LEFT JOIN", "a.k = b.k",
             [(1, None), (2, 20), (2, 30), (3, 20), (3, 30)]),
            ("JOIN", "a.k = b.k AND a.j = b.j", [(2, 20)]),
            ("LEFT JOIN", "a.k = b.k AND a.j = b.j",
             [(1, None), (2, 20), (3, None)]),
            ("JOIN", "a.k = b.k OR a.x = 99",
             [(2, 20), (2, 30), (3, 20), (3, 30)]),
        ],
    )
    def test_null_keys_match_nothing(self, how, on, want):
        db, con = self._db()
        sql = f"SELECT a.x AS x, b.y AS y FROM a {how} b ON {on}"
        assert check(db, con, (sql, sql, False)) == want

    def test_pairs_examined_skip_null_keys(self):
        db, _ = self._db()
        sql = "SELECT a.x AS x FROM a JOIN b ON a.k = b.k AND a.j = b.j"
        assert self._pairs_examined(db, sql) == [1, 1]

    def test_group_by_still_groups_nulls(self):
        db, con = self._db()
        sql = "SELECT k, COUNT(*) AS n FROM a GROUP BY k"
        assert check(db, con, (sql, sql, False)) == [("p", 2), (None, 1)]


@SETTINGS
@given(databases(), distinct_queries())
def test_distinct_matches_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), distinct_aggregate_queries())
def test_distinct_aggregates_match_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), having_queries())
def test_having_matches_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), subquery_queries())
def test_in_subqueries_match_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), cte_queries())
def test_ctes_with_column_lists_match_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), cte_queries(shapes=("mixed",)))
def test_cte_columns_mixing_ints_and_floats_match_sqlite(tables, query):
    # The whole default budget on the one shape that needs many rows to
    # put an int before a non-integral float.
    check(*tables, query)


@SETTINGS
@given(databases(), arithmetic_queries())
def test_select_list_arithmetic_matches_sqlite(tables, query):
    check(*tables, query)


@SETTINGS
@given(databases(), union_queries())
def test_compounds_match_sqlite(tables, query):
    check(*tables, query)


class TestDivergencesFound:
    """What the ``IN (SELECT …)``, CTE and compound generators found,
    pinned."""

    def _db(self):
        return load({
            "a": (Schema.of(k=str, x=int, f=float), [
                {"k": None, "x": 1, "f": None},
                {"k": "p", "x": 2, "f": 0.5},
                {"k": "q", "x": 3, "f": 1.5},
            ]),
            "b": (Schema.of(k=str), [{"k": "p"}, {"k": None}]),
            "e": (Schema.of(k=str), []),
        })

    @pytest.mark.parametrize(
        "where, want",
        [
            # A miss against a list holding NULL is unknown, not false.
            ("k IN (SELECT k FROM b)", [2]),
            ("k NOT IN (SELECT k FROM b)", []),
            ("NOT (k IN (SELECT k FROM b))", []),
            ("k NOT IN ('p', NULL)", []),
            ("x NOT IN (2, NULL)", []),
            # An empty list: IN is false and NOT IN true, NULL k included.
            ("k IN (SELECT k FROM e)", []),
            ("k NOT IN (SELECT k FROM e)", [1, 2, 3]),
        ],
    )
    def test_in_follows_sql_null_rules(self, where, want):
        db, con = self._db()
        sql = f"SELECT x FROM a WHERE {where}"
        assert [x for (x,) in check(db, con, (sql, sql, False))] == want

    def test_in_projects_unknown(self):
        db, con = self._db()
        sql = "SELECT x, k IN (SELECT k FROM b) AS m FROM a"
        assert check(db, con, (sql, sql, False)) == [
            (1, None), (2, True), (3, None)
        ]

    def test_cte_column_types_skip_a_leading_null(self):
        db, con = self._db()
        sql = "WITH c (y, z) AS (SELECT x, f FROM a) SELECT y, z FROM c WHERE z > 1"
        assert check(db, con, (sql, sql, False)) == [(3, 1.5)]

    def _mixed(self):
        """One int and one float in ``coalesce(i, f)``, the int first."""
        return load({"t": (Schema.of(i=int, f=float), [
            {"i": 1, "f": None},
            {"i": None, "f": 2.5},
        ])})

    def test_cte_column_mixing_ints_and_floats_keeps_the_floats(self):
        db, con = self._mixed()
        sql = "WITH c (v) AS (SELECT coalesce(i, f) FROM t) SELECT v FROM c"
        got = check(db, con, (sql, sql, False))
        assert got == [(1.0,), (2.5,)]
        assert all(isinstance(v, float) for (v,) in got)

    def test_create_table_as_mixing_ints_and_floats_keeps_the_floats(self):
        db, con = self._mixed()
        ddl = "CREATE TABLE m AS SELECT coalesce(i, f) AS v FROM t"
        db.sql(ddl)
        con.execute(ddl)
        assert db.table("m").schema.columns[0].dtype is float
        sql = "SELECT v FROM m"
        assert check(db, con, (sql, sql, False)) == [(1.0,), (2.5,)]

    def _dupes(self):
        return load({"t": (Schema.of(a=int), [{"a": 1}, {"a": 1}, {"a": 2}])})

    @pytest.mark.parametrize(
        "sql, want",
        [
            # UNION is a set union; UNION ALL keeps every row.
            ("SELECT a FROM t UNION SELECT a FROM t", [(1,), (2,)]),
            ("SELECT a FROM t UNION ALL SELECT a FROM t", [(1,)] * 4 + [(2,)] * 2),
            # Left to right: the last UNION removes the duplicates before it.
            ("SELECT a FROM t UNION ALL SELECT a FROM t UNION SELECT a FROM t",
             [(1,), (2,)]),
            ("SELECT a FROM t UNION SELECT a FROM t UNION ALL SELECT a FROM t",
             [(1,), (1,), (1,), (2,), (2,)]),
        ],
    )
    def test_union_removes_duplicates_and_union_all_keeps_them(self, sql, want):
        db, con = self._dupes()
        assert check(db, con, (sql, sql, False)) == want

    @pytest.mark.parametrize(
        "sql, want",
        [
            # The arms meet by position, under the first arm's names.
            ("SELECT a FROM t UNION SELECT b FROM t", [(1,), (2,)]),
            ("SELECT a, b FROM t UNION SELECT b AS b, a AS a FROM t",
             [(1, 2), (2, 1)]),
        ],
    )
    def test_compound_arms_are_matched_by_position(self, sql, want):
        db, con = load({"t": (Schema.of(a=int, b=int), [{"a": 1, "b": 2}])})
        assert check(db, con, (sql, sql, False)) == want

    def test_order_by_and_limit_after_a_compound_apply_to_all_of_it(self):
        db, con = self._dupes()
        sql = "SELECT a FROM t WHERE a = 2 UNION ALL SELECT a FROM t ORDER BY a DESC LIMIT 3"
        assert check(db, con, (sql, sql, True)) == [(2,), (2,), (1,)]
