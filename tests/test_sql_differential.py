"""Differential SQL oracle: both executors against stdlib ``sqlite3``.

Every other engine oracle compares the engine with itself, so a bug the
row and columnar executors share is invisible to it.  Here hypothesis
generates NULL-rich, tie-rich tables and queries from the grammar
:mod:`repro.engine.sqlparser` accepts — filters, ``GROUP BY`` a string
key, inner and left equi-joins on a string key, ``ORDER BY`` … ``LIMIT``
and ``ORDER BY`` over a grouped result — and each query must give the
same answer with ``execution="row"``, with ``"columnar"`` (byte for
byte) and through ``sqlite3``.

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
FLOATS = tuple(k * 0.5 for k in range(-4, 5))
OPS = ("=", "<>", "<", "<=", ">", ">=")

T_SCHEMA = Schema.of(id=int, s1=str, s2=str, i=int, f=float)
U_SCHEMA = Schema.of(id=int, s=str, v=int)


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
    [("s1", ALPHABET), ("s2", ALPHABET), ("i", INTS), ("f", FLOATS)], 25
)
U_ROWS = _rows([("s", ALPHABET), ("v", INTS)], 12)


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
    """Assert row == columnar (byte for byte) == sqlite; return the rows."""
    engine_sql, sqlite_sql, ordered = query
    cursor = con.execute(sqlite_sql)
    names = [d[0] for d in cursor.description]
    want = [tuple(row) for row in cursor.fetchall()]
    row = db.sql(engine_sql, execution="row")
    columnar = db.sql(engine_sql, execution="columnar")
    assert result_fingerprint(columnar) == result_fingerprint(row), engine_sql
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
