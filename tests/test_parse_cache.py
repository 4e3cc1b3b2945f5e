"""The process-wide statement cache behind ``parse_statement``.

Each distinct SQL text is parsed once (:func:`repro.engine.sqlparser.
parsed_statement`): every later caller, on any thread, gets the same
immutable ``(kind, payload, reads, writes)``.  These tests pin what that
promises:

* a repeated text builds one ``_Parser``;
* a malformed text raises the same ``QueryError`` every time and is
  never cached;
* the cache never grows past :data:`PARSE_CACHE_ENTRIES`;
* nothing a caller gets back can be mutated under the next caller;
* concurrent parses of shared texts agree;
* a served ``sql`` request parses at most once, a repeated one zero
  times, even when its execution is killed and retried;
* a malformed statement sent twice answers ``invalid_query`` both times.

The over-the-wire tests run under whatever fault plan is ambient, so the
suite also holds with ``REPRO_FAULTS=at=serve.request:0``.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.engine import sqlparser
from repro.engine.catalog import Database
from repro.engine.schema import Schema
from repro.engine.sqlparser import (
    PARSE_CACHE_ENTRIES,
    execute_statement,
    parse_statement,
    parsed_statement,
)
from repro.errors import QueryError
from repro.faults import FaultPlan, injected
from repro.serve import (
    Client,
    ReproServer,
    ServeConfig,
    ServeError,
    build_demo_catalog,
    serve_in_thread,
)

#: One text of every statement kind the parser returns.
STATEMENTS = [
    "SELECT region, COUNT(*) AS n FROM person WHERE age > 30 GROUP BY region",
    "SELECT pid FROM person WHERE region IN (SELECT region FROM person "
    "WHERE income > 25000) ORDER BY pid LIMIT 3",
    "WITH c (r, n) AS (SELECT region, COUNT(*) FROM person GROUP BY region) "
    "SELECT r, n FROM c WHERE n > 1",
    "CREATE TABLE z (a int, b text)",
    "CREATE TABLE y AS SELECT pid FROM person",
    "INSERT INTO z (a, b) VALUES (1, 'x'), (2, 'y')",
    "INSERT INTO z SELECT pid, region FROM person",
    "UPDATE z SET a = a + 1, b = 'w' WHERE a > 1",
    "DELETE FROM z WHERE a = 1",
    "DROP TABLE z",
]


@pytest.fixture(autouse=True)
def fresh_cache():
    parsed_statement.cache_clear()
    yield
    parsed_statement.cache_clear()


@pytest.fixture
def parses(monkeypatch):
    """A list that records every ``_Parser`` built from now on."""
    built = []

    class CountingParser(sqlparser._Parser):
        def __init__(self, sql):
            built.append(sql)
            super().__init__(sql)

    monkeypatch.setattr(sqlparser, "_Parser", CountingParser)
    return built


def render(parsed):
    """A comparable rendering: expressions overload ``==`` to build SQL."""
    return repr(tuple(parsed))


class TestOneParsePerText:
    def test_repeated_text_builds_one_parser(self, parses):
        text = STATEMENTS[0]
        first = parse_statement(text)
        for _ in range(3):
            assert parse_statement(text)[1] is first[1]
        assert parses == [text]

    def test_database_sql_reuses_the_parse(self, parses):
        db = build_demo_catalog()
        text = "SELECT region, SUM(income) AS s FROM person GROUP BY region"
        assert db.sql(text) == db.sql(text, execution="row")
        assert parses == [text]

    def test_entry_holds_the_statement_tables(self):
        parsed = parsed_statement(
            "INSERT INTO z SELECT pid FROM person WHERE region IN "
            "(SELECT region FROM visit)"
        )
        assert parsed.kind == "insert_select"
        assert parsed.reads == frozenset({"person", "visit"})
        assert parsed.writes == frozenset({"z"})

    def test_malformed_text_raises_alike_and_is_never_cached(self, parses):
        text = "SELECT pid FROM person WHERE"
        messages = []
        for _ in range(3):
            with pytest.raises(QueryError) as excinfo:
                parse_statement(text)
            messages.append(str(excinfo.value))
        assert len(set(messages)) == 1
        assert parses == [text] * 3
        assert parsed_statement.cache_info().currsize == 0

    def test_cache_never_grows_past_its_bound(self, parses):
        texts = [
            f"SELECT pid FROM person WHERE pid = {i}"
            for i in range(PARSE_CACHE_ENTRIES + 40)
        ]
        for text in texts:
            parse_statement(text)
            assert parsed_statement.cache_info().currsize <= PARSE_CACHE_ENTRIES
        assert parsed_statement.cache_info().currsize == PARSE_CACHE_ENTRIES
        del parses[:]
        parse_statement(texts[-1])  # recently used: still cached
        assert parses == []
        parse_statement(texts[0])  # least recently used: evicted
        assert parses == [texts[0]]


class TestSharedPayloadsAreImmutable:
    def test_containers_refuse_mutation(self):
        for text in STATEMENTS:
            kind, payload, reads, writes = parsed_statement(text)
            assert isinstance(reads, frozenset), text
            assert isinstance(writes, frozenset), text
            if kind == "select_with_ctes":
                ctes, _ = payload
                assert isinstance(ctes, tuple)
                assert all(isinstance(c[1], tuple) for c in ctes)
            elif kind == "create":
                assert isinstance(payload[1], tuple)
            elif kind == "insert":
                _, columns, rows = payload
                assert isinstance(columns, tuple)
                assert isinstance(rows, tuple)
                assert all(isinstance(row, tuple) for row in rows)
            elif kind == "update":
                assert isinstance(payload[1], tuple)
            elif kind in ("select", "create_as", "insert_select"):
                plan = payload if kind == "select" else payload[-1]
                with pytest.raises(dataclasses.FrozenInstanceError):
                    plan.child = None

    def test_one_callers_mutation_cannot_reach_the_next(self):
        text = (
            "WITH c (r, n) AS (SELECT region, COUNT(*) FROM person "
            "GROUP BY region) SELECT r, n FROM c"
        )
        before = render(parsed_statement(text))
        kind, payload = parse_statement(text)
        ctes, _ = payload
        with pytest.raises((TypeError, AttributeError)):
            ctes[0][1][0] = "hijacked"
        with pytest.raises((TypeError, AttributeError)):
            ctes.append(("extra", None, None))
        assert render(parsed_statement(text)) == before

    def test_executing_a_shared_payload_leaves_it_unchanged(self):
        """DDL/DML executed from one cached parse on two catalogs."""
        texts = STATEMENTS[3:]  # CREATE ... DROP
        before = [render(parsed_statement(text)) for text in texts]
        for _ in range(2):
            db = build_demo_catalog()
            for text in texts:
                db.sql(text)
            assert "y" in db and "z" not in db
        assert [render(parsed_statement(text)) for text in texts] == before

    def test_execute_statement_matches_sql(self):
        db = Database()
        db.create_table("t", Schema.of(x=int))
        kind, payload = parse_statement("INSERT INTO t VALUES (1), (2)")
        execute_statement(db, kind, payload)
        kind, payload = parse_statement("SELECT SUM(x) AS s FROM t")
        assert execute_statement(db, kind, payload) == db.sql(
            "SELECT SUM(x) AS s FROM t"
        ) == [{"s": 3.0}]


def test_threads_parsing_shared_texts_agree():
    """8 threads (more than cores) race misses and hits on shared texts."""
    texts = STATEMENTS + [
        f"SELECT pid, age + {i} AS a FROM person WHERE income > {i}"
        for i in range(30)
    ]
    reference = {
        text: render(sqlparser._Parser(text).parse_statement())
        for text in texts
    }
    barrier = threading.Barrier(8)
    seen = [dict() for _ in range(8)]
    errors = []

    def work(slot):
        try:
            barrier.wait(timeout=30)
            for round_ in range(5):
                order = texts[slot:] + texts[:slot]
                for text in order if round_ % 2 else reversed(order):
                    got = render(parse_statement(text))
                    assert seen[slot].setdefault(text, got) == got
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for slot in range(8):
        assert seen[slot] == reference
    assert parsed_statement.cache_info().currsize == len(texts)


# ---------------------------------------------------------------------------
# Over the wire
# ---------------------------------------------------------------------------


def start_server():
    config = ServeConfig(port=0)
    return serve_in_thread(ReproServer(config, catalog=build_demo_catalog()))


SQL = "SELECT region, AVG(income) AS a, COUNT(*) AS n FROM person GROUP BY region"


def lookups():
    """``(hits, misses)`` of the statement cache so far."""
    info = parsed_statement.cache_info()
    return info.hits, info.misses


class TestServedRequests:
    """The event loop looks a request's text up once; the worker executes
    that parse without a second lookup, so a miss costs one parse and a
    hit none."""

    def test_fresh_request_parses_once_repeated_zero_times(self, parses):
        with start_server() as (host, port):
            with Client(host, port) as client:
                first = client.sql(SQL)
                assert parses == [SQL]
                assert lookups() == (0, 1)
                second = client.sql(SQL)  # a result-cache hit
                # The default executor, named: the same entry.
                columnar = client.sql(SQL, execution="columnar")
                rows = client.sql(SQL, execution="row")  # executed again
                assert lookups() == (3, 1)
        assert parses == [SQL]
        assert (first.cache, second.cache, columnar.cache, rows.cache) == (
            "miss", "hit", "hit", "miss"
        )
        assert first.result_bytes == second.result_bytes == columnar.result_bytes
        assert rows.result["rows"] == first.result["rows"]

    def test_retried_execution_does_not_parse_again(self, parses):
        with injected(FaultPlan(failures={("serve.request", 0): 1})):
            with start_server() as (host, port):
                with Client(host, port) as client:
                    served = client.sql(SQL)
                    assert lookups() == (0, 1)
        assert parses == [SQL]
        assert served.result["rows"] == build_demo_catalog().sql(SQL)

    def test_session_dml_parses_once_per_text(self, parses):
        texts = [
            "CREATE TABLE z (a int)",
            "INSERT INTO z VALUES (1), (2)",
            "SELECT SUM(a) AS s FROM z",
        ]
        with start_server() as (host, port):
            with Client(host, port) as client:
                client.open_session()
                for text in texts:
                    client.sql(text)
                client.sql(texts[1])
                total = client.sql(texts[2])
        assert sorted(parses) == sorted(texts)
        assert total.result["rows"] == [{"s": 6.0}]

    def test_malformed_statement_twice_then_still_serving(self, parses):
        bad = "SELECT FROM WHERE"
        with start_server() as (host, port):
            with Client(host, port) as client:
                errors = []
                for _ in range(2):
                    with pytest.raises(ServeError) as excinfo:
                        client.sql(bad)
                    errors.append(excinfo.value)
                good = client.sql(SQL)
        assert [e.code for e in errors] == ["invalid_query"] * 2
        assert str(errors[0]) == str(errors[1])
        assert parses == [bad, bad, SQL]
        assert good.result["rowcount"] == 2
