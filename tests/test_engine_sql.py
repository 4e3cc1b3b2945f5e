"""Tests for the SQL dialect."""

from __future__ import annotations

import pytest

from repro.engine import Database, Schema
from repro.engine import plan as lp
from repro.engine.sqlparser import parse_statement
from repro.errors import QueryError


@pytest.fixture
def db(people_db):
    return people_db


class TestSelect:
    def test_select_star(self, db):
        rows = db.sql("SELECT * FROM person")
        assert len(rows) == 20
        assert "pid" in rows[0]

    def test_where_between(self, db):
        rows = db.sql("SELECT pid FROM person WHERE age BETWEEN 0 AND 10")
        assert all(isinstance(r["pid"], int) for r in rows)

    def test_arithmetic_projection(self, db):
        rows = db.sql("SELECT pid, income / 1000 AS k FROM person LIMIT 1")
        assert rows[0]["k"] == 20.0

    def test_string_literal(self, db):
        rows = db.sql("SELECT COUNT(*) AS n FROM person WHERE region = 'east'")
        assert rows[0]["n"] == 10

    def test_in_list(self, db):
        rows = db.sql("SELECT pid FROM person WHERE pid IN (1, 2, 3)")
        assert {r["pid"] for r in rows} == {1, 2, 3}

    def test_not_in(self, db):
        rows = db.sql("SELECT pid FROM person WHERE pid NOT IN (0)")
        assert len(rows) == 19

    def test_is_null(self, db):
        db.table("person").insert(
            {"pid": 77, "age": 5, "region": "east", "income": None}
        )
        rows = db.sql("SELECT pid FROM person WHERE income IS NULL")
        assert rows == [{"pid": 77}]
        rows = db.sql(
            "SELECT COUNT(*) AS n FROM person WHERE income IS NOT NULL"
        )
        assert rows[0]["n"] == 20

    def test_group_by_having(self, db):
        rows = db.sql(
            "SELECT region, COUNT(*) AS n, AVG(income) AS m "
            "FROM person GROUP BY region HAVING n >= 10 ORDER BY region"
        )
        assert [r["region"] for r in rows] == ["east", "west"]

    def test_order_by_desc_limit(self, db):
        rows = db.sql(
            "SELECT pid, income FROM person ORDER BY income DESC LIMIT 2"
        )
        assert rows[0]["income"] >= rows[1]["income"]
        assert len(rows) == 2

    def test_join_with_aliases(self, db):
        db.create_table("flag", Schema.of(pid=int, tag=str))
        db.table("flag").insert({"pid": 2, "tag": "vip"})
        rows = db.sql(
            "SELECT p.pid, f.tag FROM person p JOIN flag f ON p.pid = f.pid"
        )
        assert rows == [{"pid": 2, "tag": "vip"}]

    def test_left_join(self, db):
        db.create_table("flag", Schema.of(pid=int, tag=str))
        db.table("flag").insert({"pid": 2, "tag": "vip"})
        rows = db.sql(
            "SELECT p.pid, f.tag FROM person p "
            "LEFT JOIN flag f ON p.pid = f.pid WHERE f.tag IS NULL"
        )
        assert len(rows) == 19

    def test_implicit_cross_join_with_where(self, db):
        db.create_table("param", Schema.of(cut=int))
        db.table("param").insert({"cut": 70})
        rows = db.sql(
            "SELECT p.pid FROM person p, param q WHERE p.age > q.cut"
        )
        assert all(isinstance(r["pid"], int) for r in rows)

    def test_subquery_in_from(self, db):
        rows = db.sql(
            "SELECT COUNT(*) AS n FROM "
            "(SELECT pid FROM person WHERE age < 40) sub"
        )
        assert rows[0]["n"] == db.sql(
            "SELECT COUNT(*) AS n FROM person WHERE age < 40"
        )[0]["n"]

    def test_distinct(self, db):
        rows = db.sql("SELECT DISTINCT region FROM person")
        assert len(rows) == 2

    def test_union(self, db):
        rows = db.sql(
            "SELECT pid FROM person WHERE pid = 0 "
            "UNION SELECT pid FROM person WHERE pid = 1"
        )
        assert len(rows) == 2

    def test_count_distinct(self, db):
        rows = db.sql("SELECT COUNT(DISTINCT region) AS n FROM person")
        assert rows[0]["n"] == 2

    def test_scalar_functions(self, db):
        rows = db.sql("SELECT ABS(0 - 5) AS a FROM person LIMIT 1")
        assert rows[0]["a"] == 5


class TestDDLDML:
    def test_create_insert_select(self):
        db = Database()
        db.sql("CREATE TABLE t (x int, label text)")
        db.sql("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert db.sql("SELECT COUNT(*) AS n FROM t")[0]["n"] == 2

    def test_insert_with_columns(self):
        db = Database()
        db.sql("CREATE TABLE t (x int, y int)")
        db.sql("INSERT INTO t (y, x) VALUES (2, 1)")
        assert db.sql("SELECT * FROM t") == [{"x": 1, "y": 2}]

    def test_insert_select(self, db):
        db.sql("CREATE TABLE young (pid int)")
        db.sql("INSERT INTO young SELECT pid FROM person WHERE age < 10")
        n = db.sql("SELECT COUNT(*) AS n FROM young")[0]["n"]
        assert n == len(db.sql("SELECT pid FROM person WHERE age < 10"))

    def test_create_table_as(self, db):
        db.sql(
            "CREATE TABLE seniors AS SELECT pid, age FROM person "
            "WHERE age >= 60"
        )
        assert "seniors" in db
        rows = db.sql("SELECT * FROM seniors")
        assert all(r["age"] >= 60 for r in rows)

    def test_update(self):
        db = Database()
        db.sql("CREATE TABLE t (x int)")
        db.sql("INSERT INTO t VALUES (1), (2)")
        db.sql("UPDATE t SET x = x * 10 WHERE x = 2")
        assert sorted(r["x"] for r in db.sql("SELECT x FROM t")) == [1, 20]

    def test_delete(self):
        db = Database()
        db.sql("CREATE TABLE t (x int)")
        db.sql("INSERT INTO t VALUES (1), (2), (3)")
        db.sql("DELETE FROM t WHERE x > 1")
        assert db.sql("SELECT COUNT(*) AS n FROM t")[0]["n"] == 1

    def test_drop(self):
        db = Database()
        db.sql("CREATE TABLE t (x int)")
        db.sql("DROP TABLE t")
        assert "t" not in db

    def test_negative_literals(self):
        db = Database()
        db.sql("CREATE TABLE t (x int)")
        db.sql("INSERT INTO t VALUES (-5)")
        assert db.sql("SELECT x FROM t") == [{"x": -5}]

    def test_quoted_string_with_escape(self):
        db = Database()
        db.sql("CREATE TABLE t (s text)")
        db.sql("INSERT INTO t VALUES ('it''s')")
        assert db.sql("SELECT s FROM t") == [{"s": "it's"}]


class TestErrors:
    def test_syntax_error(self, db):
        with pytest.raises(QueryError):
            db.sql("SELECT FROM person")

    def test_trailing_garbage(self, db):
        with pytest.raises(QueryError):
            db.sql("SELECT pid FROM person extra garbage here")

    def test_unknown_table(self, db):
        with pytest.raises(QueryError):
            db.sql("SELECT * FROM nope")

    def test_group_by_violation(self, db):
        with pytest.raises(QueryError):
            db.sql("SELECT pid, COUNT(*) AS n FROM person GROUP BY region")

    def test_insert_arity_mismatch(self):
        db = Database()
        db.sql("CREATE TABLE t (x int, y int)")
        with pytest.raises(QueryError):
            db.sql("INSERT INTO t VALUES (1)")


class TestQualifiedNames:
    """Table names qualify their own columns, aliased or not."""

    def test_table_name_qualifier_in_join(self, db):
        db.create_table("flag", Schema.of(pid=int, tag=str))
        db.table("flag").insert({"pid": 3, "tag": "vip"})
        rows = db.sql(
            "SELECT person.pid, flag.tag FROM person "
            "JOIN flag ON person.pid = flag.pid"
        )
        assert rows == [{"pid": 3, "tag": "vip"}]

    def test_qualified_name_single_unaliased_table(self, db):
        rows = db.sql("SELECT person.pid FROM person WHERE person.age < 8")
        assert all(isinstance(r["pid"], int) for r in rows)

    def test_scientific_notation_literals(self, db):
        rows = db.sql("SELECT COUNT(*) AS n FROM person WHERE income > 1e4")
        assert rows[0]["n"] == 20
        rows = db.sql(
            "SELECT COUNT(*) AS n FROM person WHERE income > 3.5E4"
        )
        assert rows[0]["n"] < 20

    def test_mixed_alias_and_table_name(self, db):
        db.create_table("flag", Schema.of(pid=int))
        db.table("flag").insert({"pid": 0})
        rows = db.sql(
            "SELECT p.age FROM person p JOIN flag ON p.pid = flag.pid"
        )
        assert len(rows) == 1


class TestSubqueriesAndCtes:
    def test_in_subquery(self, db):
        db.create_table("vip", Schema.of(pid=int))
        db.table("vip").insert_many([{"pid": 1}, {"pid": 3}])
        rows = db.sql(
            "SELECT pid FROM person WHERE pid IN (SELECT pid FROM vip)"
        )
        assert {r["pid"] for r in rows} == {1, 3}

    def test_not_in_subquery(self, db):
        db.create_table("vip", Schema.of(pid=int))
        db.table("vip").insert({"pid": 0})
        rows = db.sql(
            "SELECT COUNT(*) AS n FROM person "
            "WHERE pid NOT IN (SELECT pid FROM vip)"
        )
        assert rows[0]["n"] == 19

    def test_plan_without_subquery_is_not_rebuilt(self, db):
        plan = parse_statement(
            "SELECT region, COUNT(*) AS n FROM person WHERE pid IN (1, 2) "
            "AND abs(age) > 3 GROUP BY region ORDER BY n"
        )[1]
        assert lp.subqueries(plan) == []
        assert db._materialize_subqueries(plan, None) is plan

    def test_nested_subqueries_are_found_and_materialized(self, db):
        plan = parse_statement(
            "SELECT pid FROM person WHERE NOT (abs(pid) IN "
            "(SELECT pid FROM person WHERE age IN (SELECT age FROM person)))"
        )[1]
        (found,) = lp.subqueries(plan)
        assert len(lp.subqueries(found.plan)) == 1
        materialized = db._materialize_subqueries(plan, None)
        assert lp.subqueries(materialized) == []
        assert db.sql("SELECT pid FROM person WHERE NOT (abs(pid) IN "
                      "(SELECT pid FROM person WHERE age IN "
                      "(SELECT age FROM person)))") == []

    def test_in_subquery_multi_column_rejected(self, db):
        with pytest.raises(QueryError):
            db.sql(
                "SELECT pid FROM person WHERE pid IN "
                "(SELECT pid, age FROM person)"
            )

    def test_with_cte(self, db):
        rows = db.sql(
            "WITH young (pid) AS (SELECT pid FROM person WHERE age < 40) "
            "SELECT COUNT(pid) AS n FROM young"
        )
        assert rows[0]["n"] == len(
            db.sql("SELECT pid FROM person WHERE age < 40")
        )

    def test_with_cte_chaining(self, db):
        rows = db.sql(
            "WITH young (pid) AS (SELECT pid FROM person WHERE age < 40), "
            "young_even (pid) AS "
            "(SELECT pid FROM young WHERE pid % 2 = 0) "
            "SELECT COUNT(pid) AS n FROM young_even"
        )
        direct = db.sql(
            "SELECT COUNT(pid) AS n FROM person "
            "WHERE age < 40 AND pid % 2 = 0"
        )
        assert rows == direct

    def test_empty_cte_with_declared_columns(self, db):
        rows = db.sql(
            "WITH nobody (pid) AS (SELECT pid FROM person WHERE age > 999) "
            "SELECT COUNT(pid) AS n FROM nobody"
        )
        assert rows[0]["n"] == 0

    def test_empty_cte_without_columns_rejected(self, db):
        with pytest.raises(QueryError):
            db.sql(
                "WITH nobody AS (SELECT pid FROM person WHERE age > 999) "
                "SELECT COUNT(pid) AS n FROM nobody"
            )

    def test_cte_does_not_leak_into_catalog(self, db):
        db.sql(
            "WITH young (pid) AS (SELECT pid FROM person WHERE age < 40) "
            "SELECT COUNT(pid) AS n FROM young"
        )
        assert "young" not in db
