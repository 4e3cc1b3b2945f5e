"""Tests for the fluent query API and executor."""

from __future__ import annotations

import pytest

from repro.engine import (
    ExecutionMetrics,
    Schema,
    avg,
    col,
    count,
    lit,
    max_,
    min_,
    sum_,
)
from repro.errors import CatalogError, QueryError


class TestScanFilterProject:
    def test_filter(self, people_db):
        rows = people_db.query("person").where(col("age") < 10).run()
        assert all(r["age"] < 10 for r in rows)
        assert len(rows) > 0

    def test_project_with_computed(self, people_db):
        rows = (
            people_db.query("person")
            .select("pid", doubled=col("income") * 2)
            .run()
        )
        assert set(rows[0]) == {"pid", "doubled"}

    def test_alias_prefixing(self, people_db):
        rows = people_db.query("person", alias="p").limit(1).run()
        assert "p.pid" in rows[0]

    def test_empty_select_raises(self, people_db):
        with pytest.raises(QueryError):
            people_db.query("person").select()


class TestJoins:
    def test_hash_join(self, people_db):
        people_db.create_table("bonus", Schema.of(pid=int, amount=float))
        for i in range(0, 20, 2):
            people_db.table("bonus").insert({"pid": i, "amount": 10.0 * i})
        rows = (
            people_db.query("person", alias="p")
            .join(people_db.query("bonus", alias="b"), on=("p.pid", "b.pid"))
            .run()
        )
        assert len(rows) == 10
        assert all(r["p.pid"] == r["b.pid"] for r in rows)

    def test_left_join_preserves_unmatched(self, people_db):
        people_db.create_table("bonus", Schema.of(pid=int, amount=float))
        people_db.table("bonus").insert({"pid": 0, "amount": 5.0})
        rows = (
            people_db.query("person", alias="p")
            .join(
                people_db.query("bonus", alias="b"),
                on=("p.pid", "b.pid"),
                how="left",
            )
            .run()
        )
        assert len(rows) == 20
        unmatched = [r for r in rows if r["b.amount"] is None]
        assert len(unmatched) == 19

    def test_cross_join(self, people_db):
        people_db.create_table("two", Schema.of(k=int))
        people_db.table("two").insert_many([{"k": 1}, {"k": 2}])
        rows = (
            people_db.query("person", alias="p")
            .join(people_db.query("two", alias="t"))
            .run()
        )
        assert len(rows) == 40

    def test_theta_join_nested_loop(self, people_db):
        people_db.create_table("cut", Schema.of(threshold=int))
        people_db.table("cut").insert({"threshold": 40})
        rows = (
            people_db.query("person", alias="p")
            .join(
                people_db.query("cut", alias="c"),
                on=col("p.age") > col("c.threshold"),
            )
            .run()
        )
        assert all(r["p.age"] > 40 for r in rows)

    def test_join_metrics_counted(self, people_db):
        people_db.create_table("other", Schema.of(pid=int))
        people_db.table("other").insert({"pid": 3})
        metrics = ExecutionMetrics()
        (
            people_db.query("person", alias="p")
            .join(people_db.query("other", alias="o"), on=("p.pid", "o.pid"))
            .run(metrics)
        )
        assert metrics.rows_joined == 1
        assert metrics.rows_scanned == 21


class TestAggregation:
    def test_global_count(self, people_db):
        n = people_db.query("person").aggregate(count(alias="n")).scalar()
        assert n == 20

    def test_group_by_region(self, people_db):
        rows = (
            people_db.query("person")
            .aggregate(
                count(alias="n"),
                avg("income", alias="mean_income"),
                group_by=["region"],
            )
            .run()
        )
        assert len(rows) == 2
        assert {r["region"] for r in rows} == {"east", "west"}
        assert all(r["n"] == 10 for r in rows)

    def test_min_max_sum(self, people_db):
        row = (
            people_db.query("person")
            .aggregate(
                min_("income", alias="lo"),
                max_("income", alias="hi"),
                sum_("income", alias="total"),
            )
            .run()[0]
        )
        assert row["lo"] == 20000.0
        assert row["hi"] == 39000.0
        assert row["total"] == pytest.approx(sum(20000.0 + 1000 * i for i in range(20)))

    def test_count_distinct(self, people_db):
        n = (
            people_db.query("person")
            .aggregate(count("region", alias="n", distinct=True))
            .scalar()
        )
        assert n == 2

    def test_aggregate_over_empty_is_one_row(self, people_db):
        row = (
            people_db.query("person")
            .where(lit(False))
            .aggregate(count(alias="n"), avg("income", alias="m"))
            .run()
        )
        assert row == [{"n": 0, "m": None}]

    def test_var_std(self, people_db):
        import numpy as np

        incomes = np.array(people_db.table("person").column_values("income"))
        row = (
            people_db.query("person")
            .aggregate(
                __import__("repro.engine", fromlist=["agg"]).agg(
                    "var", "income", alias="v"
                )
            )
            .run()[0]
        )
        assert row["v"] == pytest.approx(float(incomes.var(ddof=1)))


class TestOrderLimitDistinctUnion:
    def test_order_by_desc(self, people_db):
        rows = (
            people_db.query("person")
            .order_by("income", descending=True)
            .limit(3)
            .run()
        )
        incomes = [r["income"] for r in rows]
        assert incomes == sorted(incomes, reverse=True)
        assert len(rows) == 3

    def test_order_nulls_last(self, people_db):
        people_db.table("person").insert(
            {"pid": 99, "age": 1, "region": "east", "income": None}
        )
        rows = people_db.query("person").order_by("income").run()
        assert rows[-1]["income"] is None

    def test_distinct(self, people_db):
        rows = people_db.query("person").select("region").distinct().run()
        assert len(rows) == 2

    def test_union(self, people_db):
        a = people_db.query("person").select("pid").limit(2)
        b = people_db.query("person").select("pid").limit(3)
        assert a.union(b).count_rows() == 5

    def test_union_mismatch(self, people_db):
        a = people_db.query("person").select("pid")
        b = people_db.query("person").select("pid", "age")
        with pytest.raises(QueryError, match="different numbers of columns"):
            a.union(b).run()

    def test_union_matches_columns_by_position(self, people_db):
        """The arms stack under the left arm's names, as in SQL."""
        a = people_db.query("person").select("pid").limit(2)
        b = people_db.query("person").select("age").limit(3)
        rows = a.union(b).run()
        ages = [r["age"] for r in b.run()]
        assert rows == [{"pid": 0}, {"pid": 1}] + [{"pid": age} for age in ages]

    def test_scalar_requires_1x1(self, people_db):
        with pytest.raises(QueryError):
            people_db.query("person").select("pid").scalar()


class TestCatalog:
    def test_duplicate_table(self, people_db):
        with pytest.raises(CatalogError):
            people_db.create_table("person", Schema.of(x=int))

    def test_drop(self, people_db):
        people_db.drop_table("person")
        assert "person" not in people_db

    def test_drop_unknown(self, people_db):
        with pytest.raises(CatalogError):
            people_db.drop_table("nope")

    def test_unknown_table_query(self, people_db):
        with pytest.raises(CatalogError):
            people_db.query("nope")

    def test_analyze_collects_stats(self, people_db):
        people_db.analyze()
        stats = people_db.statistics("person")
        assert stats.row_count == 20
        assert stats.columns["region"].distinct_count == 2
        assert stats.columns["income"].minimum == 20000.0
