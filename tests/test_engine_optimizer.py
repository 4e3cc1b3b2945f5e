"""Tests for the plan optimizer and catalog statistics."""

from __future__ import annotations

import pytest

from repro.engine import Database, Schema, col, lit, parse_select
from repro.engine import plan as lp
from repro.engine.optimizer import push_down_filters, reorder_joins
from repro.engine.statistics import (
    join_cardinality,
    predicate_selectivity,
)


@pytest.fixture
def db():
    db = Database()
    db.create_table("big", Schema.of(k=int, v=float))
    for i in range(300):
        db.table("big").insert({"k": i % 30, "v": float(i)})
    db.create_table("small", Schema.of(k=int, tag=str))
    for i in range(10):
        db.table("small").insert({"k": i, "tag": f"t{i}"})
    db.create_table("mid", Schema.of(k=int, w=float))
    for i in range(50):
        db.table("mid").insert({"k": i % 10, "w": float(i)})
    db.analyze()
    return db


def _schema_lookup(db):
    return lambda name: db.table(name).schema.names


class TestPushdown:
    def test_filter_pushed_below_join(self, db):
        plan = parse_select(
            "SELECT * FROM big b JOIN small s ON b.k = s.k WHERE s.tag = 't1'"
        )
        optimized = push_down_filters(plan, _schema_lookup(db))
        # After pushdown the top node should be the join, with the filter
        # on the small side.
        assert isinstance(optimized, lp.Join)
        right = optimized.right
        assert isinstance(right, lp.Filter)

    def test_pushdown_preserves_results(self, db):
        sql = (
            "SELECT b.v FROM big b JOIN small s ON b.k = s.k "
            "WHERE s.tag = 't1' AND b.v > 100"
        )
        plan = parse_select(sql)
        raw = db.execute_plan(plan, optimized=False)
        opt = db.execute_plan(plan, optimized=True)
        assert sorted(r["v"] for r in raw) == sorted(r["v"] for r in opt)

    def test_pushdown_reduces_join_work(self, db):
        from repro.engine.operators import ExecutionMetrics, Executor

        sql = (
            "SELECT b.v FROM big b JOIN small s ON b.k = s.k "
            "WHERE b.v > 250"
        )
        plan = parse_select(sql)

        m_raw = ExecutionMetrics()
        Executor(db, m_raw).execute(plan)
        m_opt = ExecutionMetrics()
        Executor(db, m_opt).execute(db.optimize_plan(plan))
        assert m_opt.join_pairs_examined < m_raw.join_pairs_examined

    def test_adjacent_filters_merge(self, db):
        plan = lp.Filter(
            lp.Filter(lp.Scan("big"), col("v") > 10), col("k") == 1
        )
        optimized = push_down_filters(plan, _schema_lookup(db))
        assert isinstance(optimized, lp.Filter)
        assert isinstance(optimized.child, lp.Scan)


class TestJoinReorder:
    def test_three_way_join_preserves_results(self, db):
        sql = (
            "SELECT b.v FROM big b JOIN mid m ON b.k = m.k "
            "JOIN small s ON m.k = s.k WHERE s.tag = 't3'"
        )
        plan = parse_select(sql)
        raw = db.execute_plan(plan, optimized=False)
        opt = db.execute_plan(plan, optimized=True)
        assert sorted(r["v"] for r in raw) == sorted(r["v"] for r in opt)

    def test_reorder_starts_from_smallest(self, db):
        plan = parse_select(
            "SELECT * FROM big b JOIN mid m ON b.k = m.k "
            "JOIN small s ON m.k = s.k"
        )
        reordered = reorder_joins(plan, db.statistics)
        # Walk to the deepest left scan; it should be the small table.
        node = reordered
        while isinstance(node, (lp.Join, lp.Filter)):
            node = node.children()[0]
        assert isinstance(node, lp.Scan)
        assert node.table == "small"


class TestStatistics:
    def test_collect(self, db):
        stats = db.statistics("big")
        assert stats.row_count == 300
        assert stats.columns["k"].distinct_count == 30

    def test_equality_selectivity(self, db):
        stats = db.statistics("big")
        sel = predicate_selectivity(col("k") == 5, stats)
        assert sel == pytest.approx(1.0 / 30.0)

    def test_range_selectivity_interpolates(self, db):
        stats = db.statistics("big")
        sel = predicate_selectivity(col("v") < 149.5, stats)
        assert sel == pytest.approx(0.5, abs=0.01)

    def test_conjunction_multiplies(self, db):
        stats = db.statistics("big")
        a = predicate_selectivity(col("k") == 5, stats)
        b = predicate_selectivity(col("v") < 149.5, stats)
        combined = predicate_selectivity(
            (col("k") == 5) & (col("v") < 149.5), stats
        )
        assert combined == pytest.approx(a * b)

    def test_join_cardinality(self, db):
        big = db.statistics("big")
        small = db.statistics("small")
        card = join_cardinality(big, small, "k", "k")
        assert card == pytest.approx(300 * 10 / 30)

    def test_literal_predicates(self, db):
        stats = db.statistics("big")
        assert predicate_selectivity(lit(True), stats) == 1.0
        assert predicate_selectivity(lit(False), stats) == 0.0

    def test_string_range_literal_falls_back(self, db):
        # Regression: a string literal under a range operator must fall
        # back to the default selectivity instead of crashing (or being
        # coerced) during float conversion.
        stats = db.statistics("small")
        sel = predicate_selectivity(col("tag") < lit("t5"), stats)
        assert sel == pytest.approx(1.0 / 3.0)
        assert predicate_selectivity(
            col("tag") >= lit("t2"), stats
        ) == pytest.approx(1.0 / 3.0)

    def test_string_range_predicate_plan_optimizes(self, db):
        # End-to-end: the optimizer consumes the selectivity estimate on
        # a string-typed range predicate without error, and the plan
        # still returns correct rows in both execution modes.
        sql = (
            "SELECT s.tag, count(*) AS n FROM big b JOIN small s "
            "ON b.k = s.k WHERE s.tag < 't5' GROUP BY s.tag"
        )
        rows = db.sql(sql)
        assert rows == db.sql(sql, execution="row")
        assert {r["tag"] for r in rows} == {f"t{i}" for i in range(5)}

    def test_numeric_like_string_literal_coerces(self, db):
        # A literal that cleanly parses as a number still interpolates.
        stats = db.statistics("big")
        assert predicate_selectivity(
            col("v") < lit("149.5"), stats
        ) == pytest.approx(0.5)

    def test_boolean_literal_not_treated_as_number(self, db):
        stats = db.statistics("big")
        assert predicate_selectivity(
            col("v") < lit(True), stats
        ) == pytest.approx(1.0 / 3.0)
