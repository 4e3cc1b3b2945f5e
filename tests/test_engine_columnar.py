"""Columnar execution: cross-mode byte identity, fallback, and batches.

The columnar executor's contract is byte-identical output to the row
executor — values, ``None`` placement, Python types, float bit patterns,
row order, metrics, and deterministic observability all included.  The
equivalence suite here runs one query corpus through both modes and
compares via ``result_fingerprint`` (the repo's byte-identity oracle).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.engine import (
    ColumnarExecutor,
    Database,
    EXECUTION_ENV_VAR,
    ExecutionMetrics,
    Executor,
    Schema,
    Table,
    choose_execution,
    col,
    lit,
    resolve_execution_mode,
    sum_,
)
from repro.engine import plan as lp
from repro.engine.columnar import (
    ColumnBatch,
    all_null,
    concat_vectors,
    keep_mask,
    vector_from_values,
)
from repro.engine.expressions import FunctionCall, evaluate_batch, is_vectorizable
from repro.ensemble.store import result_fingerprint
from repro.errors import QueryError
from repro.mcdb import MonteCarloDatabase, NormalVG, RandomTableSpec
from repro.mcdb.tuple_bundle import BundledTable

MODES = ("row", "columnar")


@pytest.fixture
def nullful_db() -> Database:
    """A database rich in NULLs, mixed types, and joinable relations."""
    db = Database()
    db.create_table(
        "person", Schema.of(pid=int, age=int, region=str, income=float)
    )
    for i in range(60):
        db.table("person").insert(
            {
                "pid": i,
                "age": (i * 7) % 80 if i % 7 else None,
                "region": ["east", "west", None][i % 3],
                "income": 20000.0 + 137.5 * i if i % 5 else None,
            }
        )
    db.create_table("region", Schema.of(region=str, mult=float))
    for name, mult in [("east", 1.5), ("west", 0.75), ("north", 2.0)]:
        db.table("region").insert({"region": name, "mult": mult})
    db.create_table("empty", Schema.of(pid=int, label=str))
    return db


CORPUS = [
    "SELECT pid, age FROM person",
    "SELECT pid, age * 2 + 1 AS a2, income / 2 AS half FROM person",
    "SELECT pid FROM person WHERE age > 30 AND income < 25000",
    "SELECT pid FROM person WHERE age > 30 OR region = 'east'",
    "SELECT pid FROM person WHERE NOT (age < 50)",
    "SELECT pid FROM person WHERE age IS NULL",
    "SELECT pid FROM person WHERE region IS NOT NULL AND income IS NULL",
    "SELECT pid FROM person WHERE region IN ('east', 'north')",
    "SELECT pid FROM person WHERE age IN (7, 14, 21) OR age IS NULL",
    "SELECT pid, -age AS neg, age % 7 AS m FROM person WHERE pid > 2",
    "SELECT pid FROM person WHERE sqrt(income) > 150",
    "SELECT pid, abs(age - 40) AS d FROM person WHERE log(income) < 11",
    "SELECT count(*) AS n FROM person",
    "SELECT count(*) AS n, count(age) AS ages, sum(income) AS s, "
    "avg(age) AS m, min(income) AS lo, max(age) AS hi, "
    "var(income) AS v, std(age) AS sd FROM person",
    "SELECT region, count(*) AS n, sum(income) AS s, avg(age) AS m "
    "FROM person GROUP BY region",
    "SELECT region, age, count(*) AS n FROM person GROUP BY region, age",
    "SELECT p.pid, r.mult FROM person p JOIN region r "
    "ON p.region = r.region",
    "SELECT p.pid, r.mult FROM person p LEFT JOIN region r "
    "ON p.region = r.region",
    "SELECT p.pid, r.mult FROM person p JOIN region r "
    "ON p.region = r.region WHERE p.age > 20",
    "SELECT a.pid AS x, b.pid AS y FROM person a JOIN person b "
    "ON a.age = b.age WHERE a.pid < b.pid",
    "SELECT region FROM person WHERE pid < 9 "
    "UNION SELECT region FROM region",
    "SELECT region, count(*) AS n FROM person GROUP BY region "
    "ORDER BY n DESC",
    "SELECT pid, age FROM person ORDER BY age LIMIT 5",
    "SELECT pid, upper(region) AS u FROM person WHERE age > 10",
    "SELECT count(DISTINCT region) AS r FROM person",
    "SELECT pid FROM empty",
    "SELECT label, count(*) AS n FROM empty GROUP BY label",
    "SELECT p.pid, e.label FROM person p LEFT JOIN empty e "
    "ON p.pid = e.pid WHERE p.pid < 4",
    "SELECT count(*) AS n FROM empty",
    "SELECT pid, income FROM person "
    "WHERE region IN (SELECT region FROM region WHERE mult > 1)",
]


class TestCrossModeEquivalence:
    @pytest.mark.parametrize("sql", CORPUS)
    def test_row_and_columnar_byte_identical(self, nullful_db, sql):
        row = nullful_db.sql(sql, execution="row")
        columnar = nullful_db.sql(sql, execution="columnar")
        assert result_fingerprint(row) == result_fingerprint(columnar)
        assert row == columnar

    def test_whole_corpus_fingerprint(self, nullful_db):
        fingerprints = {
            mode: result_fingerprint(
                [nullful_db.sql(sql, execution=mode) for sql in CORPUS]
            )
            for mode in MODES
        }
        assert fingerprints["row"] == fingerprints["columnar"]

    def test_metrics_identical(self, nullful_db):
        sql = (
            "SELECT p.region, count(*) AS n FROM person p JOIN region r "
            "ON p.region = r.region WHERE p.age > 10 GROUP BY p.region"
        )
        counts = {}
        for mode in MODES:
            nullful_db.metrics.reset()
            nullful_db.sql(sql, execution=mode)
            m = nullful_db.metrics
            counts[mode] = (
                m.rows_scanned,
                m.rows_joined,
                m.join_pairs_examined,
                m.rows_output,
            )
        assert counts["row"] == counts["columnar"]
        assert counts["row"][0] > 0 and counts["row"][1] > 0

    def test_obs_values_identical(self, nullful_db):
        snapshots = {}
        for mode in MODES:
            observer = obs.enable()
            observer.reset()
            try:
                for sql in CORPUS:
                    nullful_db.sql(sql, execution=mode)
                snapshots[mode] = observer.metrics.snapshot()["values"]
            finally:
                obs.disable()
        assert snapshots["row"] == snapshots["columnar"]

    def test_fluent_query_cross_mode(self, nullful_db):
        results = {}
        for mode in MODES:
            metrics = ExecutionMetrics()
            q = (
                nullful_db.query("person")
                .where(col("age") > 20)
                .aggregate(sum_("income", "total"), group_by=["region"])
            )
            results[mode] = (q.run(metrics, execution=mode), metrics.rows_scanned)
        assert results["row"] == results["columnar"]


class TestErrorsMatch:
    @pytest.mark.parametrize(
        "sql, exc",
        [
            ("SELECT pid, income / (pid - 3) AS r FROM person", ZeroDivisionError),
            ("SELECT pid, sqrt(0 - income) AS r FROM person", ValueError),
            ("SELECT log(age - age) AS r FROM person WHERE age IS NOT NULL", ValueError),
        ],
    )
    def test_same_exception_both_modes(self, nullful_db, sql, exc):
        for mode in MODES:
            with pytest.raises(exc):
                nullful_db.sql(sql, execution=mode)

    def test_join_clobber_both_modes(self, nullful_db):
        nullful_db.create_table("clash", Schema.of(pid=int, age=int))
        nullful_db.table("clash").insert({"pid": 1, "age": 99})
        sql = "SELECT pid FROM person JOIN clash ON pid = pid"
        for mode in MODES:
            with pytest.raises(QueryError):
                nullful_db.sql(sql, execution=mode)


class TestExecutionModeKnob:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(EXECUTION_ENV_VAR, raising=False)
        assert resolve_execution_mode() == "auto"

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(EXECUTION_ENV_VAR, "row")
        assert resolve_execution_mode() == "row"
        assert resolve_execution_mode("columnar") == "columnar"

    def test_unknown_mode_rejected(self):
        with pytest.raises(QueryError):
            resolve_execution_mode("vectorized")

    def test_auto_picks_columnar(self, monkeypatch):
        monkeypatch.delenv(EXECUTION_ENV_VAR, raising=False)
        plan = lp.Filter(lp.Scan("t"), col("x") > lit(1))
        assert choose_execution(plan) == "columnar"

    def test_limit_plans_run_row_mode(self):
        # The row pipeline short-circuits under LIMIT (its operator
        # counters see only pulled rows); a materializing batch cannot
        # replicate that, so LIMIT plans stay row-mode even when forced.
        plan = lp.Limit(lp.Scan("t"), 3)
        assert choose_execution(plan, "columnar") == "row"
        assert choose_execution(plan, "auto") == "row"

    def test_subqueries_run_in_the_callers_mode(self, nullful_db, monkeypatch):
        ran = []
        execute = ColumnarExecutor.execute

        def spy(self, plan):
            ran.append(plan)
            return execute(self, plan)

        monkeypatch.setattr(ColumnarExecutor, "execute", spy)
        sql = "SELECT pid FROM person WHERE region IN (SELECT region FROM region)"
        nullful_db.sql(sql, execution="row")
        assert ran == []
        nullful_db.sql(sql, execution="columnar")
        assert len(ran) == 2  # the subquery, then the outer query


class TestRowFallback:
    def test_string_function_not_vectorizable(self):
        expr = FunctionCall("upper", (col("region"),))
        assert not is_vectorizable(expr)
        assert is_vectorizable(col("age") * 2 + 1)
        assert is_vectorizable(FunctionCall("sqrt", (col("age"),)))

    def test_fallback_still_batches_children(self, nullful_db):
        # upper() forces the Project to row mode, but its Scan child and
        # the Filter above stay correct end-to-end.
        sql = (
            "SELECT upper(region) AS u, count(*) AS n FROM person "
            "WHERE region IS NOT NULL GROUP BY upper(region)"
        )
        assert nullful_db.sql(sql, execution="columnar") == nullful_db.sql(
            sql, execution="row"
        )

    def test_distinct_aggregate_falls_back(self, nullful_db):
        sql = "SELECT count(DISTINCT age) AS n FROM person"
        assert nullful_db.sql(sql, execution="columnar") == nullful_db.sql(
            sql, execution="row"
        )

    def test_executor_direct_fallback(self, nullful_db):
        # A plan the batch layer rejects wholesale still executes.
        plan = lp.Distinct(lp.Scan("region"))
        rows_row = Executor(nullful_db).execute(plan)
        rows_col = ColumnarExecutor(nullful_db).execute(plan)
        assert rows_row == rows_col


class TestColumnVectors:
    def test_homogeneous_int_packs(self):
        vec = vector_from_values([1, 2, None, 4])
        assert vec.kind == "int"
        assert vec.to_pylist() == [1, 2, None, 4]
        assert all(isinstance(v, int) for v in vec.to_pylist() if v is not None)

    def test_mixed_types_stay_objects(self):
        vec = vector_from_values([1, 2.5, None])
        assert vec.kind == "object"
        assert vec.to_pylist() == [1, 2.5, None]

    def test_huge_ints_stay_objects(self):
        big = 2 ** 60
        vec = vector_from_values([big, 1])
        assert vec.kind == "object"
        assert vec.to_pylist() == [big, 1]

    def test_all_null(self):
        vec = all_null(3)
        assert vec.to_pylist() == [None, None, None]

    def test_concat_mismatched_kinds(self):
        merged = concat_vectors(
            [vector_from_values([1, 2]), vector_from_values(["a"])]
        )
        assert merged.to_pylist() == [1, 2, "a"]

    def test_keep_mask_is_literal_true(self):
        # The row filter keeps rows only when the predicate is the
        # literal True; truthy ints are dropped.
        vec = vector_from_values([1, 0, True, False, None])
        assert keep_mask(vec).tolist() == [False, False, True, False, False]

    def test_batch_roundtrip(self):
        table = Table("t", Schema.of(x=int, s=str))
        table.insert({"x": 1, "s": ""})
        table.insert({"x": None, "s": None})
        batch = ColumnBatch.from_table(table, alias="t")
        assert batch.names == ["t.x", "t.s"]
        assert batch.to_rows() == [
            {"t.x": 1, "t.s": ""},
            {"t.x": None, "t.s": None},
        ]

    def test_resolve_matches_row_semantics(self):
        batch = ColumnBatch.from_rows([{"a.x": 1, "b.x": 2, "y": 3}])
        assert batch.resolve("y").to_pylist() == [3]
        assert batch.resolve("a.x").to_pylist() == [1]
        with pytest.raises(QueryError):
            batch.resolve("x")

    def test_evaluate_batch_three_valued_logic(self):
        batch = ColumnBatch.from_rows(
            [
                {"a": True, "b": None},
                {"a": False, "b": None},
                {"a": None, "b": None},
                {"a": True, "b": False},
            ]
        )
        conj = evaluate_batch(col("a") & col("b"), batch)
        disj = evaluate_batch(col("a") | col("b"), batch)
        assert conj.to_pylist() == [None, False, None, False]
        assert disj.to_pylist() == [True, None, None, True]


class TestMcdbColumnarBundles:
    @pytest.fixture
    def mcdb(self) -> MonteCarloDatabase:
        db = Database()
        db.create_table("patients", Schema.of(pid=int, gender=str))
        for i in range(20):
            db.table("patients").insert(
                {"pid": i, "gender": "f" if i % 2 else "m"}
            )
        db.create_table("sbp_param", Schema.of(mean=float, std=float))
        db.table("sbp_param").insert({"mean": 120.0, "std": 10.0})
        mc = MonteCarloDatabase(db, seed=11)
        mc.register_random_table(
            RandomTableSpec(
                name="sbp_data",
                vg=NormalVG(),
                outer_table="patients",
                parameters="SELECT mean, std FROM sbp_param",
                select={
                    "pid": "outer.pid",
                    "gender": "outer.gender",
                    "sbp": "vg.value",
                },
            )
        )
        return mc

    def test_columnar_samples_byte_identical(self, mcdb):
        def q(bundles, _db):
            t = bundles["sbp_data"].filter(lambda r: r["sbp"] > 110.0)
            return t.aggregate_avg("sbp")

        row = mcdb.run_bundled(q, n_mc=40, columnar=False).samples
        columnar = mcdb.run_bundled(q, n_mc=40, columnar=True).samples
        np.testing.assert_array_equal(row, columnar)

    def test_columnar_grouped_and_extremes(self, mcdb):
        def q(bundles, _db):
            t = bundles["sbp_data"]
            groups = t.grouped_aggregate_sum("gender", "sbp")
            return groups["f"] - groups["m"] + t.aggregate_max("sbp")

        row = mcdb.run_bundled(q, n_mc=25, columnar=False).samples
        columnar = mcdb.run_bundled(q, n_mc=25, columnar=True).samples
        np.testing.assert_array_equal(row, columnar)

    def test_env_knob_selects_columnar_bundles(self, mcdb, monkeypatch):
        seen = {}

        def q(bundles, _db):
            seen["type"] = type(bundles["sbp_data"]).__name__
            return bundles["sbp_data"].aggregate_count().astype(float)

        monkeypatch.setenv(EXECUTION_ENV_VAR, "columnar")
        mcdb.run_bundled(q, n_mc=5)
        assert seen["type"] == "ColumnarBundleTable"
        monkeypatch.delenv(EXECUTION_ENV_VAR)
        mcdb.run_bundled(q, n_mc=5)
        assert seen["type"] == "BundledTable"

    def test_non_uniform_bundle_stays_rowwise(self):
        rows = [
            {"x": np.ones(4)},
            {"x": np.ones(4), "extra": 1.0},
        ]
        bundle = BundledTable("odd", rows, 4)
        with pytest.raises(QueryError):
            bundle.to_columnar()
