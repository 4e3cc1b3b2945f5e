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
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.engine import (
    ColumnarExecutor,
    Database,
    EXECUTIONS,
    ExecutionMetrics,
    Executor,
    Schema,
    Table,
    choose_execution,
    col,
    lit,
    parse_select,
    sum_,
)
from repro.engine import plan as lp
from repro.engine.columnar import (
    ColumnBatch,
    all_null,
    concat_vectors,
    keep_mask,
    vector_from_scalar,
    vector_from_values,
)
from repro.engine.expressions import FunctionCall, evaluate_batch, is_vectorizable
from repro.ensemble.store import result_fingerprint
from repro.errors import QueryError
from repro.mcdb import MonteCarloDatabase, NormalVG, RandomTableSpec
from repro.mcdb.columnar_bundle import ColumnarBundleTable
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
    # ORDER BY ... LIMIT over NULL- and tie-rich keys, mixed directions.
    "SELECT pid, region, age FROM person "
    "ORDER BY region DESC, age, pid DESC LIMIT 7",
    "SELECT pid, age, income FROM person ORDER BY age DESC, income LIMIT 12",
    "SELECT pid, region FROM person WHERE age > 20 ORDER BY region LIMIT 4",
    "SELECT pid, age FROM person ORDER BY age DESC LIMIT 0",
    "SELECT pid, region, income FROM person "
    "ORDER BY income DESC, region LIMIT 500",
    "SELECT pid, region FROM person ORDER BY region, pid DESC",
    "SELECT region, count(*) AS n, avg(income) AS m FROM person "
    "GROUP BY region ORDER BY m DESC LIMIT 2",
    # String comparisons, IN and aggregates on dictionary codes.
    "SELECT pid FROM person WHERE region < 'north'",
    "SELECT pid FROM person WHERE region >= 'east' AND region <> 'west'",
    "SELECT pid FROM person WHERE 'f' > region",
    "SELECT pid FROM person WHERE region IN ('south', 'west')",
    "SELECT pid FROM person WHERE region NOT IN ('south', 'east')",
    "SELECT region, count(region) AS c, min(region) AS lo, "
    "max(region) AS hi FROM person GROUP BY region",
    "SELECT p.pid, r.region AS rr FROM person p JOIN region r "
    "ON p.pid % 4 = r.mult * 0 WHERE p.region < r.region",
    "SELECT p.pid, r.region AS rr FROM person p JOIN region r "
    "ON p.pid % 4 = r.mult * 0 WHERE p.region >= r.region",
    # Filter+aggregate, filtered str-key GROUP BY, and join+filter+group.
    "SELECT count(*) AS n, sum(income) AS s, avg(income) AS m, "
    "max(age) AS hi FROM person WHERE income > 21000 AND age < 60",
    "SELECT region, count(*) AS n, sum(income) AS s FROM person "
    "WHERE age IS NOT NULL GROUP BY region",
    "SELECT r.region, count(*) AS n, avg(p.income) AS m FROM person p "
    "JOIN region r ON p.region = r.region WHERE p.age > 15 "
    "GROUP BY r.region",
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

    # A batched Aggregate asks the Filter and equi-Join under it for the
    # columns it reads, and they copy only those.  A name that does not
    # resolve to exactly one column cuts nothing, and every name both
    # join sides carry is kept, so each error reads as without the cut.

    def _messages(self, db, run):
        messages = []
        for mode in MODES:
            with pytest.raises(QueryError) as info:
                run(db, mode)
            messages.append(str(info.value))
        return messages

    def test_ambiguous_column_under_a_pruned_join(self, nullful_db):
        sql = (
            "SELECT SUM(age) AS s FROM person p JOIN person q "
            "ON p.pid = q.pid WHERE p.income > 0"
        )
        row, columnar = self._messages(
            nullful_db, lambda db, mode: db.sql(sql, execution=mode)
        )
        assert row == columnar == (
            "ambiguous column 'age': matches ['p.age', 'q.age']"
        )

    def test_unknown_column_under_a_pruned_join(self, nullful_db):
        sql = (
            "SELECT p.region AS g, SUM(zz) AS s FROM person p JOIN region r "
            "ON p.region = r.region WHERE p.age > 10 GROUP BY p.region"
        )
        row, columnar = self._messages(
            nullful_db, lambda db, mode: db.sql(sql, execution=mode)
        )
        # The message lists every column of the unpruned row.
        assert row == columnar == (
            "unknown column 'zz'; row has ['p.age', 'p.income', 'p.pid', "
            "'p.region', 'r.mult', 'r.region']"
        )

    # A batched Project asks its input for the columns its expressions
    # read, the same way.

    def test_unknown_column_under_a_pruned_project(self, nullful_db):
        sql = "SELECT pid, zz FROM person WHERE age > 10"
        row, columnar = self._messages(
            nullful_db, lambda db, mode: db.sql(sql, execution=mode)
        )
        assert row == columnar == (
            "unknown column 'zz'; row has ['age', 'income', 'pid', 'region']"
        )

    def test_ambiguous_column_under_a_pruned_project(self, nullful_db):
        sql = (
            "SELECT age, p.pid AS k FROM person p JOIN person q "
            "ON p.pid = q.pid WHERE p.income > 0"
        )
        row, columnar = self._messages(
            nullful_db, lambda db, mode: db.sql(sql, execution=mode)
        )
        assert row == columnar == (
            "ambiguous column 'age': matches ['p.age', 'q.age']"
        )

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_clobber_under_a_pruned_join(self, nullful_db, how):
        # Unaliased scans: both sides carry ``age``, which no aggregate
        # reads.  For the inner join the clash rows disagree with their
        # person rows on it; for the left join they agree, and the
        # NULL-padded unmatched person rows clobber instead.
        ages = {row["pid"]: row["age"] for row in nullful_db.table("person")}
        nullful_db.create_table("clash", Schema.of(cpid=int, age=int))
        nullful_db.table("clash").insert_many(
            {"cpid": i, "age": ages[i] if how == "left" else 99}
            for i in range(5)
        )
        join = lp.Join(
            lp.Filter(lp.Scan("person"), col("income") > lit(0)),
            lp.Scan("clash"),
            col("pid") == col("cpid"),
            how,
        )
        plan = lp.Aggregate(
            lp.Filter(join, col("pid") < lit(50)),
            (col("region"),),
            ("region",),
            (lp.AggregateSpec("sum", col("income"), "s"),),
        )
        row, columnar = self._messages(
            nullful_db,
            lambda db, mode: db.execute_plan(
                plan, optimized=False, execution=mode
            ),
        )
        assert row == columnar == (
            "join output would clobber column 'age'; "
            "alias one side of the join"
        )


class TestPrunedInputs:
    def test_filter_under_a_project_copies_the_columns_it_reads(
        self, monkeypatch
    ):
        # perfbench's ``topk`` shape: the Filter under ``SELECT id, x, k``
        # copies those three of the fact table's five columns.
        db = Database()
        db.create_table(
            "fact", Schema.of(id=int, region=str, grp=int, x=float, k=int)
        ).insert_many(
            {
                "id": i,
                "region": ["north", "south", None][i % 3],
                "grp": i % 4,
                "x": float((i * 37) % 101),
                "k": (i * 13) % 300,
            }
            for i in range(60)
        )
        copied = []
        take = ColumnBatch.take

        def spy(batch, indexer):
            copied.append(len(batch.columns))
            return take(batch, indexer)

        monkeypatch.setattr(ColumnBatch, "take", spy)
        sql = (
            "SELECT id, x, k FROM fact WHERE region = 'north' "
            "AND k > 100 ORDER BY x DESC LIMIT 7"
        )
        columnar = db.sql(sql, execution="columnar")
        # The Filter's copy, then the Limit's.
        assert copied == [3, 3]
        assert result_fingerprint(columnar) == result_fingerprint(
            db.sql(sql, execution="row")
        )


class TestExecutionNames:
    def test_default_is_columnar(self):
        assert EXECUTIONS == ("columnar", "row")
        plan = lp.Filter(lp.Scan("t"), col("x") > lit(1))
        assert choose_execution(plan) == "columnar"
        assert choose_execution(plan, "columnar") == "columnar"
        assert choose_execution(plan, "row") == "row"

    def test_unknown_execution_rejected(self, nullful_db):
        query = nullful_db.query("person").where(col("age") > 30)
        for name in ("vectorized", "auto", "ROW"):
            with pytest.raises(QueryError, match="unknown execution"):
                choose_execution(lp.Scan("t"), name)
            with pytest.raises(QueryError, match="unknown execution"):
                nullful_db.sql("SELECT pid FROM person", execution=name)
            with pytest.raises(QueryError, match="unknown execution"):
                query.run(execution=name)

    @pytest.mark.parametrize(
        "statement",
        [
            "CREATE TABLE z (a int)",
            "CREATE TABLE z AS SELECT a FROM t",
            "INSERT INTO t VALUES (9)",
            "INSERT INTO t SELECT a FROM t",
            "UPDATE t SET a = 0 WHERE a > 1",
            "DELETE FROM t WHERE a > 1",
            "DROP TABLE t",
            "WITH c AS (SELECT a FROM t) SELECT a FROM c",
        ],
    )
    def test_unknown_execution_rejected_before_any_statement_runs(
        self, statement
    ):
        db = Database()
        db.sql("CREATE TABLE t (a int)")
        for a in (1, 2):
            db.sql(f"INSERT INTO t VALUES ({a})")

        def catalog():
            return db.table_names(), [dict(r) for r in db.table("t").rows]

        before = catalog()
        with pytest.raises(QueryError, match="unknown execution 'auto'"):
            db.sql(statement, execution="auto")
        assert catalog() == before
        db.sql(statement, execution="row")  # a known name runs it

    @pytest.mark.parametrize("name", [None, "columnar"])
    def test_known_execution_runs_every_statement_like_row(self, name):
        script = [
            "CREATE TABLE t (a int)",
            "INSERT INTO t VALUES (1)",
            "INSERT INTO t VALUES (2)",
            "INSERT INTO t SELECT a FROM t",
            "CREATE TABLE z AS SELECT a FROM t WHERE a > 1",
            "UPDATE t SET a = 0 WHERE a > 1",
            "DELETE FROM z WHERE a > 1",
            "WITH c AS (SELECT a FROM t) SELECT sum(a) AS s FROM c",
            "SELECT a FROM t ORDER BY a",
            "DROP TABLE z",
        ]

        def replay(execution):
            db = Database()
            answers = [db.sql(sql, execution=execution) for sql in script]
            tables = {
                n: [dict(r) for r in db.table(n).rows] for n in db.table_names()
            }
            return answers, tables

        assert replay(name) == replay("row")

    def test_query_cli_refuses_unknown_execution(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exited:
            main(["query", "SELECT pid FROM person", "--execution", "auto"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'auto'" in err and "columnar" in err

    def test_limit_plans_run_row_mode(self):
        # The row pipeline short-circuits under LIMIT (its operator
        # counters see only pulled rows); a materializing batch cannot
        # replicate that, so LIMIT plans stay row-mode even when forced.
        plan = lp.Limit(lp.Scan("t"), 3)
        assert choose_execution(plan, "columnar") == "row"
        assert choose_execution(plan) == "row"

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


def _obs_run(db, sql, mode):
    """Rows, obs ``values`` and ``ExecutionMetrics`` of one execution."""
    observer = obs.enable()
    observer.reset()
    db.metrics.reset()
    try:
        rows = db.sql(sql, execution=mode)
        values = observer.metrics.snapshot()["values"]
    finally:
        obs.disable()
    m = db.metrics
    counts = (m.rows_scanned, m.rows_joined, m.join_pairs_examined, m.rows_output)
    return result_fingerprint(rows), values, counts


class TestStrKind:
    def test_literal_and_column_vectors(self, nullful_db):
        vec = nullful_db.table("person").column_batch().columns["region"]
        assert vec.kind == "str"
        assert vec.dictionary.tolist() == ["east", "west"]
        assert vec.take(np.array([2, 1, 0])).to_pylist() == [None, "west", "east"]
        lit_vec = vector_from_scalar("east", 2)
        assert (lit_vec.kind, lit_vec.to_pylist()) == ("str", ["east", "east"])

    def test_one_entry_column_against_column(self):
        # A one-entry dictionary is a literal only on its valid rows.
        db = Database()
        db.create_table("t", Schema.of(id=int, a=str, b=str)).insert_many(
            {"id": i, "a": a, "b": b}
            for i, (a, b) in enumerate(
                [("m", "z"), (None, "m"), ("m", None), ("m", "a"), ("m", "m")]
            )
        )
        for op in ("=", "<>", "<", ">="):
            for sql in (
                f"SELECT id FROM t WHERE a {op} b",
                f"SELECT id FROM t WHERE b {op} a",
            ):
                assert db.sql(sql, execution="columnar") == db.sql(
                    sql, execution="row"
                ), sql

    def test_other_operators_see_objects(self, nullful_db):
        # Arithmetic, negation and functions keep the row engine's results
        # and errors on strings.
        sql = "SELECT region + 'x' AS r FROM person WHERE region IS NOT NULL"
        assert nullful_db.sql(sql, execution="columnar") == nullful_db.sql(
            sql, execution="row"
        )
        for sql in (
            "SELECT -region AS r FROM person",
            "SELECT abs(region) AS r FROM person",
            "SELECT pid FROM person WHERE region > 3",
        ):
            messages = []
            for mode in MODES:
                with pytest.raises(TypeError) as caught:
                    nullful_db.sql(sql, execution=mode)
                messages.append(str(caught.value))
            assert messages[0] == messages[1], sql

    def test_order_by_mixed_object_column_raises_row_error(self):
        db = Database()
        table = db.create_table("t", Schema.of(id=int, s=str))
        table.insert_many({"id": i, "s": "abc"[i % 3]} for i in range(6))
        table.rows.append({"id": 6, "s": 4})
        sql = "SELECT id, s FROM t ORDER BY s DESC LIMIT 3"
        messages = []
        for mode in MODES:
            with pytest.raises(TypeError) as caught:
                db.sql(sql, execution=mode)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_non_vectorizable_sort_key_under_limit(self, nullful_db):
        sql = "SELECT pid, region FROM person ORDER BY upper(region) LIMIT 3"
        plan = nullful_db.optimize_plan(parse_select(sql))
        assert choose_execution(plan, "columnar") == "columnar"
        assert ColumnarExecutor(nullful_db)._batch_handler(plan) is None
        assert _obs_run(nullful_db, sql, "columnar") == _obs_run(
            nullful_db, sql, "row"
        )


_SORT_COLUMNS = {
    "i": (int, st.sampled_from([None, None, -2, 0, 1, 1, 3])),
    "f": (float, st.sampled_from(
        [None, None, -1.5, -0.0, 0.0, 2.0, float("inf"), float("nan")]
    )),
    "s": (str, st.sampled_from([None, None, "", "a", "B", "b", "é"])),
    "b": (bool, st.sampled_from([None, True, False])),
}


@st.composite
def _sort_cases(draw):
    n = draw(st.integers(0, 30))
    rows = [
        dict({"id": k}, **{
            name: draw(values) for name, (_, values) in _SORT_COLUMNS.items()
        })
        for k in range(n)
    ]
    names = draw(st.lists(
        st.sampled_from(sorted(_SORT_COLUMNS)), min_size=1, max_size=3,
        unique=True,
    ))
    order = ", ".join(
        f"{name} {'DESC' if draw(st.booleans()) else 'ASC'}" for name in names
    )
    limit = draw(st.none() | st.integers(0, n + 2))
    sql = f"SELECT id, i, f, s, b FROM t ORDER BY {order}"
    if limit is not None:
        sql += f" LIMIT {limit}"
    return rows, draw(st.integers(0, n)), sql


class TestSortProperty:
    """Columnar ORDER BY [LIMIT] equals row mode on answers, obs and metrics."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_sort_cases())
    def test_sort_matches_row_mode(self, case):
        rows, cut, sql = case
        db = Database()
        table = db.create_table(
            "t",
            Schema.of(id=int, **{k: t for k, (t, _) in _SORT_COLUMNS.items()}),
        )
        table.insert_many(rows[:cut])
        table.column_batch()
        table.insert_many(rows[cut:])
        assert _obs_run(db, sql, "columnar") == _obs_run(db, sql, "row")


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

    def test_bundles_arrive_columnar_by_default(self, mcdb, monkeypatch):
        seen = []

        def q(bundles, _db):
            (bundle,) = bundles.values()
            seen.append(type(bundle))
            return bundle.filter(lambda r: r["sbp"] > 115.0).aggregate_avg("sbp")

        default = mcdb.run_bundled(q, n_mc=30).samples
        reference = mcdb.run_bundled(q, n_mc=30, columnar=False).samples
        assert seen == [ColumnarBundleTable, BundledTable]
        assert default.tobytes() == reference.tobytes()
        # Tuples carrying different columns stay a row bundle.
        odd = BundledTable(
            "odd", [{"sbp": np.full(4, 120.0)}, {"sbp": np.ones(4), "x": 1}], 4
        )
        monkeypatch.setattr(
            mcdb, "instantiate_bundles", lambda n_mc, **_: {"odd": odd}
        )
        mcdb.run_bundled(q, n_mc=4)
        assert seen[-1] is BundledTable

    def test_quantile_of_a_filter_that_keeps_nothing(self, mcdb):
        # Row bundles raised on stacking zero tuples; both layouts now
        # answer NaN for every iteration, as for the other aggregates.
        def q(bundles, _db):
            t = bundles["sbp_data"].filter(lambda r: r["sbp"] > 1e9)
            return t.aggregate_quantile("sbp", 0.5)

        row = mcdb.run_bundled(q, n_mc=6, columnar=False).samples
        columnar = mcdb.run_bundled(q, n_mc=6).samples
        assert np.isnan(row).all()
        np.testing.assert_array_equal(row, columnar)

    def test_non_uniform_bundle_stays_rowwise(self):
        rows = [
            {"x": np.ones(4)},
            {"x": np.ones(4), "extra": 1.0},
        ]
        bundle = BundledTable("odd", rows, 4)
        with pytest.raises(QueryError):
            bundle.to_columnar()

    @pytest.mark.parametrize(
        "aggregate",
        [
            lambda t: t.aggregate_sum("x"),
            lambda t: t.aggregate_count(),
            lambda t: t.aggregate_avg("x"),
            lambda t: t.aggregate_min("x"),
            lambda t: t.aggregate_max("x"),
            lambda t: t.aggregate_quantile("x", 0.5),
            lambda t: t.grouped_aggregate_sum("g", "x"),
            lambda t: t.filter(lambda r: r["x"] > 1).aggregate_sum("x"),
            lambda t: t.derive("y", lambda r: r["x"] * 2).aggregate_max("y"),
            lambda t: t.join_deterministic(
                [{"g": "a", "w": 2.0}], "g", "g"
            ).aggregate_sum("w"),
        ],
        ids=[
            "sum", "count", "avg", "min", "max", "quantile", "grouped_sum",
            "filter", "derive", "join",
        ],
    )
    def test_emptied_bundle_answers_like_the_row_reference(self, aggregate):
        # A filter that keeps nothing leaves a row bundle with no tuples,
        # so its columnar copy has no column list to read.
        bundle = BundledTable("e", [{"g": "a", "x": np.ones(3)}], 3)
        emptied = bundle.filter(lambda r: r["x"] > 5)
        reference = aggregate(emptied)
        columnar = aggregate(emptied.to_columnar())
        assert type(columnar) is type(reference)
        if isinstance(reference, dict):
            assert reference == columnar == {}
        else:
            assert columnar.dtype == reference.dtype
            np.testing.assert_array_equal(columnar, reference)
