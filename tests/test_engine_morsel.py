"""Morsel-sized inputs: the columnar executor at adversarial append sizes.

The engine has one vectorized executor, :class:`ColumnarExecutor`, and
it reads each table through the scan cache (``Table.column_batch``).
After a pure append that cache converts only the new rows and
concatenates them onto the cached columns, so a table grown one morsel
at a time, with a scan after every append, reaches the executor as a
concatenation of per-morsel conversions.  The oracle is the one every
executor in this engine answers to — values, ``None`` placement, Python
types, row order, ``ExecutionMetrics`` and the deterministic obs
``values`` snapshot equal the row executor's — at morsel sizes that
never (1, 7), exactly (60) and more than (240) cover the base tables,
whatever ``REPRO_BACKEND`` says.

The class and test names are those of the suite for the retired
morsel-parallel executor; each test now asks the same question of the
columnar executor, the row-mode LIMIT path or the hash join.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.engine import (
    ColumnarExecutor,
    Database,
    ExecutionMetrics,
    Schema,
    choose_execution,
    col,
    parse_select,
    sum_,
)
from repro.engine import operators
from repro.engine import plan as lp
from repro.engine.columnar import (
    ColumnBatch,
    all_null,
    concat_vectors,
    vector_from_values,
)
from repro.engine.expressions import (
    Column,
    FunctionCall,
    InList,
    evaluate_batch,
)
from repro.engine.statistics import (
    ColumnStatistics,
    TableStatistics,
    predicate_selectivity,
)
from repro.ensemble.store import result_fingerprint
from repro.errors import QueryError
from repro.parallel.backend import get_backend

from tests.test_engine_columnar import CORPUS, nullful_db  # noqa: F401

BACKENDS = ("serial", "thread", "process")

#: person has 60 rows: sizes that divide nothing (1, 7), exactly cover
#: the table (60), and exceed it (240 — a single append).
MORSEL_SIZES = (1, 7, 60, 240)

#: The retired morsel-size knob; nothing reads it any more.
RETIRED_MORSEL_ENV_VAR = "REPRO_ENGINE_MORSEL"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # This file sets execution modes and backends explicitly per test.
    monkeypatch.delenv(RETIRED_MORSEL_ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


def grown_in_morsels(db: Database, size: int) -> Database:
    """A copy of ``db`` whose tables were filled ``size`` rows at a time.

    Each append is followed by a scan, so every table's cached column
    batch is the concatenation of one conversion per morsel.
    """
    grown = Database()
    for name in db.table_names():
        source = db.table(name)
        table = grown.create_table(name, source.schema)
        rows = list(source)
        for start in range(0, len(rows), size):
            table.insert_many(rows[start:start + size])
            table.column_batch()
    return grown


class TestCrossModeIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", MORSEL_SIZES)
    def test_corpus_fingerprint(self, nullful_db, size, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        baseline = result_fingerprint(
            [nullful_db.sql(sql, execution="row") for sql in CORPUS]
        )
        grown = grown_in_morsels(nullful_db, size)
        columnar = result_fingerprint(
            [grown.sql(sql, execution="columnar") for sql in CORPUS]
        )
        assert columnar == baseline

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corpus_obs_values(self, nullful_db, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        grown = grown_in_morsels(nullful_db, 7)
        snapshots = {}
        for label, db, mode in [
            ("row", nullful_db, "row"),
            ("columnar", grown, "columnar"),
        ]:
            observer = obs.enable()
            observer.reset()
            try:
                for sql in CORPUS:
                    db.sql(sql, execution=mode)
                snapshots[label] = observer.metrics.snapshot()["values"]
            finally:
                obs.disable()
        assert snapshots["columnar"] == snapshots["row"]

    @pytest.mark.parametrize("size", MORSEL_SIZES)
    def test_metrics_identical(self, nullful_db, size):
        sql = (
            "SELECT p.region, count(*) AS n FROM person p JOIN region r "
            "ON p.region = r.region WHERE p.age > 10 GROUP BY p.region"
        )
        grown = grown_in_morsels(nullful_db, size)
        counts = {}
        for label, db, mode in [
            ("row", nullful_db, "row"),
            ("columnar", grown, "columnar"),
        ]:
            db.metrics.reset()
            db.sql(sql, execution=mode)
            m = db.metrics
            counts[label] = (
                m.rows_scanned,
                m.rows_joined,
                m.join_pairs_examined,
                m.rows_output,
            )
        assert counts["columnar"] == counts["row"]
        assert counts["row"][0] > 0

    def test_default_runs_the_columnar_executor(
        self, nullful_db, monkeypatch
    ):
        # The retired knob is ignored: naming no executor still runs the
        # columnar one, which answers like the row executor.
        ran = []
        execute = ColumnarExecutor.execute

        def spy(self, plan):
            ran.append(plan)
            return execute(self, plan)

        monkeypatch.setattr(ColumnarExecutor, "execute", spy)
        monkeypatch.setenv(RETIRED_MORSEL_ENV_VAR, "7")
        rows = nullful_db.sql("SELECT pid FROM person WHERE age > 30")
        assert len(ran) == 1
        query = nullful_db.query("person").where(col("age") > 30).select("pid")
        assert query.run() == rows
        assert len(ran) == 2
        baseline = nullful_db.sql(
            "SELECT pid FROM person WHERE age > 30", execution="row"
        )
        assert rows == baseline == query.run(execution="row")
        assert len(ran) == 2

    def test_fluent_query_columnar_matches_row(self, nullful_db):
        grown = grown_in_morsels(nullful_db, 7)
        results = {}
        for label, db, mode in [
            ("row", nullful_db, "row"),
            ("columnar", grown, "columnar"),
            ("default", grown, None),
        ]:
            metrics = ExecutionMetrics()
            q = (
                db.query("person")
                .where(col("age") > 20)
                .aggregate(sum_("income", "total"), group_by=["region"])
            )
            results[label] = (q.run(metrics, execution=mode), metrics.rows_scanned)
        assert results["columnar"] == results["row"] == results["default"]


class TestVectorizedLimit:
    """A bare LIMIT runs on the row executor, whatever mode is asked for;
    a LIMIT directly over an ORDER BY runs columnar."""

    LIMIT_SQL = "SELECT pid FROM person WHERE age > 30 LIMIT 3"

    def test_bare_limit_runs_on_the_row_executor(self, nullful_db):
        plan = nullful_db.optimize_plan(parse_select(self.LIMIT_SQL))
        for requested in (None, "columnar", "row"):
            assert choose_execution(plan, requested) == "row"
        with pytest.raises(TypeError):
            choose_execution(plan, morsel=True)

    def test_limit_over_orderby_stays_row(self, nullful_db):
        # The sort consumes its whole input in both modes, so only a
        # LIMIT that is not directly over an ORDER BY needs row mode.
        plan = nullful_db.optimize_plan(
            parse_select("SELECT pid FROM person ORDER BY age LIMIT 5")
        )
        assert isinstance(plan, lp.Limit)
        assert isinstance(plan.child, lp.OrderBy)
        assert choose_execution(plan) == "columnar"
        assert choose_execution(plan, "columnar") == "columnar"
        assert choose_execution(plan, "row") == "row"

    @pytest.mark.parametrize("size", MORSEL_SIZES)
    def test_limit_rows_and_obs_identical(self, nullful_db, size):
        grown = grown_in_morsels(nullful_db, size)
        snapshots = {}
        rows = {}
        for label, db, mode in [
            ("row", nullful_db, "row"),
            ("columnar", grown, "columnar"),
        ]:
            observer = obs.enable()
            observer.reset()
            db.metrics.reset()
            try:
                rows[label] = db.sql(self.LIMIT_SQL, execution=mode)
                snapshots[label] = observer.metrics.snapshot()["values"]
            finally:
                obs.disable()
            snapshots[label + ".scanned"] = db.metrics.rows_scanned
        assert rows["columnar"] == rows["row"]
        assert snapshots["columnar"] == snapshots["row"]
        assert snapshots["columnar.scanned"] == snapshots["row.scanned"]
        # The row pipeline stops pulling once the limit is reached.
        assert snapshots["row.scanned"] < 60

    def test_limit_larger_than_result(self, nullful_db):
        sql = "SELECT pid FROM person WHERE age > 75 LIMIT 500"
        grown = grown_in_morsels(nullful_db, 7)
        assert grown.sql(sql, execution="columnar") == nullful_db.sql(
            sql, execution="row"
        )

    def test_limit_zero(self, nullful_db):
        sql = "SELECT pid FROM person LIMIT 0"
        for size in MORSEL_SIZES:
            grown = grown_in_morsels(nullful_db, size)
            for mode in ("row", "columnar"):
                assert grown.sql(sql, execution=mode) == []

    def test_limit_chain_shapes(self, nullful_db):
        # LIMIT over a plain chain and LIMIT over a sort: the Limit stays
        # on top of the optimized plan and both shapes answer alike.
        grown = grown_in_morsels(nullful_db, 7)
        for sql in (
            self.LIMIT_SQL,
            "SELECT pid, age FROM person ORDER BY age LIMIT 2",
        ):
            plan = grown.optimize_plan(parse_select(sql))
            assert isinstance(plan, lp.Limit)
            assert grown.sql(sql, execution="columnar") == nullful_db.sql(
                sql, execution="row"
            )


def _error(db, sql, mode, exc=QueryError):
    with pytest.raises(exc) as caught:
        db.sql(sql, execution=mode)
    return str(caught.value)


class TestFusedErrorParity:
    """Errors raised under the columnar executor read like the row engine's."""

    def test_non_vectorizable_function_message_matches(self):
        batch = ColumnBatch.from_rows([{"x": 1.0}, {"x": 2.0}])
        with pytest.raises(QueryError, match="not vectorized"):
            evaluate_batch(FunctionCall("upper", (Column("x"),)), batch)
        # The executor runs such a node on the row operator instead, so
        # a failing call raises the row engine's error in both modes.
        db = Database()
        db.create_table("t", Schema.of(x=float), [{"x": 1.0}, {"x": 2.0}])
        sql = "SELECT upper(x) AS u FROM t"
        assert _error(db, sql, "columnar", AttributeError) == _error(
            db, sql, "row", AttributeError
        )

    def test_unknown_column_message_matches(self):
        batch = ColumnBatch.from_rows([{"x": 1.0}])
        with pytest.raises(QueryError) as batched:
            evaluate_batch(Column("nope"), batch)
        db = Database()
        db.create_table("t", Schema.of(x=float), [{"x": 1.0}])
        sql = "SELECT x FROM t WHERE nope > 1"
        assert _error(db, sql, "columnar") == _error(db, sql, "row")
        assert str(batched.value) == _error(db, sql, "row")


class TestFusionHelpers:
    """The columnar executor's per-node batch pipeline over a chain."""

    def _db(self, rows=10):
        db = Database()
        db.create_table(
            "t",
            Schema.of(a=int, b=float, c=str),
            [{"a": i, "b": float(i), "c": "x"} for i in range(rows)],
        )
        return db

    def _scan_chain(self):
        scan = lp.Scan("t")
        filt = lp.Filter(scan, col("a") > 1)
        proj = lp.Project(filt, (col("a"),), ("a",))
        return scan, filt, proj

    def test_chain_stages_orders_source_to_top(self, monkeypatch):
        finished = []
        run_batch = ColumnarExecutor._run_batch

        def spy(self, node, *reads):
            batch = run_batch(self, node, *reads)
            finished.append(node)
            return batch

        monkeypatch.setattr(ColumnarExecutor, "_run_batch", spy)
        scan, filt, proj = self._scan_chain()
        ColumnarExecutor(self._db()).execute(proj)
        assert finished == [scan, filt, proj]

    def test_chain_stages_none_for_non_stage(self):
        executor = ColumnarExecutor(self._db())
        scan, filt, proj = self._scan_chain()
        assert executor._batch_handler(lp.Limit(proj, 3)) is None
        upper = lp.Filter(scan, FunctionCall("upper", (col("c"),)) == "X")
        assert executor._batch_handler(upper) is None
        assert executor._batch_handler(filt) is not None

    def test_prune_keeps_referenced_columns_only(self):
        _, _, proj = self._scan_chain()
        batch = ColumnarExecutor(self._db())._run_batch(proj)
        assert batch.names == ["a"]
        assert batch.length == 8

    def test_prune_never_drops_for_filter_only_chain(self):
        _, filt, _ = self._scan_chain()
        batch = ColumnarExecutor(self._db())._run_batch(filt)
        assert batch.names == ["a", "b", "c"]
        assert batch.length == 8

    def test_split_batch_views_and_empty(self):
        db = self._db()
        scan = lp.Scan("t")
        batch = ColumnarExecutor(db)._run_batch(scan)
        cached = db.table("t").column_batch()
        # Scans share the cached, read-only vectors rather than copying.
        assert batch.columns["a"] is cached.columns["a"]
        assert not batch.columns["a"].values.flags.writeable
        empty = self._db(rows=0)
        batch = ColumnarExecutor(empty)._run_batch(scan)
        assert (batch.length, batch.names) == (0, ["a", "b", "c"])

    def test_pipeline_counts_per_stage(self):
        _, _, proj = self._scan_chain()
        observer = obs.enable()
        observer.reset()
        try:
            rows = ColumnarExecutor(self._db()).execute(proj)
            counters = observer.metrics.snapshot()["values"]["counters"]
        finally:
            obs.disable()
        counts = tuple(
            counters[f"engine.operator.rows{{op={op}}}"]
            for op in ("Scan(t)", "Filter", "Project")
        )
        assert counts == (10, 8, 8)
        assert [r["a"] for r in rows] == list(range(2, 10))


class TestExecutionSettings:
    def test_sql_with_invalid_morsel_size(self, nullful_db):
        # There is no morsel size to pass any more.
        with pytest.raises(TypeError):
            nullful_db.sql("SELECT pid FROM person", morsel_size=0)

    def test_scan_cache_invalidated_by_mutation(self, nullful_db):
        sql = "SELECT count(*) AS n FROM person WHERE age > 0"
        before = nullful_db.sql(sql, execution="columnar")
        nullful_db.table("person").insert(
            {"pid": 999, "age": 55, "region": "east", "income": 1.0}
        )
        after = nullful_db.sql(sql, execution="columnar")
        assert after[0]["n"] == before[0]["n"] + 1
        assert after == nullful_db.sql(sql, execution="row")

    def test_quiet_map_emits_no_parallel_metrics(self):
        """Every map emits ``parallel.*`` counters; there is no way to
        ask for a quiet one."""
        backend = get_backend("serial")
        observer = obs.enable()
        observer.reset()
        try:
            assert backend.map(abs, [-1, -2]) == [1, 2]
            assert backend.map_with_stats(abs, [-3])[0] == [3]
            counters = observer.metrics.snapshot()["values"]["counters"]
            assert counters["parallel.map_calls"] == 2
            assert counters["parallel.tasks"] == 3
            for map_call in (backend.map, backend.map_with_stats):
                with pytest.raises(TypeError):
                    map_call(abs, [-1], quiet=True)
        finally:
            obs.disable()


def _nested_loop_pairs(lcodes, rcodes):
    """Reference equi-join pairs: left-major, right in original order."""
    pairs = [
        (i, j)
        for i, lc in enumerate(lcodes.tolist())
        for j, rc in enumerate(rcodes.tolist())
        if lc == rc
    ]
    return (
        np.array([i for i, _ in pairs], dtype=np.int64),
        np.array([j for _, j in pairs], dtype=np.int64),
    )


class TestSortMergeJoin:
    """The hash join is the one equi-join, also where sort-merge was."""

    def test_pair_parity_with_hash(self):
        rng = np.random.RandomState(11)
        # Codes 0..7 take the buckets addressed by code; eight codes
        # around +-2**40 span far past that table's bound and take the
        # binary searches of the sorted right codes.
        wide = np.random.RandomState(12).randint(
            -(2 ** 40), 2 ** 40, size=8, dtype=np.int64
        )
        for palette in (np.arange(8, dtype=np.int64), wide):
            for _ in range(50):
                lcodes = palette[rng.randint(0, 8, size=rng.randint(0, 30))]
                rcodes = palette[rng.randint(0, 8, size=rng.randint(0, 30))]
                hl, hr = operators._hash_join_pairs(lcodes, rcodes)
                nl, nr = _nested_loop_pairs(lcodes, rcodes)
                assert np.array_equal(hl, nl)
                assert np.array_equal(hr, nr)

    def test_join_algorithm_field_validation(self):
        with pytest.raises(TypeError):
            lp.Join(lp.Scan("a"), lp.Scan("b"), algorithm="sort_merge")
        join = lp.Join(lp.Scan("a"), lp.Scan("b"))
        assert lp.node_label(join) == "Join(inner)"

    def _big_join_db(self, rows=600):
        db = Database()
        db.create_table("l", Schema.of(id=int, x=float))
        db.create_table("r", Schema.of(id=int, y=float))
        db.table("l").insert_many(
            {"id": i, "x": float(i)} for i in range(rows)
        )
        db.table("r").insert_many(
            {"id": i, "y": float(i) * 2} for i in range(rows)
        )
        db.analyze()
        return db

    def test_optimizer_keeps_hash_on_small_tables(
        self, nullful_db, monkeypatch
    ):
        calls = []
        pairs = operators._hash_join_pairs

        def spy(lcodes, rcodes):
            calls.append(len(lcodes))
            return pairs(lcodes, rcodes)

        monkeypatch.setattr(operators, "_hash_join_pairs", spy)
        nullful_db.analyze()
        sql = "SELECT p.pid FROM person p JOIN region r ON p.region = r.region"
        rows = nullful_db.sql(sql, execution="columnar")
        assert calls == [60]
        assert rows == nullful_db.sql(sql, execution="row")

    def test_sort_merge_end_to_end_identity(self):
        db = self._big_join_db()
        sql = (
            "SELECT l.x, r.y FROM l JOIN r ON l.id = r.id "
            "WHERE l.x > 100"
        )
        base = db.sql(sql, execution="row")
        assert len(base) == 499
        assert db.sql(sql, execution="columnar") == base
        assert grown_in_morsels(db, 64).sql(sql, execution="columnar") == base


class TestConcatVectorsRegressions:
    def test_empty_input_yields_empty_vector(self):
        vec = concat_vectors([])
        assert len(vec) == 0
        assert vec.to_pylist() == []

    def test_mixed_int_and_all_null_promotes_like_single_batch(self):
        merged = concat_vectors(
            [vector_from_values([1, 2, 3]), all_null(2)]
        )
        single = vector_from_values([1, 2, 3, None, None])
        assert merged.kind == single.kind
        assert merged.to_pylist() == single.to_pylist()
        assert list(merged.valid) == list(single.valid)

    def test_all_null_then_float_promotes_like_single_batch(self):
        merged = concat_vectors(
            [all_null(1), vector_from_values([1.5, None])]
        )
        single = vector_from_values([None, 1.5, None])
        assert merged.kind == single.kind
        assert merged.to_pylist() == single.to_pylist()


class TestInListSelectivity:
    def _stats(self, rows=100, ndv=10, nulls=0):
        return TableStatistics(
            row_count=rows,
            columns={
                "a": ColumnStatistics(
                    distinct_count=ndv,
                    null_count=nulls,
                    minimum=0.0,
                    maximum=100.0,
                )
            },
        )

    def test_uses_distinct_counts(self):
        pred = InList(Column("a"), (1, 2, 3))
        assert predicate_selectivity(pred, self._stats(ndv=10)) == (
            pytest.approx(0.3)
        )

    def test_caps_at_ndv(self):
        pred = InList(Column("a"), tuple(range(50)))
        assert predicate_selectivity(pred, self._stats(ndv=10)) == (
            pytest.approx(1.0)
        )

    def test_deduplicates_literals(self):
        pred = InList(Column("a"), (1, 1, 1, 2))
        assert predicate_selectivity(pred, self._stats(ndv=10)) == (
            pytest.approx(0.2)
        )

    def test_scales_by_null_fraction(self):
        pred = InList(Column("a"), (1,))
        sel = predicate_selectivity(
            pred, self._stats(rows=100, ndv=10, nulls=50)
        )
        assert sel == pytest.approx(0.05)

    def test_fallback_without_column_stats(self):
        pred = InList(Column("zzz"), (1, 2))
        stats = self._stats()
        # Unknown column: classical k * equality-selectivity bound.
        assert predicate_selectivity(pred, stats) == pytest.approx(0.2)


class TestMorselExecutorDirect:
    """A :class:`ColumnarExecutor` built by hand, outside ``Database.sql``."""

    def test_default_size_when_constructed_directly(self, nullful_db):
        executor = ColumnarExecutor(nullful_db)
        assert executor.metrics is not nullful_db.metrics
        executor.execute(lp.Scan("person"))
        assert (executor.metrics.rows_scanned, executor.metrics.rows_output) == (
            60, 60
        )
        assert nullful_db.metrics.rows_scanned == 0

    def test_explicit_backend_instance(self, nullful_db):
        plan = lp.Project(
            lp.Filter(lp.Scan("person"), col("age") > 30),
            (col("pid"),),
            ("pid",),
        )
        executor = ColumnarExecutor(grown_in_morsels(nullful_db, 7))
        rows = executor.execute(plan)
        baseline = nullful_db.execute_plan(
            plan, optimized=False, execution="row"
        )
        assert rows == baseline
