"""Morsel-parallel columnar execution: identity at adversarial sizes.

The morsel executor's contract is the same byte-identity oracle the
columnar executor answers to — values, ``None`` placement, Python
types, row order, ``ExecutionMetrics``, and the deterministic obs
``values`` snapshot — plus one extra axis: none of it may depend on the
morsel size or the parallel backend the morsels ran on.  The suite
sweeps the null-rich corpus at sizes that never (1, 7), exactly (60),
and more than (240) cover the base tables, on all three backends.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.engine import (
    Database,
    ExecutionMetrics,
    MORSEL_ENV_VAR,
    MorselExecutor,
    Schema,
    choose_execution,
    col,
    parse_select,
    resolve_morsel_size,
    sum_,
)
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
from repro.engine.fusion import (
    FilterStage,
    FusedPipeline,
    chain_stages,
    limit_chain,
    prune_columns,
)
from repro.engine.morsel import split_batch
from repro.engine.operators import HashJoinExec, SortMergeJoinExec
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
#: the table (60), and exceed it (240 — a single morsel).
MORSEL_SIZES = (1, 7, 60, 240)


@pytest.fixture(autouse=True)
def _clean_morsel_env(monkeypatch):
    # The engine-morsel CI job exports these globally; this file sets
    # execution modes explicitly per test, so neutralize the ambient
    # knobs to keep every assertion deterministic.
    monkeypatch.delenv(MORSEL_ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_ENGINE_EXECUTION", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


class TestCrossModeIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", MORSEL_SIZES)
    def test_corpus_fingerprint(self, nullful_db, size, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        baseline = result_fingerprint(
            [nullful_db.sql(sql, execution="row") for sql in CORPUS]
        )
        morsel = result_fingerprint(
            [nullful_db.sql(sql, morsel_size=size) for sql in CORPUS]
        )
        assert morsel == baseline

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corpus_obs_values(self, nullful_db, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        snapshots = {}
        for label, kwargs in [
            ("row", {"execution": "row"}),
            ("morsel", {"morsel_size": 7}),
        ]:
            observer = obs.enable()
            observer.reset()
            try:
                for sql in CORPUS:
                    nullful_db.sql(sql, **kwargs)
                snapshots[label] = observer.metrics.snapshot()["values"]
            finally:
                obs.disable()
        assert snapshots["morsel"] == snapshots["row"]

    @pytest.mark.parametrize("size", MORSEL_SIZES)
    def test_metrics_identical(self, nullful_db, size):
        sql = (
            "SELECT p.region, count(*) AS n FROM person p JOIN region r "
            "ON p.region = r.region WHERE p.age > 10 GROUP BY p.region"
        )
        counts = {}
        for label, kwargs in [
            ("row", {"execution": "row"}),
            ("morsel", {"morsel_size": size}),
        ]:
            nullful_db.metrics.reset()
            nullful_db.sql(sql, **kwargs)
            m = nullful_db.metrics
            counts[label] = (
                m.rows_scanned,
                m.rows_joined,
                m.join_pairs_examined,
                m.rows_output,
            )
        assert counts["morsel"] == counts["row"]
        assert counts["row"][0] > 0

    def test_env_knob_routes_through_morsel(self, nullful_db, monkeypatch):
        monkeypatch.setenv(MORSEL_ENV_VAR, "7")
        rows = nullful_db.sql("SELECT pid FROM person WHERE age > 30")
        baseline = nullful_db.sql(
            "SELECT pid FROM person WHERE age > 30", execution="row"
        )
        assert rows == baseline

    def test_fluent_query_morsel(self, nullful_db):
        results = {}
        for label, kwargs in [
            ("row", {"execution": "row"}),
            ("morsel", {"morsel_size": 7}),
        ]:
            metrics = ExecutionMetrics()
            q = (
                nullful_db.query("person")
                .where(col("age") > 20)
                .aggregate(sum_("income", "total"), group_by=["region"])
            )
            results[label] = (
                q.run(metrics, **kwargs), metrics.rows_scanned
            )
        assert results["morsel"] == results["row"]


class TestVectorizedLimit:
    LIMIT_SQL = "SELECT pid FROM person WHERE age > 30 LIMIT 3"

    def test_choose_execution_requires_morsel(self, nullful_db):
        plan = nullful_db.optimize_plan(parse_select(self.LIMIT_SQL))
        assert choose_execution(plan) == "row"
        assert choose_execution(plan, morsel=True) == "columnar"

    def test_limit_over_orderby_stays_row(self, nullful_db):
        plan = nullful_db.optimize_plan(
            parse_select("SELECT pid FROM person ORDER BY age LIMIT 5")
        )
        assert choose_execution(plan, morsel=True) == "row"

    @pytest.mark.parametrize("size", MORSEL_SIZES)
    def test_limit_rows_and_obs_identical(self, nullful_db, size):
        snapshots = {}
        rows = {}
        for label, kwargs in [
            ("row", {"execution": "row"}),
            ("morsel", {"morsel_size": size}),
        ]:
            observer = obs.enable()
            observer.reset()
            nullful_db.metrics.reset()
            try:
                rows[label] = nullful_db.sql(self.LIMIT_SQL, **kwargs)
                snapshots[label] = observer.metrics.snapshot()["values"]
            finally:
                obs.disable()
            snapshots[label + ".scanned"] = nullful_db.metrics.rows_scanned
        assert rows["morsel"] == rows["row"]
        assert snapshots["morsel"] == snapshots["row"]
        assert snapshots["morsel.scanned"] == snapshots["row.scanned"]

    def test_limit_larger_than_result(self, nullful_db):
        sql = "SELECT pid FROM person WHERE age > 75 LIMIT 500"
        assert nullful_db.sql(sql, morsel_size=7) == nullful_db.sql(
            sql, execution="row"
        )

    def test_limit_zero(self, nullful_db):
        sql = "SELECT pid FROM person LIMIT 0"
        for size in MORSEL_SIZES:
            assert nullful_db.sql(sql, morsel_size=size) == []

    def test_limit_chain_shapes(self, nullful_db):
        qualifying = nullful_db.optimize_plan(
            parse_select(self.LIMIT_SQL)
        )
        limit = next(
            n for n in lp.walk(qualifying) if isinstance(n, lp.Limit)
        )
        assert limit_chain(limit) is not None
        over_sort = nullful_db.optimize_plan(
            parse_select("SELECT pid FROM person ORDER BY age LIMIT 2")
        )
        limit = next(
            n for n in lp.walk(over_sort) if isinstance(n, lp.Limit)
        )
        assert limit_chain(limit) is None


class TestFusedErrorParity:
    def test_non_vectorizable_function_message_matches(self):
        batch = ColumnBatch.from_rows([{"x": 1.0}, {"x": 2.0}])
        expr = FunctionCall("upper", (Column("x"),))
        with pytest.raises(QueryError) as unfused:
            evaluate_batch(expr, batch)
        pipeline = FusedPipeline([FilterStage(expr)])
        with pytest.raises(QueryError) as fused:
            pipeline(batch)
        assert str(fused.value) == str(unfused.value)

    def test_unknown_column_message_matches(self):
        batch = ColumnBatch.from_rows([{"x": 1.0}])
        expr = Column("nope")
        with pytest.raises(QueryError) as unfused:
            evaluate_batch(expr, batch)
        with pytest.raises(QueryError) as fused:
            FusedPipeline([FilterStage(expr)])(batch)
        assert str(fused.value) == str(unfused.value)


class TestFusionHelpers:
    def _scan_chain(self):
        scan = lp.Scan("t")
        filt = lp.Filter(scan, col("a") > 1)
        proj = lp.Project(filt, (col("a"),), ("a",))
        return scan, filt, proj

    def test_chain_stages_orders_source_to_top(self):
        scan, filt, proj = self._scan_chain()
        source, stages = chain_stages(proj)
        assert source is scan
        assert stages == [filt, proj]

    def test_chain_stages_none_for_non_stage(self):
        assert chain_stages(lp.Scan("t")) is None

    def test_prune_keeps_referenced_columns_only(self):
        batch = ColumnBatch.from_rows(
            [{"a": 1, "b": 2.0, "c": "x"}, {"a": 3, "b": 4.0, "c": "y"}]
        )
        _, filt, proj = self._scan_chain()
        pruned = prune_columns(batch, [filt, proj])
        assert pruned.names == ["a"]
        assert pruned.length == 2

    def test_prune_never_drops_for_filter_only_chain(self):
        batch = ColumnBatch.from_rows([{"a": 1, "b": 2.0}])
        _, filt, _ = self._scan_chain()
        assert prune_columns(batch, [filt]) is batch

    def test_split_batch_views_and_empty(self):
        batch = ColumnBatch.from_rows([{"a": i} for i in range(10)])
        morsels = split_batch(batch, 4)
        assert [m.length for m in morsels] == [4, 4, 2]
        # Slices are views over the same buffers, not copies.
        assert (
            morsels[0].columns["a"].values.base is not None
        )
        empty = ColumnBatch.from_rows([], ["a"])
        assert [m.length for m in split_batch(empty, 4)] == [0]
        with pytest.raises(QueryError):
            split_batch(batch, 0)

    def test_pipeline_counts_per_stage(self):
        batch = ColumnBatch.from_rows([{"a": i} for i in range(10)])
        _, filt, proj = self._scan_chain()
        from repro.engine.fusion import compile_stages

        out, counts = FusedPipeline(
            compile_stages([filt, proj])
        )(batch)
        assert counts == (8, 8)
        assert out.names == ["a"]


class TestMorselKnobs:
    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.setenv(MORSEL_ENV_VAR, "32")
        assert resolve_morsel_size() == 32
        assert resolve_morsel_size(5) == 5
        monkeypatch.delenv(MORSEL_ENV_VAR)
        assert resolve_morsel_size() is None

    def test_invalid_values_raise(self, monkeypatch):
        with pytest.raises(QueryError):
            resolve_morsel_size(0)
        with pytest.raises(QueryError):
            resolve_morsel_size(-3)
        monkeypatch.setenv(MORSEL_ENV_VAR, "banana")
        with pytest.raises(QueryError):
            resolve_morsel_size()

    def test_sql_with_invalid_morsel_size(self, nullful_db):
        with pytest.raises(QueryError):
            nullful_db.sql("SELECT pid FROM person", morsel_size=0)

    def test_scan_cache_invalidated_by_mutation(self, nullful_db):
        sql = "SELECT count(*) AS n FROM person WHERE age > 0"
        before = nullful_db.sql(sql, morsel_size=7)
        nullful_db.table("person").insert(
            {"pid": 999, "age": 55, "region": "east", "income": 1.0}
        )
        after = nullful_db.sql(sql, morsel_size=7)
        assert after[0]["n"] == before[0]["n"] + 1
        assert after == nullful_db.sql(sql, execution="row")

    def test_quiet_map_emits_no_parallel_metrics(self):
        backend = get_backend("serial")
        observer = obs.enable()
        observer.reset()
        try:
            assert backend.map(abs, [-1, -2], quiet=True) == [1, 2]
            values = observer.metrics.snapshot()["values"]
            assert not any(
                key.startswith("parallel.")
                for key in values["counters"]
            )
            assert backend.map(abs, [-3], quiet=False) == [3]
            values = observer.metrics.snapshot()["values"]
            assert any(
                key.startswith("parallel.")
                for key in values["counters"]
            )
        finally:
            obs.disable()


class TestSortMergeJoin:
    def test_pair_parity_with_hash(self):
        rng = np.random.RandomState(11)
        for _ in range(50):
            lcodes = rng.randint(0, 8, size=rng.randint(0, 30)).astype(
                np.int64
            )
            rcodes = rng.randint(0, 8, size=rng.randint(0, 30)).astype(
                np.int64
            )
            hl, hr = HashJoinExec().candidate_pairs(lcodes, rcodes)
            sl, sr = SortMergeJoinExec().candidate_pairs(lcodes, rcodes)
            assert np.array_equal(hl, sl)
            assert np.array_equal(hr, sr)

    def test_join_algorithm_field_validation(self):
        with pytest.raises(QueryError):
            lp.Join(lp.Scan("a"), lp.Scan("b"), algorithm="bogus")
        join = lp.Join(lp.Scan("a"), lp.Scan("b"), algorithm="sort_merge")
        # Labels stay algorithm-independent so obs keys are stable.
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

    def test_optimizer_picks_sort_merge_on_large_unique_keys(self):
        db = self._big_join_db()
        plan = db.optimize_plan(
            parse_select("SELECT l.x, r.y FROM l JOIN r ON l.id = r.id")
        )
        join = next(n for n in lp.walk(plan) if isinstance(n, lp.Join))
        assert join.algorithm == "sort_merge"

    def test_optimizer_keeps_hash_on_small_tables(self, nullful_db):
        nullful_db.analyze()
        plan = nullful_db.optimize_plan(
            parse_select(
                "SELECT p.pid FROM person p JOIN region r "
                "ON p.region = r.region"
            )
        )
        join = next(n for n in lp.walk(plan) if isinstance(n, lp.Join))
        assert join.algorithm is None

    def test_sort_merge_end_to_end_identity(self):
        db = self._big_join_db()
        sql = (
            "SELECT l.x, r.y FROM l JOIN r ON l.id = r.id "
            "WHERE l.x > 100"
        )
        base = db.sql(sql, execution="row")
        assert db.sql(sql, execution="columnar") == base
        assert db.sql(sql, morsel_size=64) == base


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
    def test_default_size_when_constructed_directly(self, nullful_db):
        executor = MorselExecutor(nullful_db)
        assert executor.morsel_size == 4096

    def test_explicit_backend_instance(self, nullful_db):
        executor = MorselExecutor(
            nullful_db, morsel_size=7, backend=get_backend("serial")
        )
        plan = lp.Project(
            lp.Filter(lp.Scan("person"), col("age") > 30),
            (col("pid"),),
            ("pid",),
        )
        rows = executor.execute(plan)
        baseline = nullful_db.execute_plan(
            plan, optimized=False, execution="row"
        )
        assert rows == baseline
