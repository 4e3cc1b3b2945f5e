"""Partitioned tables: catalog metadata that never changes an answer.

A :class:`PartitionedTable` assigns every row to one partition by a key
column (``hash`` or ``range``) and keeps its position arrays current as
the table mutates; ``Database.partition_table`` registers one per table.
No executor reads a partitioning, so registering one must leave *what*
a plan produces — values, ``None`` placement, row order,
``ExecutionMetrics``, and the obs ``values`` snapshot — byte-identical
to the unpartitioned plan at every partition count, on both schemes,
whatever ``REPRO_BACKEND`` says.  The rest of the file checks the
metadata itself: assignment, refresh after appends and rebuilds, and
catalog invalidation.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.engine import (
    ColumnarExecutor,
    ExecutionMetrics,
    PartitionedTable,
    Schema,
    parse_select,
)
from repro.engine.table import Table
from repro.ensemble.store import result_fingerprint
from repro.errors import CatalogError
from repro.faults.plan import FaultPlan, injected

from tests.test_engine_columnar import CORPUS, nullful_db  # noqa: F401

BACKENDS = ("serial", "thread", "process")

#: person has 60 rows; counts that are trivial (1), split evenly-ish
#: (2), and guarantee ragged/empty partitions (7).
PARTITION_COUNTS = (1, 2, 7)

SCHEMES = ("hash", "range")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # Neutralize the CI jobs' global knobs: this file sets execution
    # modes, backends, and fault plans explicitly per test.
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def _corpus_results(db):
    return [db.sql(sql) for sql in CORPUS]


class TestPartitionedIdentity:
    """The partitioned corpus fingerprint equals the unpartitioned one."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", PARTITION_COUNTS)
    def test_corpus_fingerprint_hash(
        self, nullful_db, n, backend, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        baseline = result_fingerprint(
            [nullful_db.sql(sql, execution="row") for sql in CORPUS]
        )
        unpartitioned = result_fingerprint(_corpus_results(nullful_db))
        nullful_db.partition_table("person", "region", n, scheme="hash")
        try:
            partitioned = result_fingerprint(_corpus_results(nullful_db))
        finally:
            nullful_db.unpartition_table("person")
        assert unpartitioned == baseline
        assert partitioned == baseline

    @pytest.mark.parametrize("n", PARTITION_COUNTS)
    @pytest.mark.parametrize("key", ("pid", "age", "income", "region"))
    def test_corpus_fingerprint_range_any_key(self, nullful_db, n, key):
        # Range partitioning on every column type, including the NULL-
        # rich ones (NULL keys land on partition 0) and the group key
        # itself.
        baseline = result_fingerprint(
            [nullful_db.sql(sql, execution="row") for sql in CORPUS]
        )
        nullful_db.partition_table("person", key, n, scheme="range")
        try:
            partitioned = result_fingerprint(
                [nullful_db.sql(sql, execution="columnar") for sql in CORPUS]
            )
        finally:
            nullful_db.unpartition_table("person")
        assert partitioned == baseline

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_corpus_obs_values(self, nullful_db, scheme, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        snapshots = {}
        for label in ("row", "partitioned"):
            if label == "partitioned":
                nullful_db.partition_table("person", "region", 3, scheme)
            observer = obs.enable()
            observer.reset()
            try:
                for sql in CORPUS:
                    if label == "row":
                        nullful_db.sql(sql, execution="row")
                    else:
                        nullful_db.sql(sql, execution="columnar")
                snapshots[label] = observer.metrics.snapshot()["values"]
            finally:
                obs.disable()
                if label == "partitioned":
                    nullful_db.unpartition_table("person")
        assert snapshots["partitioned"] == snapshots["row"]

    @pytest.mark.parametrize("n", PARTITION_COUNTS)
    def test_metrics_identical(self, nullful_db, n):
        sql = (
            "SELECT region, count(*) AS c, sum(income) AS s "
            "FROM person WHERE age > 10 GROUP BY region"
        )
        counts = {}
        for label in ("row", "partitioned"):
            if label == "partitioned":
                nullful_db.partition_table("person", "pid", n)
            nullful_db.metrics.reset()
            try:
                nullful_db.sql(
                    sql, execution="row" if label == "row" else "columnar"
                )
            finally:
                if label == "partitioned":
                    nullful_db.unpartition_table("person")
            m = nullful_db.metrics
            counts[label] = (m.rows_scanned, m.rows_output)
        assert counts["partitioned"] == counts["row"]
        assert counts["row"][0] == 60

    def test_partitioning_alone_enables_morsel_execution(
        self, nullful_db, monkeypatch
    ):
        # No execution argument, no env knob: a query over a partitioned
        # table runs on the default (columnar) executor, identically.
        ran = []
        execute = ColumnarExecutor.execute

        def spy(self, plan):
            ran.append(plan)
            return execute(self, plan)

        baseline = nullful_db.sql(
            "SELECT pid FROM person WHERE age > 30", execution="row"
        )
        monkeypatch.setattr(ColumnarExecutor, "execute", spy)
        nullful_db.partition_table("person", "region", 3)
        try:
            rows = nullful_db.sql("SELECT pid FROM person WHERE age > 30")
        finally:
            nullful_db.unpartition_table("person")
        assert rows == baseline
        assert len(ran) == 1

    def test_fault_injection_recovers_identically(self, nullful_db):
        # Every task attempt in every scope is planned to fail, more
        # often than any retry policy allows: the query still answers,
        # because it runs in process and starts no substrate task.
        baseline = nullful_db.sql(
            "SELECT region, count(*) AS n FROM person GROUP BY region",
            execution="row",
        )
        nullful_db.partition_table("person", "pid", 3)
        plan = FaultPlan(rate=1.0, fail_attempts=100)
        try:
            with injected(plan):
                rows = nullful_db.sql(
                    "SELECT region, count(*) AS n FROM person "
                    "GROUP BY region",
                    execution="columnar",
                )
        finally:
            nullful_db.unpartition_table("person")
        assert rows == baseline


class TestPartitionedTable:
    def _table(self):
        t = Table("t", Schema.of(k=int, label=str))
        for i in range(20):
            t.insert({"k": i % 6 if i % 4 else None, "label": f"r{i}"})
        return t

    def test_validation(self):
        t = self._table()
        with pytest.raises(CatalogError):
            PartitionedTable(t, "k", 0)
        with pytest.raises(CatalogError):
            PartitionedTable(t, "k", 2, scheme="round_robin")
        with pytest.raises(CatalogError):
            PartitionedTable(t, "missing", 2)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_positions_partition_every_row_exactly_once(self, scheme):
        t = self._table()
        parted = PartitionedTable(t, "k", 3, scheme)
        positions = parted.positions()
        merged = np.sort(np.concatenate(positions))
        assert merged.tolist() == list(range(len(t)))
        assert sum(parted.partition_sizes()) == len(t)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_null_keys_land_on_partition_zero(self, scheme):
        t = self._table()
        parted = PartitionedTable(t, "k", 4, scheme)
        null_rows = [
            i for i, v in enumerate(t.column_values("k")) if v is None
        ]
        assert null_rows  # the fixture really has NULL keys
        assert set(null_rows) <= set(parted.positions()[0].tolist())

    def test_hash_assignment_is_spelling_invariant(self):
        t = Table("t", Schema.of(k=float))
        for v in [1.0, 2.0, 0.0, 5.5]:
            t.insert({"k": v})
        ti = Table("ti", Schema.of(k=int))
        for v in [1, 2, 0]:
            ti.insert({"k": v})
        by_float = PartitionedTable(t, "k", 5)
        by_int = PartitionedTable(ti, "k", 5)
        float_assign = {
            v: p
            for p, pos in enumerate(by_float.positions())
            for v in np.asarray(t.column_values("k"))[pos]
        }
        int_assign = {
            v: p
            for p, pos in enumerate(by_int.positions())
            for v in np.asarray(ti.column_values("k"))[pos]
        }
        for v in (1, 2, 0):
            assert float_assign[float(v)] == int_assign[v]

    def test_range_boundaries_are_sorted_and_deterministic(self):
        t = self._table()
        a = PartitionedTable(t, "k", 3, "range")
        b = PartitionedTable(t, "k", 3, "range")
        assert a._boundaries == sorted(a._boundaries)
        assert a._boundaries == b._boundaries
        for p, pos in enumerate(a.positions()):
            assert pos.tolist() == b.positions()[p].tolist()

    def test_range_preserves_key_order_across_partitions(self):
        t = Table("t", Schema.of(k=int))
        for v in [9, 1, 7, 3, 5, 2, 8, 4, 6, 0]:
            t.insert({"k": v})
        parted = PartitionedTable(t, "k", 3, "range")
        values = t.column_values("k")
        per_part = [
            [values[i] for i in pos] for pos in parted.positions()
        ]
        # every key in partition p is <= every key in partition p+1
        for lo, hi in zip(per_part, per_part[1:]):
            if lo and hi:
                assert max(lo) < min(hi)

    def test_stale_and_refresh_on_mutation(self):
        t = self._table()
        parted = PartitionedTable(t, "k", 3)
        assert not parted.stale
        t.insert({"k": 2, "label": "late"})
        assert parted.stale
        assert sum(parted.partition_sizes()) == len(t)
        assert not parted.stale

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_positions_after_appends_match_a_fresh_build(
        self, scheme, monkeypatch
    ):
        assigned = []
        real_assign = PartitionedTable._assign

        def counting_assign(self, value):
            assigned.append(value)
            return real_assign(self, value)

        monkeypatch.setattr(PartitionedTable, "_assign", counting_assign)
        t = self._table()
        parted = PartitionedTable(t, "k", 3, scheme)
        # Keys outside the first build's range move range boundaries.
        for batch in (
            [{"k": 40, "label": "a"}, {"k": None, "label": "b"}],
            [{"k": v, "label": "c"} for v in (3, 77, -5, 3)],
        ):
            t.insert_many(batch)
            assigned.clear()
            got = parted.positions()
            rebuilt = len(assigned)
            fresh = PartitionedTable(t, "k", 3, scheme)
            assert [p.tolist() for p in got] == [
                p.tolist() for p in fresh.positions()
            ]
            assert [p.dtype for p in got] == [
                p.dtype for p in fresh.positions()
            ]
            assert parted._boundaries == fresh._boundaries
            # hash assigns only the appended rows; range rebuilds.
            assert rebuilt == (len(batch) if scheme == "hash" else len(t))

    def test_hash_positions_rebuild_after_non_append_mutation(self):
        from repro.engine.expressions import BinaryOp, Column, Literal

        t = self._table()
        parted = PartitionedTable(t, "k", 3)
        parted.positions()
        t.delete_where(BinaryOp("=", Column("k"), Literal(1)))
        # Longer than the first build: only the epoch rules out a tail.
        t.insert_many([{"k": 1, "label": "x"}] * 6)
        assert len(t) > 20
        fresh = PartitionedTable(t, "k", 3)
        assert [p.tolist() for p in parted.positions()] == [
            p.tolist() for p in fresh.positions()
        ]


class TestCatalogPartitioning:
    def test_partition_and_unpartition(self, nullful_db):
        parted = nullful_db.partition_table("person", "region", 3)
        assert nullful_db.partitioning("person") is parted
        assert nullful_db.partitioning("region") is None
        nullful_db.unpartition_table("person")
        assert nullful_db.partitioning("person") is None

    def test_partition_unknown_table_or_column(self, nullful_db):
        with pytest.raises(CatalogError):
            nullful_db.partition_table("nope", "x", 2)
        with pytest.raises(CatalogError):
            nullful_db.partition_table("person", "nope", 2)

    def test_replace_and_drop_invalidate(self, nullful_db):
        nullful_db.partition_table("person", "region", 3)
        nullful_db.create_table(
            "person", Schema.of(pid=int, age=int, region=str, income=float),
            replace=True,
        )
        # A replaced table must not execute against stale positions.
        assert nullful_db.partitioning("person") is None
        nullful_db.partition_table("region", "region", 2)
        nullful_db.drop_table("region")
        assert nullful_db.partitioning("region") is None

    def test_register_replace_invalidates(self, nullful_db):
        nullful_db.partition_table("region", "region", 2)
        fresh = Table("region", Schema.of(region=str, mult=float))
        nullful_db.register(fresh, replace=True)
        assert nullful_db.partitioning("region") is None

    def test_refresh_tracks_inserts_through_queries(self, nullful_db):
        parted = nullful_db.partition_table("person", "pid", 3)
        assert sum(parted.partition_sizes()) == 60
        nullful_db.table("person").insert(
            {"pid": 60, "age": 33, "region": "east", "income": 1.0}
        )
        assert parted.stale
        assert nullful_db.partitioning("person") is parted
        assert not parted.stale
        assert sum(parted.partition_sizes()) == 61
        assert nullful_db.sql("SELECT count(*) AS n FROM person") == [{"n": 61}]


class TestPartitionRunAccounting:
    """A query over a partitioned table records one whole-table scan."""

    def _execute(self, db, sql):
        plan = db.optimize_plan(parse_select(sql))
        executor = ColumnarExecutor(db, ExecutionMetrics())
        rows = executor.execute(plan)
        return executor, rows

    def test_chain_records_one_run(self, nullful_db):
        nullful_db.partition_table("person", "region", 3)
        try:
            executor, rows = self._execute(
                nullful_db, "SELECT pid FROM person WHERE age > 30"
            )
        finally:
            nullful_db.unpartition_table("person")
        m = executor.metrics
        assert m.rows_scanned == 60
        assert m.rows_output == len(rows)
        assert rows == nullful_db.sql(
            "SELECT pid FROM person WHERE age > 30", execution="row"
        )

    def test_aggregate_records_merge_of_all_rows(self, nullful_db):
        sql = "SELECT region, count(*) AS n FROM person GROUP BY region"
        nullful_db.partition_table("person", "pid", 7)
        try:
            executor, rows = self._execute(nullful_db, sql)
        finally:
            nullful_db.unpartition_table("person")
        assert executor.metrics.rows_scanned == 60
        assert sum(r["n"] for r in rows) == 60  # every row reaches a group
        assert rows == nullful_db.sql(sql, execution="row")

    def test_non_partitioned_scan_records_nothing(self, nullful_db):
        executor, rows = self._execute(
            nullful_db, "SELECT pid FROM person WHERE age > 30"
        )
        # Querying registers no partitioning.
        assert nullful_db.partitioning("person") is None
        assert executor.metrics.rows_scanned == 60
        assert executor.metrics.rows_output == len(rows)
