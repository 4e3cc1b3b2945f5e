"""Joins over key-partitioned tables: partitioning never changes a join.

A partitioning registered with ``Database.partition_table`` is catalog
metadata.  No optimizer rule and no executor reads it, so a join whose
sides are both partitioned compatibly on the join key ("co-partitioned")
is planned and run exactly like the same join over unpartitioned
tables: by the hash join, in process.  The oracle is the engine's usual
one — plans, values, row order, ``ExecutionMetrics`` and the obs
``values`` snapshot equal the unpartitioned run at every partition
count, on both schemes, whatever ``REPRO_BACKEND`` says.

The class and test names are those of the suite for the retired
co-partitioned join; each test now checks that the configuration it
named leaves the join unchanged.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.engine import (
    ColumnarExecutor,
    ExecutionMetrics,
    PartitionedTable,
    Schema,
    parse_select,
)
from repro.engine import operators
from repro.engine import plan as lp
from repro.engine.table import Table
from repro.ensemble.store import result_fingerprint
from repro.faults.plan import FaultPlan, injected

from tests.test_engine_columnar import CORPUS, nullful_db  # noqa: F401

BACKENDS = ("serial", "process")
PARTITION_COUNTS = (1, 2, 7)

JOIN_SQL = (
    "SELECT p.pid, r.mult FROM person p JOIN region r "
    "ON p.region = r.region"
)
LEFT_JOIN_SQL = (
    "SELECT p.pid, r.mult FROM person p LEFT JOIN region r "
    "ON p.region = r.region"
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def _co_partition(db, n, scheme="hash"):
    db.partition_table("person", "region", n, scheme=scheme)
    db.partition_table("region", "region", n, scheme=scheme)


def _unpartition(db):
    for name in ("person", "region"):
        if db.partitioning(name) is not None:
            db.unpartition_table(name)


def _plan(db, sql):
    return db.optimize_plan(parse_select(sql))


def _assert_plan_unchanged(db, sql, partition):
    """``sql`` plans the same with ``partition(db)`` applied as without."""
    baseline = _plan(db, sql)
    partition(db)
    try:
        partitioned = _plan(db, sql)
    finally:
        _unpartition(db)
    assert lp.plan_summary(partitioned) == lp.plan_summary(baseline)
    joins = [n for n in lp.walk(partitioned) if isinstance(n, lp.Join)]
    assert len(joins) == 1


@pytest.fixture
def hash_pair_calls(monkeypatch):
    """Record the left length of every call to the hash join's pairing."""
    calls = []
    pairs = operators._hash_join_pairs

    def spy(lcodes, rcodes):
        calls.append(len(lcodes))
        return pairs(lcodes, rcodes)

    monkeypatch.setattr(operators, "_hash_join_pairs", spy)
    return calls


class TestSelectionRule:
    """Join planning ignores partitionings, compatible or not."""

    @pytest.mark.parametrize("n", PARTITION_COUNTS)
    def test_selected_for_compatible_hash_partitionings(
        self, nullful_db, n, hash_pair_calls
    ):
        # Compatible partitionings select the one join there is: the
        # hash join, over the whole of each side.
        for sql in (JOIN_SQL, LEFT_JOIN_SQL):
            _assert_plan_unchanged(
                nullful_db, sql, lambda db: _co_partition(db, n)
            )
        _co_partition(nullful_db, n)
        try:
            for sql in (JOIN_SQL, LEFT_JOIN_SQL):
                rows = nullful_db.sql(sql, execution="columnar")
                assert rows == nullful_db.sql(sql, execution="row")
        finally:
            _unpartition(nullful_db)
        assert hash_pair_calls == [60, 60]

    def test_not_selected_without_partitioning(self, nullful_db):
        (join,) = [
            n for n in lp.walk(_plan(nullful_db, JOIN_SQL))
            if isinstance(n, lp.Join)
        ]
        assert not hasattr(join, "algorithm")
        assert lp.node_label(join) == "Join(inner)"

    def test_not_selected_with_one_side_unpartitioned(self, nullful_db):
        _assert_plan_unchanged(
            nullful_db,
            JOIN_SQL,
            lambda db: db.partition_table("person", "region", 3),
        )

    def test_not_selected_with_mismatched_counts(self, nullful_db):
        def partition(db):
            db.partition_table("person", "region", 3)
            db.partition_table("region", "region", 4)

        _assert_plan_unchanged(nullful_db, JOIN_SQL, partition)

    def test_not_selected_with_mismatched_schemes(self, nullful_db):
        def partition(db):
            db.partition_table("person", "region", 3, scheme="hash")
            db.partition_table("region", "region", 3, scheme="range")

        _assert_plan_unchanged(nullful_db, JOIN_SQL, partition)

    def test_not_selected_on_non_partition_key(self, nullful_db):
        _assert_plan_unchanged(
            nullful_db,
            "SELECT a.pid AS x, b.pid AS y FROM person a "
            "JOIN person b ON a.age = b.age",
            lambda db: _co_partition(db, 3),
        )

    def test_not_selected_when_pushdown_interposes_a_filter(self, nullful_db):
        _assert_plan_unchanged(
            nullful_db,
            JOIN_SQL + " WHERE p.age > 20",
            lambda db: _co_partition(db, 3),
        )

    def test_range_compatibility_requires_equal_boundaries(self):
        a = Table("a", Schema.of(k=int))
        b = Table("b", Schema.of(k=int))
        c = Table("c", Schema.of(k=int))
        for v in range(12):
            a.insert({"k": v})
            b.insert({"k": v})
            c.insert({"k": v * 100})  # different key set, different cuts
        pa = PartitionedTable(a, "k", 3, "range")
        pb = PartitionedTable(b, "k", 3, "range")
        pc = PartitionedTable(c, "k", 3, "range")
        # Equal key sets cut at equal boundaries, so equal keys share a
        # partition index; other key sets cut elsewhere.
        assert pa._boundaries == pb._boundaries
        assert [p.tolist() for p in pa.positions()] == [
            p.tolist() for p in pb.positions()
        ]
        assert pa._boundaries != pc._boundaries
        assert len(PartitionedTable(b, "k", 4, "range").positions()) == 4


class TestCoPartitionedIdentity:
    """Results, metrics, and obs snapshots equal the unpartitioned run."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", PARTITION_COUNTS)
    def test_corpus_fingerprint(self, nullful_db, n, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        baseline = result_fingerprint(
            [nullful_db.sql(sql, execution="row") for sql in CORPUS]
        )
        _co_partition(nullful_db, n)
        try:
            partitioned = result_fingerprint(
                [nullful_db.sql(sql, execution="columnar") for sql in CORPUS]
            )
        finally:
            _unpartition(nullful_db)
        assert partitioned == baseline

    def test_corpus_obs_values(self, nullful_db):
        snapshots = {}
        for label in ("row", "co_partitioned"):
            if label == "co_partitioned":
                _co_partition(nullful_db, 3)
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
                _unpartition(nullful_db)
        assert snapshots["co_partitioned"] == snapshots["row"]

    @pytest.mark.parametrize("n", PARTITION_COUNTS)
    def test_join_metrics_identical(self, nullful_db, n):
        counts = {}
        for label in ("hash", "co_partitioned"):
            if label == "co_partitioned":
                _co_partition(nullful_db, n)
            nullful_db.metrics.reset()
            try:
                nullful_db.sql(JOIN_SQL, execution="columnar")
            finally:
                _unpartition(nullful_db)
            m = nullful_db.metrics
            counts[label] = (
                m.rows_scanned,
                m.join_pairs_examined,
                m.rows_joined,
                m.rows_output,
            )
        assert counts["co_partitioned"] == counts["hash"]

    def test_fault_injection_recovers_identically(self, nullful_db):
        # Every task attempt in every scope is planned to fail, more
        # often than any retry policy allows: the join still answers,
        # because a query runs in process and starts no substrate task.
        baseline = nullful_db.sql(JOIN_SQL, execution="row")
        _co_partition(nullful_db, 3)
        plan = FaultPlan(rate=1.0, fail_attempts=100)
        try:
            with injected(plan):
                rows = nullful_db.sql(JOIN_SQL, execution="columnar")
        finally:
            _unpartition(nullful_db)
        assert rows == baseline


class TestShuffleAccounting:
    """A join over partitioned tables records only the plain counters."""

    def _execute(self, db, sql):
        plan = db.optimize_plan(parse_select(sql))
        executor = ColumnarExecutor(db, ExecutionMetrics())
        rows = executor.execute(plan)
        return executor, rows

    @pytest.mark.parametrize("n", PARTITION_COUNTS)
    def test_join_records_avoided_shuffle_bytes(self, nullful_db, n):
        baseline = nullful_db.sql(JOIN_SQL, execution="row")
        plain, _ = self._execute(nullful_db, JOIN_SQL)
        _co_partition(nullful_db, n)
        try:
            executor, rows = self._execute(nullful_db, JOIN_SQL)
        finally:
            _unpartition(nullful_db)
        assert rows == baseline
        m = executor.metrics
        # Each side is scanned once, whole; nothing is repartitioned.
        assert m.rows_scanned == 60 + 3
        assert m.rows_joined == m.join_pairs_examined == len(rows)
        assert m.rows_output == len(rows)
        assert vars(m) == vars(plain.metrics)

    def test_plain_scan_fanout_records_zero(self, nullful_db):
        nullful_db.partition_table("person", "region", 3)
        try:
            executor, rows = self._execute(
                nullful_db, "SELECT pid FROM person WHERE age > 30"
            )
        finally:
            _unpartition(nullful_db)
        m = executor.metrics
        assert m.rows_scanned == 60
        assert (m.rows_joined, m.join_pairs_examined) == (0, 0)
        assert m.rows_output == len(rows)


class TestFallbacks:
    """Partitioning metadata can never change a join's result."""

    def test_registry_exposes_co_partitioned(self, nullful_db, hash_pair_calls):
        # Every equi-join, over partitioned tables or not, pairs its
        # rows through the one hash join.
        assert not hasattr(operators, "JOIN_EXECS")
        for partitioned in (False, True):
            if partitioned:
                _co_partition(nullful_db, 3)
            try:
                nullful_db.sql(JOIN_SQL, execution="columnar")
            finally:
                _unpartition(nullful_db)
        assert hash_pair_calls == [60, 60]

    def test_plain_columnar_executor_degrades_to_hash(self, nullful_db):
        # An unoptimized plan run by a hand-built columnar executor over
        # co-partitioned tables gives the plain hash join result.
        plan = parse_select(JOIN_SQL)
        _co_partition(nullful_db, 3)
        try:
            executor = ColumnarExecutor(nullful_db, ExecutionMetrics())
            rows = executor.execute(plan)
        finally:
            _unpartition(nullful_db)
        assert rows == nullful_db.sql(JOIN_SQL, execution="row")

    def test_partitioning_dropped_after_planning(self, nullful_db):
        # Planned while co-partitioned, run after the partitionings are
        # gone: the plan is the unpartitioned plan and answers the same.
        _co_partition(nullful_db, 3)
        annotated = nullful_db.optimize_plan(parse_select(JOIN_SQL))
        _unpartition(nullful_db)
        assert lp.plan_summary(annotated) == lp.plan_summary(
            nullful_db.optimize_plan(parse_select(JOIN_SQL))
        )
        executor = ColumnarExecutor(nullful_db, ExecutionMetrics())
        rows = executor.execute(annotated)
        assert rows == nullful_db.sql(JOIN_SQL, execution="row")
