"""Co-partitioned hash join: byte-identity and the selection rule.

The second half of the sharded data plane: when both sides of an
equi-join are bare scans of tables partitioned compatibly on the join
key, the optimizer annotates the join ``co_partitioned`` and the
partitioned executor probes shard-i-against-shard-i through the
substrate — no shuffle.  The oracle is unchanged: values, row order,
``ExecutionMetrics``, and the obs ``values`` snapshot must be
byte-identical to the unpartitioned hash join at every partition count,
on every backend; the only permitted difference is the
:class:`PartitionRun` shuffle accounting, which lives outside both.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.engine import (
    Database,
    ExecutionMetrics,
    PARTITION_SCOPE,
    PartitionedMorselExecutor,
    PartitionedTable,
    Schema,
    parse_select,
)
from repro.engine import plan as lp
from repro.engine.operators import (
    ColumnarExecutor,
    CoPartitionedHashJoinExec,
    HashJoinExec,
    JOIN_EXECS,
)
from repro.engine.table import Table
from repro.ensemble.store import result_fingerprint
from repro.faults.plan import FaultPlan, injected

from tests.test_engine_columnar import CORPUS, nullful_db  # noqa: F401

BACKENDS = ("serial", "thread", "process")
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
    monkeypatch.delenv("REPRO_ENGINE_MORSEL", raising=False)
    monkeypatch.delenv("REPRO_ENGINE_EXECUTION", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def _co_partition(db, n, scheme="hash"):
    db.partition_table("person", "region", n, scheme=scheme)
    db.partition_table("region", "region", n, scheme=scheme)


def _unpartition(db):
    for name in ("person", "region"):
        if db.partitioning(name) is not None:
            db.unpartition_table(name)


def _join_algorithm(db, sql):
    plan = db.optimize_plan(parse_select(sql))
    joins = [n for n in lp.walk(plan) if isinstance(n, lp.Join)]
    assert len(joins) == 1
    return joins[0].algorithm


class TestSelectionRule:
    """``choose_join_algorithms`` picks co-partitioned exactly when the
    executor can exploit it, and falls back everywhere else."""

    @pytest.mark.parametrize("n", PARTITION_COUNTS)
    def test_selected_for_compatible_hash_partitionings(self, nullful_db, n):
        _co_partition(nullful_db, n)
        try:
            assert _join_algorithm(nullful_db, JOIN_SQL) == "co_partitioned"
            assert (
                _join_algorithm(nullful_db, LEFT_JOIN_SQL)
                == "co_partitioned"
            )
        finally:
            _unpartition(nullful_db)

    def test_not_selected_without_partitioning(self, nullful_db):
        assert _join_algorithm(nullful_db, JOIN_SQL) is None

    def test_not_selected_with_one_side_unpartitioned(self, nullful_db):
        nullful_db.partition_table("person", "region", 3)
        try:
            assert _join_algorithm(nullful_db, JOIN_SQL) is None
        finally:
            _unpartition(nullful_db)

    def test_not_selected_with_mismatched_counts(self, nullful_db):
        nullful_db.partition_table("person", "region", 3)
        nullful_db.partition_table("region", "region", 4)
        try:
            assert _join_algorithm(nullful_db, JOIN_SQL) is None
        finally:
            _unpartition(nullful_db)

    def test_not_selected_with_mismatched_schemes(self, nullful_db):
        nullful_db.partition_table("person", "region", 3, scheme="hash")
        nullful_db.partition_table("region", "region", 3, scheme="range")
        try:
            assert _join_algorithm(nullful_db, JOIN_SQL) is None
        finally:
            _unpartition(nullful_db)

    def test_not_selected_on_non_partition_key(self, nullful_db):
        # Both sides are partitioned, but the equi key (age) is not the
        # partition key — matching rows would not co-locate.
        _co_partition(nullful_db, 3)
        try:
            algo = _join_algorithm(
                nullful_db,
                "SELECT a.pid AS x, b.pid AS y FROM person a "
                "JOIN person b ON a.age = b.age",
            )
        finally:
            _unpartition(nullful_db)
        assert algo != "co_partitioned"

    def test_not_selected_when_pushdown_interposes_a_filter(self, nullful_db):
        # The WHERE clause is pushed below the join, so the left input
        # is Filter(Scan) — positions no longer index the join input.
        _co_partition(nullful_db, 3)
        try:
            algo = _join_algorithm(
                nullful_db, JOIN_SQL + " WHERE p.age > 20"
            )
        finally:
            _unpartition(nullful_db)
        assert algo != "co_partitioned"

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
        assert pa.compatible_with(pb)
        assert not pa.compatible_with(pc)
        assert not pa.compatible_with(PartitionedTable(b, "k", 4, "range"))
        assert not pa.compatible_with(PartitionedTable(b, "k", 3, "hash"))


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
                [nullful_db.sql(sql, morsel_size=7) for sql in CORPUS]
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
                        nullful_db.sql(sql, morsel_size=7)
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
                nullful_db.sql(
                    JOIN_SQL,
                    **(
                        {"execution": "columnar"}
                        if label == "hash"
                        else {"morsel_size": 7}
                    ),
                )
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
        baseline = nullful_db.sql(JOIN_SQL, execution="row")
        _co_partition(nullful_db, 3)
        plan = FaultPlan(failures={(PARTITION_SCOPE, 0): 1})
        try:
            with injected(plan):
                rows = nullful_db.sql(JOIN_SQL, morsel_size=7)
        finally:
            _unpartition(nullful_db)
        assert rows == baseline


class TestShuffleAccounting:
    def _execute(self, db, sql):
        plan = db.optimize_plan(parse_select(sql))
        executor = PartitionedMorselExecutor(
            db, ExecutionMetrics(), morsel_size=7
        )
        rows = executor.execute(plan)
        return executor, rows

    @pytest.mark.parametrize("n", PARTITION_COUNTS)
    def test_join_records_avoided_shuffle_bytes(self, nullful_db, n):
        baseline = nullful_db.sql(JOIN_SQL, execution="row")
        _co_partition(nullful_db, n)
        try:
            executor, rows = self._execute(nullful_db, JOIN_SQL)
        finally:
            _unpartition(nullful_db)
        assert rows == baseline
        (run,) = executor.partition_runs
        assert run.table == "person join region"
        assert (run.key, run.scheme, run.partitions) == ("region", "hash", n)
        assert run.rows_in == 60 + 3
        assert sum(run.partition_rows) == 60 + 3
        assert run.rows_merged == len(rows)
        # The whole payload of both sides would otherwise be eligible
        # for repartitioning — the avoided volume is strictly positive.
        assert run.shuffle_bytes_avoided > 0

    def test_plain_scan_fanout_records_zero(self, nullful_db):
        nullful_db.partition_table("person", "region", 3)
        try:
            executor, _ = self._execute(
                nullful_db, "SELECT pid FROM person WHERE age > 30"
            )
        finally:
            _unpartition(nullful_db)
        (run,) = executor.partition_runs
        assert run.shuffle_bytes_avoided == 0


class TestFallbacks:
    """A ``co_partitioned`` annotation can never change results."""

    def test_registry_exposes_co_partitioned(self):
        assert JOIN_EXECS["co_partitioned"] is CoPartitionedHashJoinExec
        assert issubclass(CoPartitionedHashJoinExec, HashJoinExec)

    def test_plain_columnar_executor_degrades_to_hash(self, nullful_db):
        # A plan annotated co_partitioned executed by the ordinary
        # columnar executor (no partition awareness at all) produces the
        # plain hash join result.
        plan = parse_select(JOIN_SQL)
        joins = [n for n in lp.walk(plan) if isinstance(n, lp.Join)]
        annotated = _replace_join(plan, joins[0], "co_partitioned")
        executor = ColumnarExecutor(nullful_db, ExecutionMetrics())
        rows = executor.execute(annotated)
        assert rows == nullful_db.sql(JOIN_SQL, execution="row")

    def test_partitioning_dropped_after_planning(self, nullful_db):
        # The optimizer saw compatible partitionings; by execution time
        # they are gone.  The executor's runtime guards fall back to the
        # inherited (hash) path, identically.
        _co_partition(nullful_db, 3)
        annotated = nullful_db.optimize_plan(parse_select(JOIN_SQL))
        _unpartition(nullful_db)
        executor = PartitionedMorselExecutor(
            nullful_db, ExecutionMetrics(), morsel_size=7
        )
        rows = executor.execute(annotated)
        assert executor.partition_runs == []
        assert rows == nullful_db.sql(JOIN_SQL, execution="row")


def _replace_join(node, target, algorithm):
    from dataclasses import replace

    if node is target:
        return replace(node, algorithm=algorithm)
    children = [
        _replace_join(child, target, algorithm)
        for child in node.children()
    ]
    return node.with_children(children) if children else node
