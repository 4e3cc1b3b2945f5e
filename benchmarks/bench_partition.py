"""BENCH_partition — partitioned tables on the execution substrate.

Runs the sharded-data-plane workloads through four configurations of
:mod:`repro.engine` — the plain columnar executor (no partitioning),
and hash-partitioned execution on the serial, thread, and process
backends (one morsel stream per partition, fanned out through
:mod:`repro.exec`) — verifying the byte-identity contract (identical
``result_fingerprint``, identical ``ExecutionMetrics``, byte-identical
obs ``values`` snapshots) and recording wall-clock speedups plus the
executor's shuffle accounting to
``benchmarks/results/BENCH_partition.json``.

Headline claims (asserted at full size):

* partitioned execution is byte-identical to the unpartitioned plan on
  every workload and every backend;
* the best parallel backend >= 1.2x over the unpartitioned columnar
  executor on the filter+aggregate workload when ``usable_cpus > 1``
  (reported either way, asserted only with real parallelism);
* serial partitioned execution costs at most 2x the unpartitioned
  plan (partitioning overhead stays bounded when it buys nothing).
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks._util import (
    BenchConfig,
    format_table,
    host_info,
    save_json,
    save_report,
    timed,
)
from repro import obs
from repro.engine import Database, Schema
from repro.ensemble.store import result_fingerprint

REGIONS = ["east", "west", "north", "south"]


def build_database(num_rows: int, seed: int = 7) -> Database:
    """The morsel-bench synthetic table (NULL-rich, group-keyed)."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, num_rows)
    ys = rng.integers(0, 100, num_rows)
    db = Database()
    db.create_table(
        "big", Schema.of(pid=int, region=str, x=float, y=int)
    )
    big = db.table("big")
    for i in range(num_rows):
        big.insert(
            {
                "pid": i,
                "region": REGIONS[i % 4] if i % 11 else None,
                "x": float(xs[i]),
                "y": int(ys[i]) if i % 13 else None,
            }
        )
    return db


def workloads(num_rows: int):
    return [
        (
            f"filter_aggregate(rows={num_rows})",
            "SELECT count(*) AS n, sum(x) AS s, avg(x) AS m, max(y) AS hi "
            "FROM big WHERE x > 0.25 AND y < 80",
        ),
        (
            f"group_by(rows={num_rows})",
            "SELECT region, count(*) AS n, sum(x) AS s FROM big "
            "WHERE y IS NOT NULL GROUP BY region",
        ),
        (
            f"filter_project(rows={num_rows})",
            "SELECT pid, x * 2.0 AS xx FROM big "
            "WHERE x > 0.5 AND region IS NOT NULL",
        ),
    ]


def _modes(partitions: int):
    """(name, partition count or None, backend) per configuration."""
    return [
        ("columnar", None, "serial"),
        ("part-serial", partitions, "serial"),
        ("part-thread", partitions, "thread"),
        ("part-process", partitions, "process"),
    ]


def _run_mode(db, sql, partitions, backend, morsel_size):
    previous = os.environ.get("REPRO_BACKEND")
    os.environ["REPRO_BACKEND"] = backend
    if partitions is not None:
        db.partition_table("big", "pid", partitions)
    try:
        if partitions is None:
            return db.sql(sql, execution="columnar")
        return db.sql(sql, morsel_size=morsel_size)
    finally:
        db.unpartition_table("big")
        if previous is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = previous


def run_experiment(config: BenchConfig = BenchConfig()):
    num_rows = 5_000 if config.quick else 100_000
    usable = host_info()["usable_cpus"]
    partitions = max(2, min(usable, 8))
    morsel_size = max(1, num_rows // (2 * partitions))
    db = build_database(num_rows)
    modes = _modes(partitions)

    rows = []
    speedups = {}
    identical = {}
    obs_identical = {}
    metrics_identical = {}
    for workload_name, sql in workloads(num_rows):
        fingerprints = {}
        seconds = {}
        for mode, parts, backend in modes:
            _run_mode(db, sql, parts, backend, morsel_size)  # warm-up
            result, elapsed = timed(
                _run_mode, db, sql, parts, backend, morsel_size
            )
            fingerprints[mode] = result_fingerprint(result)
            seconds[mode] = elapsed
        # Identity sweep (untimed): fingerprints, ExecutionMetrics, and
        # the deterministic obs ``values`` snapshot must not depend on
        # partitioning or the backend it ran on.
        values_snaps = {}
        metrics_snaps = {}
        for mode, parts, backend in modes:
            observer = obs.enable()
            observer.reset()
            db.metrics.reset()
            try:
                _run_mode(db, sql, parts, backend, morsel_size)
                values_snaps[mode] = observer.metrics.snapshot()["values"]
            finally:
                obs.disable()
            m = db.metrics
            metrics_snaps[mode] = (m.rows_scanned, m.rows_output)
        identical[workload_name] = len(set(fingerprints.values())) == 1
        obs_identical[workload_name] = all(
            snap == values_snaps["columnar"]
            for snap in values_snaps.values()
        )
        metrics_identical[workload_name] = all(
            snap == metrics_snaps["columnar"]
            for snap in metrics_snaps.values()
        )
        speedups[workload_name] = {
            "serial_vs_columnar": seconds["columnar"]
            / seconds["part-serial"],
            "thread_vs_columnar": seconds["columnar"]
            / seconds["part-thread"],
            "process_vs_columnar": seconds["columnar"]
            / seconds["part-process"],
        }
        rows.append(
            (
                workload_name,
                seconds["columnar"],
                seconds["part-serial"],
                seconds["part-thread"],
                seconds["part-process"],
                max(
                    speedups[workload_name]["thread_vs_columnar"],
                    speedups[workload_name]["process_vs_columnar"],
                ),
                identical[workload_name] and obs_identical[workload_name],
            )
        )
    return {
        "rows": rows,
        "speedups": speedups,
        "identical": identical,
        "obs_identical": obs_identical,
        "metrics_identical": metrics_identical,
        "usable_cpus": usable,
        "num_rows": num_rows,
        "partitions": partitions,
        "morsel_size": morsel_size,
    }


HEADERS = [
    "workload", "columnar s", "part-serial s",
    "part-thread s", "part-process s", "best parx", "identical",
]


def _record(outcome, quick):
    save_report("BENCH_partition", format_table(HEADERS, outcome["rows"]))
    save_json(
        "BENCH_partition",
        {
            "config": {
                "quick": quick,
                "num_rows": outcome["num_rows"],
                "partitions": outcome["partitions"],
                "morsel_size": outcome["morsel_size"],
                "usable_cpus": outcome["usable_cpus"],
            },
            "columns": HEADERS,
            "rows": [list(row) for row in outcome["rows"]],
            "speedups": outcome["speedups"],
            "identical": outcome["identical"],
            "obs_identical": outcome["obs_identical"],
            "metrics_identical": outcome["metrics_identical"],
            "note": (
                "part-* = hash partitioning on pid, one morsel stream "
                "per partition fanned out through the repro.exec "
                "substrate; speedups are relative to the unpartitioned "
                "columnar executor; identity covers result_fingerprint "
                "+ obs values snapshots + ExecutionMetrics"
            ),
        },
    )


def _assert_claims(outcome, quick):
    assert all(outcome["identical"].values()), outcome["identical"]
    assert all(outcome["obs_identical"].values()), outcome["obs_identical"]
    assert all(
        outcome["metrics_identical"].values()
    ), outcome["metrics_identical"]
    headline = next(
        s for name, s in outcome["speedups"].items()
        if "filter_aggregate" in name
    )
    # Partitioning overhead stays bounded when it buys no parallelism.
    assert headline["serial_vs_columnar"] >= (
        0.4 if quick else 1 / 2.0
    ), headline
    # Parallel speedup, asserted only with real parallelism.
    if outcome["usable_cpus"] > 1 and not quick:
        best_parallel = max(
            headline["thread_vs_columnar"], headline["process_vs_columnar"]
        )
        assert best_parallel >= 1.2, headline


def test_partition(benchmark, bench_config):
    outcome = benchmark.pedantic(
        run_experiment, args=(bench_config,), rounds=1, iterations=1
    )
    _record(outcome, bench_config.quick)
    _assert_claims(outcome, bench_config.quick)


if __name__ == "__main__":
    config = BenchConfig.from_env()
    result = run_experiment(config)
    _record(result, config.quick)
    _assert_claims(result, config.quick)
