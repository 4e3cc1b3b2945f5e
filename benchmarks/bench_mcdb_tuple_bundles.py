"""AN-TB — MCDB tuple bundles vs naive per-iteration execution (§2.1).

MCDB "employs query processing techniques that execute a query plan only
once, processing 'tuple bundles' rather than ordinary tuples".  The same
aggregation query over a stochastic table runs both ways at increasing
Monte Carlo counts.  Shape checks: identical estimates (same seed, same
distribution), with the bundled path's advantage growing with n_mc.

The naive path's Monte Carlo iterations are independent, so they run
through the library-wide :mod:`repro.parallel` backend
(``REPRO_BACKEND``); ``--quick`` shrinks table and iteration counts for
CI.
"""

from __future__ import annotations

import pytest

from benchmarks._util import (
    BenchConfig,
    format_table,
    save_json,
    save_report,
    timed,
)
from repro.engine import Database, Schema
from repro.mcdb import MonteCarloDatabase, NormalVG, RandomTableSpec
from repro.parallel import get_backend


def build_mcdb(num_rows: int = 150) -> MonteCarloDatabase:
    db = Database()
    db.create_table("patients", Schema.of(pid=int))
    for i in range(num_rows):
        db.table("patients").insert({"pid": i})
    db.create_table("sbp_param", Schema.of(mean=float, std=float))
    db.table("sbp_param").insert({"mean": 120.0, "std": 10.0})
    mcdb = MonteCarloDatabase(db, seed=3)
    mcdb.register_random_table(
        RandomTableSpec(
            name="sbp_data",
            vg=NormalVG(),
            outer_table="patients",
            parameters="SELECT mean, std FROM sbp_param",
            select={"pid": "outer.pid", "sbp": "vg.value"},
        )
    )
    return mcdb


def naive_query(instance):
    return instance.sql(
        "SELECT AVG(sbp) AS m FROM sbp_data WHERE sbp > 110"
    )[0]["m"]


def bundled_query(bundles, _db):
    return (
        bundles["sbp_data"]
        .filter(lambda row: row["sbp"] > 110.0)
        .aggregate_avg("sbp")
    )


def run_experiment(config: BenchConfig = BenchConfig()):
    num_rows = 40 if config.quick else 150
    mc_counts = (5, 20) if config.quick else (10, 50, 200)
    backend = get_backend()
    mcdb = build_mcdb(num_rows)
    rows = []
    speedups = {}
    for n_mc in mc_counts:
        naive, naive_time = timed(
            mcdb.run_naive, naive_query, n_mc, backend=backend
        )
        bundled, bundled_time = timed(mcdb.run_bundled, bundled_query, n_mc)
        speedup = naive_time / bundled_time
        speedups[n_mc] = speedup
        rows.append(
            (
                n_mc,
                naive.expectation(),
                bundled.expectation(),
                naive_time,
                bundled_time,
                speedup,
            )
        )
    return rows, speedups


def test_mcdb_tuple_bundles(benchmark, bench_config):
    rows, speedups = benchmark.pedantic(
        run_experiment, args=(bench_config,), rounds=1, iterations=1
    )
    headers = [
        "n_mc",
        "E[Y] naive",
        "E[Y] bundled",
        "naive s",
        "bundled s",
        "speedup",
    ]
    save_report("AN-TB_mcdb_tuple_bundles", format_table(headers, rows))
    save_json(
        "AN-TB_mcdb_tuple_bundles",
        {
            "config": {
                "quick": bench_config.quick,
                "backend": get_backend().name,
            },
            "columns": headers,
            "rows": [list(row) for row in rows],
        },
    )

    # Same distribution: expectations agree.
    for row in rows:
        assert row[1] == pytest.approx(row[2], abs=1.0)
    # Bundles win, and the win grows with the Monte Carlo count.
    largest = max(speedups)
    smallest = min(speedups)
    assert speedups[largest] > (2.0 if bench_config.quick else 5.0)
    assert speedups[largest] > speedups[smallest]
