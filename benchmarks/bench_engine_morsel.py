"""BENCH_engine_morsel — fused, morsel-parallel columnar execution.

Runs the PR 5 workloads through five execution configurations of
:mod:`repro.engine` — the row interpreter, the plain columnar executor
(the *disabled path*: no ``REPRO_ENGINE_MORSEL``), the fused
single-worker morsel executor (one morsel, serial backend: isolates
kernel fusion, since every configuration scans the same cached batch),
and morsel-parallel execution on the thread and process backends —
verifying the byte-identity contract
(identical ``result_fingerprint``, identical ``ExecutionMetrics``,
byte-identical obs ``values`` snapshots) and recording wall-clock
speedups to ``benchmarks/results/BENCH_engine_morsel.json``.

Headline claims (asserted at full size):

* fused single-worker >= 1.3x over the plain columnar executor on the
  100k-row filter+aggregate workload;
* morsel-parallel >= 1.5x over plain columnar when ``usable_cpus > 1``
  (reported either way, asserted only with real parallelism);
* the disabled path keeps PR 5's columnar speedup over row mode to
  within 1.1x (gate: >= 3.0/1.1 at 100k rows, quick-mode scaled).
"""

from __future__ import annotations

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
from repro.engine import Database, ExecutionMetrics, Schema
from repro.ensemble.store import result_fingerprint

REGIONS = ["east", "west", "north", "south"]


def build_database(num_rows: int, seed: int = 7) -> Database:
    """The PR 5 synthetic workload table plus a small join dimension."""
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
    db.create_table("dim", Schema.of(region=str, weight=float))
    for j, name in enumerate(REGIONS):
        db.table("dim").insert({"region": name, "weight": 0.5 + 0.25 * j})
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
            f"join_group(rows={num_rows})",
            "SELECT d.region, count(*) AS n FROM big b JOIN dim d "
            "ON b.region = d.region WHERE b.x > 0.5 GROUP BY d.region",
        ),
    ]


def _modes(num_rows: int, parallel_size: int):
    """(name, sql kwargs, backend spec) per execution configuration."""
    return [
        ("row", {"execution": "row"}, None),
        ("columnar", {"execution": "columnar"}, None),
        ("fused", {"morsel_size": num_rows}, "serial"),
        ("morsel-thread", {"morsel_size": parallel_size}, "thread"),
        ("morsel-process", {"morsel_size": parallel_size}, "process"),
    ]


def _run_mode(db, sql, kwargs, backend_spec):
    import os

    if backend_spec is None:
        return db.sql(sql, **kwargs)
    previous = os.environ.get("REPRO_BACKEND")
    os.environ["REPRO_BACKEND"] = backend_spec
    try:
        return db.sql(sql, **kwargs)
    finally:
        if previous is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = previous


def run_experiment(config: BenchConfig = BenchConfig()):
    num_rows = 5_000 if config.quick else 100_000
    usable = host_info()["usable_cpus"]
    parallel_size = max(1, num_rows // max(2 * usable, 2))
    db = build_database(num_rows)
    modes = _modes(num_rows, parallel_size)

    rows = []
    speedups = {}
    identical = {}
    obs_identical = {}
    metrics_identical = {}
    for workload_name, sql in workloads(num_rows):
        fingerprints = {}
        seconds = {}
        for mode, kwargs, backend_spec in modes:
            _run_mode(db, sql, kwargs, backend_spec)  # warm-up
            result, elapsed = timed(
                _run_mode, db, sql, kwargs, backend_spec
            )
            fingerprints[mode] = result_fingerprint(result)
            seconds[mode] = elapsed
        # Identity sweep (untimed): fingerprints, ExecutionMetrics, and
        # the deterministic obs ``values`` snapshot must not depend on
        # the execution configuration.
        values_snaps = {}
        metrics_snaps = {}
        for mode, kwargs, backend_spec in modes:
            observer = obs.enable()
            observer.reset()
            db.metrics.reset()
            try:
                _run_mode(db, sql, kwargs, backend_spec)
                values_snaps[mode] = observer.metrics.snapshot()["values"]
            finally:
                obs.disable()
            m = db.metrics
            metrics_snaps[mode] = (
                m.rows_scanned, m.rows_joined,
                m.join_pairs_examined, m.rows_output,
            )
        identical[workload_name] = (
            len(set(fingerprints.values())) == 1
        )
        obs_identical[workload_name] = all(
            snap == values_snaps["row"] for snap in values_snaps.values()
        )
        metrics_identical[workload_name] = all(
            snap == metrics_snaps["row"] for snap in metrics_snaps.values()
        )
        speedups[workload_name] = {
            "row_vs_columnar": seconds["row"] / seconds["columnar"],
            "fused_vs_columnar": seconds["columnar"] / seconds["fused"],
            "thread_vs_columnar": seconds["columnar"]
            / seconds["morsel-thread"],
            "process_vs_columnar": seconds["columnar"]
            / seconds["morsel-process"],
        }
        rows.append(
            (
                workload_name,
                seconds["row"],
                seconds["columnar"],
                seconds["fused"],
                seconds["morsel-thread"],
                seconds["morsel-process"],
                speedups[workload_name]["fused_vs_columnar"],
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
        "parallel_morsel_size": parallel_size,
    }


HEADERS = [
    "workload", "row s", "columnar s", "fused s",
    "thread s", "process s", "fusedx", "identical",
]


def _record(outcome, quick):
    save_report("BENCH_engine_morsel", format_table(HEADERS, outcome["rows"]))
    save_json(
        "BENCH_engine_morsel",
        {
            "config": {
                "quick": quick,
                "num_rows": outcome["num_rows"],
                "parallel_morsel_size": outcome["parallel_morsel_size"],
            },
            "columns": HEADERS,
            "rows": [list(row) for row in outcome["rows"]],
            "speedups": outcome["speedups"],
            "identical": outcome["identical"],
            "obs_identical": outcome["obs_identical"],
            "metrics_identical": outcome["metrics_identical"],
            "note": (
                "fused = one morsel on the serial backend (kernel fusion, "
                "no parallelism; every mode shares the scan cache); "
                "morsel-thread/"
                "process split into parallel_morsel_size-row morsels; "
                "speedups are relative to the plain columnar executor "
                "(the disabled path); identity covers result_fingerprint "
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
    # Fused single-worker >= 1.3x over the plain columnar executor.
    assert headline["fused_vs_columnar"] >= (1.1 if quick else 1.3), headline
    # Morsel-parallel >= 1.5x, asserted only with real parallelism.
    if outcome["usable_cpus"] > 1 and not quick:
        best_parallel = max(
            headline["thread_vs_columnar"], headline["process_vs_columnar"]
        )
        assert best_parallel >= 1.5, headline
    # Disabled path: PR 5's >= 3.0x columnar-over-row headline may not
    # degrade by more than 1.1x on the same workload.
    assert headline["row_vs_columnar"] >= (
        1.2 / 1.1 if quick else 3.0 / 1.1
    ), headline


def test_engine_morsel(benchmark, bench_config):
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
