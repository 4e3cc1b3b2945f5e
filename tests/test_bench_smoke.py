"""CI smoke test for the benchmark harness.

Runs two benchmarks' experiment bodies in ``--quick`` mode (small sizes,
serial backend) so the tier-1 suite exercises the harness — config
knobs, timing, report/JSON persistence — without multi-minute runs.
The full-size runs stay behind ``pytest benchmarks/``.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks._util import RESULTS_DIR, BenchConfig
from benchmarks.bench_engine_columnar import (
    run_experiment as run_columnar_experiment,
)
from benchmarks.bench_ensemble_reuse import (
    run_experiment as run_ensemble_experiment,
)
from benchmarks.bench_fault_overhead import (
    run_experiment as run_fault_experiment,
)
from benchmarks.bench_mcdb_tuple_bundles import (
    run_experiment as run_mcdb_experiment,
)
from benchmarks.bench_parallel_backends import (
    run_experiment as run_parallel_experiment,
)
from benchmarks.bench_delta_invalidation import (
    run_experiment as run_delta_experiment,
)
from benchmarks.bench_serve import run_experiment as run_serve_experiment

pytestmark = pytest.mark.bench_smoke

QUICK = BenchConfig(quick=True, backend="serial")


def test_quick_mcdb_tuple_bundles():
    rows, speedups = run_mcdb_experiment(QUICK)
    assert len(rows) == 2
    # Estimates from both paths agree on the same distribution.
    for _, naive_mean, bundled_mean, *_ in rows:
        assert abs(naive_mean - bundled_mean) < 2.0
    assert all(s > 0 for s in speedups.values())


def test_quick_engine_columnar():
    rows, speedups, identical = run_columnar_experiment(QUICK)
    # Three workloads, all byte-identical across executors.
    assert len(rows) == 3
    assert all(identical.values())
    assert all(s > 0 for s in speedups.values())


def test_quick_parallel_backends():
    rows, identical = run_parallel_experiment(QUICK)
    # Two workloads x three backends, all byte-identical to serial.
    assert len(rows) == 6
    assert all(identical.values())


def test_quick_fault_overhead():
    rows, identical = run_fault_experiment(QUICK)
    # Two workloads, each byte-identical with recovery on and off.
    assert len(rows) == 2
    assert all(identical.values())


def test_quick_ensemble_reuse():
    rows, reuse_ok = run_ensemble_experiment(QUICK)
    # Two ensemble families; warm reruns execute zero nodes.
    assert len(rows) == 2
    assert all(row[-1] == 0 for row in rows)
    assert all(reuse_ok.values())


def test_quick_serve():
    rows, dedupe, shed = run_serve_experiment(QUICK)
    # Three workloads; identical concurrent requests cost exactly one
    # execution with byte-identical responses, and a burst against a
    # tiny server resolves every request (answered or explicitly shed).
    assert len(rows) == 3
    assert dedupe["executions"] == 1
    assert dedupe["byte_identical"]
    assert dedupe["dedupe_ratio"] > 0
    assert shed["all_resolved"]


def test_bench_config_env_roundtrip(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
    monkeypatch.setenv("REPRO_BENCH_BACKEND", "thread")
    config = BenchConfig.from_env()
    assert config.quick and config.backend == "thread"


def test_save_json_writes_self_describing_document(tmp_path, monkeypatch):
    import benchmarks._util as util

    monkeypatch.setattr(util, "RESULTS_DIR", tmp_path)
    monkeypatch.setenv("REPRO_BACKEND", "thread")
    path = util.save_json("SMOKE", {"rows": [[1, 2.5]]})
    document = json.loads(path.read_text())
    assert document["experiment"] == "SMOKE"
    assert document["host"]["cpu_count"] >= 1
    assert document["rows"] == [[1, 2.5]]
    # Provenance header: producing commit + active repro env knobs.
    assert document["git_commit"]
    assert document["env"] == util.env_knobs()
    assert document["env"]["REPRO_BACKEND"] == "thread"


def test_env_knobs_records_every_repro_variable(monkeypatch):
    from benchmarks._util import env_knobs

    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_BACKEND", "thread")
    monkeypatch.setenv("REPRO_ENGINE_EXECUTION", "row")
    monkeypatch.setenv("NOT_REPRO_X", "1")
    assert env_knobs() == {
        "REPRO_BACKEND": "thread",
        "REPRO_ENGINE_EXECUTION": "row",
    }


def test_quick_delta_invalidation():
    rows, acceptance = run_delta_experiment(QUICK)
    # Three backends, each recomputing exactly the perturbed cone with
    # byte-identical reuse against its own copy of the cold store.
    assert len(rows) == 3
    assert all(acceptance.values()), acceptance
    payload = json.loads((RESULTS_DIR / "BENCH_delta.json").read_text())
    fraction_column = payload["columns"].index("recompute_fraction")
    assert all(row[fraction_column] < 0.05 for row in payload["rows"])
