"""The benchmark's own tests, at small sizes.

Run from the checkout root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import analytics, run, whatif  # noqa: E402
from perfbench.common import NoSpans, Spans  # noqa: E402

SMALL = {"scale": 0.05}

#: The workload-specific end-to-end names each workload prints.
PRINTED = {
    "analytics": (
        "queries_per_s", "query_p50_ms", "query_p95_ms",
        "queries_per_cpu_s", "query_cpu_p50_ms", "query_cpu_p95_ms",
    ),
    "whatif": (
        "sweep_nodes_per_s", "reload_nodes_per_s", "whatif_p50_ms", "whatif_p95_ms",
        "reload_nodes_per_cpu_s", "whatif_cpu_p50_ms", "whatif_cpu_p95_ms",
    ),
    "serve": (
        "serve_p50_ms", "serve_p95_ms", "serve_max_rps",
        "serve_req_per_cpu_s", "serve_cpu_p50_ms", "serve_cpu_p95_ms",
    ),
}
COMMON = ("setup_s", "peak_rss_mb", "failed_frac")

#: Counts that must repeat exactly across two runs with the same seed.
EXACT = (
    "engine.rows_scanned",
    "engine.join_pairs_examined",
    "engine.rows_output",
    "mcdb.worlds",
    "store.puts",
    "store.gets",
    "store.contains_calls",
    "exec.tasks",
    "delta.recompute_frac",
    "delta.loads",
)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _command(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--scale", "0.05", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _command(workload, trace)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.PER_LAYER if trace else [(n, u) for n, u, _, _ in run.END_TO_END]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(declared)
    for name in PRINTED[workload] + COMMON:
        assert any(line.startswith(f"{name} = ") and "(n=" in line for line in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_different_seed_changes_inputs_not_names():
    a, b = analytics.Inputs(1, 2, 0.05), analytics.Inputs(2, 2, 0.05)
    assert a.fact != b.fact and a.ops != b.ops
    assert sorted(a.order) == sorted(b.order)
    wa, wb = whatif.Inputs(1, 2, 0.05), whatif.Inputs(2, 2, 0.05)
    assert wa.leaf_params != wb.leaf_params
    assert sorted(k for k, _, _ in wa.cycles) == sorted(k for k, _, _ in wb.cycles)


@pytest.mark.parametrize("module", (analytics, whatif), ids=("analytics", "whatif"))
def test_counts_repeat_exactly(module):
    first = module.run(5, 2, Spans(), **SMALL)
    second = module.run(5, 2, Spans(), **SMALL)
    counted = [name for name in EXACT if name in first["layers"]]
    assert counted
    for name in counted:
        assert first["layers"][name] == second["layers"][name], name


@pytest.mark.parametrize("corrupt", list(analytics.ROUND))
def test_analytics_checks_reject_a_corrupted_answer(corrupt):
    result = analytics.run(7, 2, NoSpans(), corrupt=corrupt, **SMALL)
    bad = [check["name"] for check in result["checks"] if not check["ok"]]
    assert bad == [f"analytics.{corrupt}"]


@pytest.mark.parametrize("corrupt", ("reload", "leaf", "stage"))
def test_whatif_checks_reject_a_corrupted_answer(corrupt):
    result = whatif.run(7, 2, NoSpans(), corrupt=corrupt, **SMALL)
    bad = [check["name"] for check in result["checks"] if not check["ok"]]
    assert bad and all(corrupt in name for name in bad)


@pytest.mark.parametrize("corrupt", ("sql_unique", "mcdb"))
def test_serve_check_rejects_a_corrupted_answer(corrupt):
    out = _command("serve", 0, "--corrupt", corrupt)
    assert out.returncode == 1
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "check serve.nominal_fingerprints: WRONG" in out.stdout


def test_a_wrong_answer_exits_nonzero():
    out = _command("analytics", 0, "--corrupt", "join_copart")
    assert out.returncode == 1
    assert json.loads(out.stdout.strip().splitlines()[-1])["correct"] is False


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = _command("analytics", 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_span_self_time_and_coverage():
    spans = Spans()
    with spans.op_span(0, "op.x"):
        with spans.span("layer.a"):
            with spans.span("layer.b"):
                pass
    own = spans.self_times()
    durations = [r[2] - r[1] for r in spans.records]
    assert own[1] == pytest.approx(durations[1] - durations[2])
    assert all(r[4] == 0 for r in spans.records)
    assert 0.0 <= spans.op_coverage()[0] <= 1.0
