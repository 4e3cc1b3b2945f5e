"""CI smoke test for the benchmark harness.

Runs one benchmark's experiment body in ``--quick`` mode (small sizes)
so the tier-1 suite exercises the harness — config knobs, timing,
report/JSON persistence, commit provenance — without multi-minute runs.
The full-size runs stay behind ``pytest benchmarks/``.
"""

from __future__ import annotations

import json
import os
import subprocess

import pytest

from benchmarks._util import BenchConfig, git_commit
from benchmarks.bench_mcdb_tuple_bundles import (
    run_experiment as run_mcdb_experiment,
)

pytestmark = pytest.mark.bench_smoke

QUICK = BenchConfig(quick=True)


def test_quick_mcdb_tuple_bundles():
    rows, speedups = run_mcdb_experiment(QUICK)
    assert len(rows) == 2
    # Estimates from both paths agree on the same distribution.
    for _, naive_mean, bundled_mean, *_ in rows:
        assert abs(naive_mean - bundled_mean) < 2.0
    assert all(s > 0 for s in speedups.values())


def test_save_json_writes_self_describing_document(tmp_path, monkeypatch):
    import benchmarks._util as util

    monkeypatch.setattr(util, "RESULTS_DIR", tmp_path)
    monkeypatch.setenv("REPRO_BACKEND", "process")
    path = util.save_json("SMOKE", {"rows": [[1, 2.5]]})
    document = json.loads(path.read_text())
    assert document["experiment"] == "SMOKE"
    assert document["host"]["cpu_count"] >= 1
    assert document["rows"] == [[1, 2.5]]
    # Provenance header: producing commit + active repro env knobs.
    assert document["git_commit"]
    assert document["env"] == util.env_knobs()
    assert document["env"]["REPRO_BACKEND"] == "process"


def test_env_knobs_records_every_repro_variable(monkeypatch):
    from benchmarks._util import env_knobs

    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_BACKEND", "process")
    monkeypatch.setenv("REPRO_FAULTS", "at=serve.request:0")
    monkeypatch.setenv("NOT_REPRO_X", "1")
    assert env_knobs() == {
        "REPRO_BACKEND": "process",
        "REPRO_FAULTS": "at=serve.request:0",
    }


def _git(repo, *args):
    identity = ["-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    return subprocess.run(
        ["git", *identity, "-c", "commit.gpgsign=false", *args],
        cwd=repo,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


def test_git_commit_marks_a_tree_that_differs_from_head(tmp_path):
    results = tmp_path / "benchmarks" / "results"
    results.mkdir(parents=True)
    (tmp_path / "model.py").write_text("RATE = 1\n")
    (results / "RUN.json").write_text("{}\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    sha = _git(tmp_path, "rev-parse", "HEAD")
    assert git_commit(tmp_path) == sha
    # Results written by a run do not mark the next run's tree.
    (results / "RUN.json").write_text('{"rerun": true}\n')
    (results / "NEW.txt").write_text("new\n")
    assert git_commit(tmp_path) == sha
    # An unignored new file or an edited tracked file does.
    (tmp_path / "helper.py").write_text("")
    assert git_commit(tmp_path) == f"{sha}-dirty"
    (tmp_path / "helper.py").unlink()
    (tmp_path / "model.py").write_text("RATE = 2\n")
    assert git_commit(tmp_path) == f"{sha}-dirty"
