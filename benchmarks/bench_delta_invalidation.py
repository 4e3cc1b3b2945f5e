"""BENCH_delta — invalidation cones under single-factor perturbation.

The headline claim of the :mod:`repro.delta` subsystem: perturbing one
factor of a thousands-of-node DoE sweep recomputes **under 5%** of the
nodes, with every reused node's ``result_fingerprint`` byte-identical
to the cold run, on every :mod:`repro.parallel` backend.  This
benchmark records that claim as numbers:

* ``nodes_total`` / ``nodes_recomputed`` / ``recompute_fraction`` —
  the exact cone :func:`repro.delta.plan_delta` derived (must be the
  perturbed nodes only, i.e. fraction < 0.05);
* ``cold_seconds`` vs ``plan_seconds`` + ``execute_seconds`` —
  materializing the sweep from scratch vs bringing it current after the
  perturbation (:func:`~repro.delta.plan_delta`, then
  :func:`~repro.delta.execute_plan`: everything a user waits for);
* ``speedup`` — the incremental-recomputation factor, cold over plan
  plus execute;
* ``reused_identical`` — every reused node fingerprint-matches the
  cold run (the byte-identity acceptance bar).

Each backend gets its own *copy* of the cold store, so the first delta
execution cannot warm the store for the next backend, and its own
perturbed copy of the sweep, so no row plans against run keys another
row already derived: every row measures the same perturbation against
the same baseline.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from benchmarks._util import (
    BenchConfig,
    format_table,
    save_json,
    save_report,
    timed,
)
import repro.ensemble.scenarios  # noqa: F401 — registers response.surface
from repro.delta import execute_plan, perturb, plan_delta
from repro.ensemble import Ensemble, RunStore, result_fingerprint, run_ensemble

BACKENDS = ("serial", "thread", "process")

#: Full scale: a 1000-node Latin-hypercube sweep, 10 perturbed rows.
FULL_RUNS, FULL_PERTURBED = 1000, 10
QUICK_RUNS, QUICK_PERTURBED = 60, 2


def build_sweep(runs: int) -> Ensemble:
    return Ensemble.latin_hypercube(
        "response.surface",
        factors={"x1": (0.0, 1.0), "x2": (0.0, 1.0), "x3": (0.0, 1.0)},
        runs=runs,
        seed=11,
        name="lh",
    )


def run_experiment(config: BenchConfig = BenchConfig()):
    """Cold-materialize once, then delta-run the perturbation per backend.

    Returns ``(rows, acceptance)`` where each row is ``(backend,
    nodes_total, nodes_recomputed, recompute_fraction, cold_seconds,
    plan_seconds, execute_seconds, speedup, reused_identical)`` and
    ``acceptance`` aggregates the <5%-cone and byte-identity bars across
    backends.
    """
    runs = QUICK_RUNS if config.quick else FULL_RUNS
    perturbed = QUICK_PERTURBED if config.quick else FULL_PERTURBED
    base = build_sweep(runs)
    updates = {
        f"lh/{i:03d}": {"x1": 0.123456 + i * 1e-6}
        for i in range(0, runs, runs // perturbed)
    }

    rows = []
    acceptance = {}
    with tempfile.TemporaryDirectory() as scratch:
        cold_root = Path(scratch) / "cold"
        cold_store = RunStore(cold_root)
        cold, cold_seconds = timed(
            run_ensemble, base, store=cold_store, backend=config.backend
        )
        cold.raise_if_failed()
        cold_prints = cold.fingerprints()

        for backend in BACKENDS:
            # A private copy: one backend's delta must not warm the next.
            root = Path(scratch) / backend
            shutil.copytree(cold_root, root)
            store = RunStore(root)
            target = perturb(base, params=updates, name="lh~perturbed")
            plan, plan_seconds = timed(plan_delta, target, store, base=base)
            outcome, execute_seconds = timed(
                execute_plan, plan, store, backend=backend
            )
            outcome.raise_if_failed()
            identical = all(
                result_fingerprint(outcome.result(name)) == cold_prints[name]
                for name, report in outcome.reports.items()
                if report.status == "reused"
            )
            fraction = plan.recompute_fraction
            rows.append(
                (
                    backend,
                    plan.nodes_total,
                    plan.nodes_recomputed,
                    fraction,
                    cold_seconds,
                    plan_seconds,
                    execute_seconds,
                    cold_seconds / (plan_seconds + execute_seconds),
                    identical,
                )
            )
            acceptance[backend] = bool(
                identical
                and fraction < 0.05
                and plan.nodes_recomputed == len(updates)
                and outcome.nodes_run == len(updates)
            )
    return rows, acceptance


def test_delta_invalidation(benchmark, bench_config):
    rows, acceptance = benchmark.pedantic(
        run_experiment, args=(bench_config,), rounds=1, iterations=1
    )
    headers = [
        "backend",
        "nodes_total",
        "nodes_recomputed",
        "recompute_fraction",
        "cold_seconds",
        "plan_seconds",
        "execute_seconds",
        "speedup",
        "reused_identical",
    ]
    save_report("BENCH_delta", format_table(headers, rows))
    save_json(
        "BENCH_delta",
        {
            "config": {
                "quick": bench_config.quick,
                "backend": bench_config.backend,
            },
            "columns": headers,
            "rows": [list(row) for row in rows],
            "note": (
                "cold_seconds materializes the whole Latin-hypercube "
                "sweep; plan_seconds (plan_delta) plus execute_seconds "
                "(execute_plan) bring it current after a single-factor "
                "perturbation over a copied cold store, and speedup is "
                "cold over their sum. The acceptance bar is "
                "recompute_fraction < 0.05 with every reused node "
                "fingerprint byte-identical to the cold run, per backend."
            ),
        },
    )
    # The cone must be exact and reuse byte-identical on every backend.
    assert all(acceptance.values()), acceptance
