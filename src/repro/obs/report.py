"""``python -m repro obs-report`` — run a figure-scale experiment, dump
the trace.

The report drives one instrumented pass through the library's hot paths
— a shuffle-heavy MapReduce job (the Section 2.2 shuffle-volume claim),
MCDB naive replication vs tuple bundles (Section 2.1), the Algorithm 2
particle filter (Section 3), a calibration search, and a relational
query — then writes two artifacts:

* ``OBS_report_trace.json`` — Chrome-trace format (open in
  ``chrome://tracing`` or https://ui.perfetto.dev);
* ``OBS_report_metrics.json`` — the metrics snapshot, whose ``values``
  section is byte-identical for ``REPRO_BACKEND=serial|process``.

Every function the report fans out is module-level, so the process
backend runs the same experiment as serial instead of falling back
in-process.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.parallel.backend import get_backend

#: Default artifact directory (next to the recorded benchmark results).
DEFAULT_OUT_DIR = Path("benchmarks/results")


# -- workload pieces (module-level for process-backend picklability) --------


def _wc_mapper(_key, line):
    for word in line.split():
        yield word, 1


def _naive_query(db) -> float:
    rows = db.sql("SELECT avg(value) AS m FROM sbp")
    return float(rows[0]["m"])


def _bundled_query(bundles, _db):
    return bundles["sbp"].aggregate_avg("value")


def _quadratic(x: np.ndarray) -> float:
    return float(np.sum((x - 0.3) ** 2))


def _build_mcdb(num_rows: int, seed: int = 1):
    from repro.engine import Database
    from repro.mcdb import MonteCarloDatabase, NormalVG, RandomTableSpec

    db = Database()
    db.sql("CREATE TABLE patients (pid int)")
    for i in range(num_rows):
        db.sql(f"INSERT INTO patients VALUES ({i})")
    mcdb = MonteCarloDatabase(db, seed=seed)
    mcdb.register_random_table(
        RandomTableSpec(
            name="sbp",
            vg=NormalVG(),
            outer_table="patients",
            parameters={"mean": 120.0, "std": 10.0},
        )
    )
    return mcdb


def _run_experiment(observer, backend_name: str, quick: bool) -> None:
    """One instrumented pass over the hot paths, at figure scale."""
    from repro.assimilation import LinearGaussianSSM, particle_filter
    from repro.calibration.optimizers import random_search
    from repro.engine import Database
    from repro.mapreduce.job import MapReduceJob, sum_reducer
    from repro.mapreduce.runtime import Cluster
    from repro.stats import make_rng

    with observer.span("obs_report", backend=backend_name, quick=quick):
        # 1. Shuffle volume on the MapReduce substrate (Section 2.2).
        with observer.span("report.mapreduce"):
            vocabulary = ["grid", "model", "data", "shuffle", "solver"]
            lines = [
                (None, " ".join(vocabulary[(i + j) % len(vocabulary)]
                                for j in range(8)))
                for i in range(40 if quick else 400)
            ]
            cluster = Cluster(num_workers=4, backend=backend_name)
            job = MapReduceJob("obs-wordcount", _wc_mapper, sum_reducer)
            cluster.run(job, lines)

        # 2. MCDB: naive replication vs tuple bundles (Section 2.1).
        with observer.span("report.mcdb"):
            mcdb = _build_mcdb(20 if quick else 80)
            n_mc = 16 if quick else 120
            mcdb.run_naive(_naive_query, n_mc, backend=backend_name)
            mcdb.run_bundled(_bundled_query, n_mc, backend=backend_name)

        # 3. Algorithm 2: sharded particle filter (Section 3).
        with observer.span("report.particle_filter"):
            ssm = LinearGaussianSSM(a=0.9, q=0.5, r=0.5)
            steps = 10 if quick else 40
            _, observations = ssm.simulate(steps, make_rng(0))
            particle_filter(
                ssm.to_state_space_model(),
                observations,
                200 if quick else 2000,
                backend=backend_name,
                seed=7,
            )

        # 4. Calibration candidate evaluations (Section 3.1).
        with observer.span("report.calibration"):
            random_search(
                _quadratic,
                [(-1.0, 1.0), (-1.0, 1.0)],
                make_rng(11),
                evaluations=20 if quick else 60,
                backend=backend_name,
            )

        # 5. A relational query for the per-operator engine metrics.
        with observer.span("report.engine"):
            db = Database()
            db.sql("CREATE TABLE cells (cid int, load float)")
            for i in range(20 if quick else 100):
                db.sql(f"INSERT INTO cells VALUES ({i}, {float(i % 7)})")
            db.sql(
                "SELECT load, count(*) AS n FROM cells "
                "WHERE cid > 3 GROUP BY load ORDER BY load"
            )


def run_report(
    out_dir: Optional[Path] = None,
    backend: Optional[str] = None,
    quick: bool = False,
    echo=print,
) -> Tuple[Path, Path, Dict[str, Any]]:
    """Run the instrumented experiment and write trace + metrics.

    ``backend`` defaults to the ``REPRO_BACKEND`` environment variable
    (i.e. ``serial`` when unset), so
    ``REPRO_BACKEND=process python -m repro obs-report`` exercises the
    same experiment through the process pool.  Observability is force-
    enabled for the run regardless of ``REPRO_OBS``.

    Returns ``(trace_path, metrics_path, snapshot)``.
    """
    out_dir = Path(out_dir) if out_dir is not None else DEFAULT_OUT_DIR
    backend_name = get_backend(backend).name
    observer = obs.enable()
    observer.reset()

    _run_experiment(observer, backend_name, quick)

    snapshot = observer.metrics.snapshot()
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "OBS_report_trace.json"
    trace_path.write_text(observer.tracer.to_chrome_json() + "\n")
    metrics_path = out_dir / "OBS_report_metrics.json"
    metrics_path.write_text(
        json.dumps(
            {"backend": backend_name, "quick": quick, **snapshot},
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )

    echo(f"obs-report (backend={backend_name}, quick={quick})")
    echo("=" * 60)
    echo(observer.tracer.summary())
    echo("-" * 60)
    echo(observer.metrics.render())
    echo("-" * 60)
    echo(f"trace:   {trace_path}")
    echo(f"metrics: {metrics_path}")
    return trace_path, metrics_path, snapshot
