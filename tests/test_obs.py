"""Tests for the repro.obs observability subsystem.

Covers registry determinism across both execution backends, the no-op
disabled path, Chrome-trace export validity (JSON, sorted keys), task
bodies suppressed on every backend, and per-thread span nesting.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry, metric_key
from repro.obs.tracing import Tracer
from repro.parallel.backend import get_backend


@pytest.fixture
def observer():
    """A live observer for the duration of one test."""
    obs.disable()
    live = obs.enable()
    yield live
    obs.disable()


@pytest.fixture(autouse=True)
def _restore_disabled():
    """Every test leaves the process in the default (disabled) state."""
    yield
    obs.disable()


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_metric_key_sorts_labels(self):
        assert metric_key("m", {"b": 1, "a": "x"}) == "m{a=x,b=1}"
        assert metric_key("m", {}) == "m"

    def test_instruments_accumulate(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").add(4)
        registry.gauge("g", kind="size").set(17)
        for v in (2.0, 6.0, 4.0):
            registry.histogram("h").observe(v)
        registry.timer("t").add(0.25)
        snap = registry.snapshot()
        assert snap["values"]["counters"]["c"] == 5
        assert snap["values"]["gauges"]["g{kind=size}"] == 17
        hist = snap["values"]["histograms"]["h"]
        assert hist == {
            "count": 3, "sum": 12.0, "min": 2.0, "max": 6.0, "mean": 4.0
        }
        assert snap["timing"]["t"]["count"] == 1
        assert snap["timing"]["t"]["seconds"] == 0.25

    def test_same_key_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c", a=1) is registry.counter("c", a=1)
        assert registry.counter("c", a=1) is not registry.counter("c", a=2)

    def test_snapshot_json_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").add(2)
        text = registry.to_json()
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True, indent=2)

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.timer("t").add(1.0)
        registry.reset()
        snap = registry.snapshot()
        assert snap["values"]["counters"] == {}
        assert snap["timing"] == {}


# ---------------------------------------------------------------------------
# No-op disabled path
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_disabled_observer_is_shared_null(self):
        obs.disable()
        first = obs.get_observer()
        assert first is obs.get_observer()
        assert not first.enabled

    def test_null_instruments_and_spans_are_singletons(self):
        obs.disable()
        null = obs.get_observer()
        assert null.counter("a", x=1) is null.counter("b")
        assert null.span("a") is null.span("b", attr=2)
        with null.span("s") as span:
            span.set(anything=1)  # absorbs silently
        null.counter("c").add(10)
        null.histogram("h").observe(3.0)

    def test_disabled_run_records_nothing(self):
        obs.disable()
        from repro.mapreduce.job import MapReduceJob, sum_reducer
        from repro.mapreduce.runtime import Cluster

        job = MapReduceJob("wc", _word_mapper, sum_reducer)
        Cluster(num_workers=2).run(job, [(None, "a b a")])
        # Enabling *afterwards* starts from an empty registry: nothing
        # leaked from the disabled run.
        live = obs.enable()
        assert live.metrics.snapshot()["values"]["counters"] == {}

    def test_suppressed_wins_over_enabled(self, observer):
        with obs.suppressed():
            assert not obs.get_observer().enabled
            with obs.suppressed():
                assert not obs.get_observer().enabled
            assert not obs.get_observer().enabled
        assert obs.get_observer() is observer

    def test_env_gate(self):
        assert not obs.env_enabled({})
        assert not obs.env_enabled({"REPRO_OBS": "0"})
        assert not obs.env_enabled({"REPRO_OBS": "false"})
        assert obs.env_enabled({"REPRO_OBS": "1"})
        assert obs.env_enabled({"REPRO_OBS": "trace"})


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root", kind="outer"):
            with tracer.span("child-a"):
                pass
            with tracer.span("child-b"):
                with tracer.span("grandchild"):
                    pass
        (root,) = tracer.roots
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [c.name for c in root.children[1].children] == ["grandchild"]
        assert root.end is not None and root.duration >= 0.0

    def test_chrome_trace_is_valid_sorted_json(self):
        tracer = Tracer()
        with tracer.span("root", job="wc"):
            with tracer.span("inner"):
                pass
        text = tracer.to_chrome_json()
        document = json.loads(text)
        # Sorted keys all the way down: re-serialization is a fixpoint.
        assert text == json.dumps(document, sort_keys=True, indent=2)
        events = document["traceEvents"]
        assert [e["name"] for e in events] == ["root", "inner"]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
            assert event["ts"] >= 0.0
        assert events[0]["args"] == {"job": "wc"}

    def test_exception_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (root,) = tracer.roots
        assert root.end is not None

    def test_summary_aggregates_siblings(self):
        tracer = Tracer()
        with tracer.span("run"):
            for step in range(5):
                with tracer.span("step", step=step):
                    pass
        summary = tracer.summary()
        assert "run" in summary
        assert "calls=5" in summary


# ---------------------------------------------------------------------------
# Span nesting / suppression under the parallel backends
# ---------------------------------------------------------------------------


def _word_mapper(_key, line):
    for word in line.split():
        yield word, 1


def _task_with_spans(i: int) -> int:
    """A task body that tries to observe — must be suppressed."""
    observer = obs.get_observer()
    with observer.span("worker.task", i=i):
        observer.counter("worker.calls").inc()
    return i * i


class TestParallelIntegration:
    @pytest.mark.parametrize("backend_name", ["serial", "process"])
    def test_task_bodies_are_suppressed(self, observer, backend_name):
        with observer.span("outer"):
            results = get_backend(backend_name).map(
                _task_with_spans, list(range(6))
            )
        assert results == [i * i for i in range(6)]
        counters = observer.metrics.snapshot()["values"]["counters"]
        assert "worker.calls" not in counters
        assert counters["parallel.tasks"] == 6
        (root,) = observer.tracer.roots
        assert root.name == "outer"
        names = {s.name for s in root.walk()}
        assert "parallel.map" in names
        assert "worker.task" not in names

    def test_span_stacks_are_per_thread(self, observer):
        # Serve's worker threads open spans while the driver holds one
        # open: each thread nests under its own stack, never another's.
        def work(i):
            with observer.span("worker", i=i):
                with observer.span("inner"):
                    pass

        with observer.span("driver"):
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            with observer.span("after"):
                pass
        assert not any(thread.is_alive() for thread in threads)
        roots = observer.tracer.roots
        (driver,) = [root for root in roots if root.name == "driver"]
        assert [c.name for c in driver.children] == ["after"]
        workers = [root for root in roots if root.name == "worker"]
        assert sorted(w.attrs["i"] for w in workers) == [0, 1, 2, 3]
        assert all([c.name for c in w.children] == ["inner"] for w in workers)


# ---------------------------------------------------------------------------
# Registry determinism across backends
# ---------------------------------------------------------------------------


def _naive_query(db) -> float:
    rows = db.sql("SELECT avg(value) AS m FROM sbp")
    return float(rows[0]["m"])


def _observability_workload(backend_name: str) -> None:
    """A miniature multi-subsystem run, instrumented end to end."""
    from repro.assimilation import LinearGaussianSSM, particle_filter
    from repro.calibration.optimizers import random_search
    from repro.engine import Database
    from repro.mapreduce.job import MapReduceJob, sum_reducer
    from repro.mapreduce.runtime import Cluster
    from repro.mcdb import MonteCarloDatabase, NormalVG, RandomTableSpec
    from repro.stats import make_rng

    job = MapReduceJob("wc", _word_mapper, sum_reducer)
    Cluster(num_workers=3, backend=backend_name).run(
        job, [(None, "a b c a"), (None, "b a"), (None, "c c a b")]
    )

    db = Database()
    db.sql("CREATE TABLE patients (pid int)")
    for i in range(12):
        db.sql(f"INSERT INTO patients VALUES ({i})")
    mcdb = MonteCarloDatabase(db, seed=1)
    mcdb.register_random_table(
        RandomTableSpec(
            name="sbp",
            vg=NormalVG(),
            outer_table="patients",
            parameters={"mean": 120.0, "std": 10.0},
        )
    )
    mcdb.run_naive(_naive_query, 6, backend=backend_name)
    mcdb.instantiate_bundles(6, backend=backend_name)

    ssm = LinearGaussianSSM()
    _, observations = ssm.simulate(8, make_rng(3))
    particle_filter(
        ssm.to_state_space_model(),
        observations,
        64,
        backend=backend_name,
        seed=5,
    )

    random_search(
        _quadratic, [(-1.0, 1.0)], make_rng(9), evaluations=10,
        backend=backend_name,
    )


def _quadratic(x: np.ndarray) -> float:
    return float(np.sum((x - 0.25) ** 2))


class TestDeterminismAcrossBackends:
    def test_values_snapshot_is_byte_identical(self):
        serialized = {}
        for backend_name in ("serial", "process"):
            obs.disable()
            observer = obs.enable()
            _observability_workload(backend_name)
            serialized[backend_name] = observer.metrics.values_json()
            obs.disable()
        assert serialized["process"] == serialized["serial"]
        # Sanity: the workload actually recorded something substantial.
        values = json.loads(serialized["serial"])
        assert values["counters"]["mapreduce.shuffle_bytes"] > 0
        assert values["counters"]["assimilation.steps"] == 8
        assert values["histograms"]["assimilation.ess"]["count"] == 8
        assert (
            values["counters"][
                "calibration.evaluations{method=random_search}"
            ]
            == 10
        )


# ---------------------------------------------------------------------------
# Enabling observability never changes a result
# ---------------------------------------------------------------------------


def _wordcount():
    from repro.mapreduce.job import MapReduceJob, sum_reducer
    from repro.mapreduce.runtime import Cluster

    lines = [(None, f"alpha beta gamma w{i % 17}") for i in range(200)]
    job = MapReduceJob("obs-wc", _word_mapper, sum_reducer)
    return sorted(Cluster(num_workers=4).run(job, lines))


def _sharded_particle_filter():
    from repro.assimilation import LinearGaussianSSM, particle_filter
    from repro.stats import make_rng

    ssm = LinearGaussianSSM(a=0.9, q=0.5, r=0.5)
    _, observations = ssm.simulate(12, make_rng(0))
    result = particle_filter(
        ssm.to_state_space_model(),
        observations,
        256,
        backend="serial",
        seed=1,
        n_shards=4,
    )
    return (
        result.filtered_means.tobytes(),
        result.effective_sample_sizes.tobytes(),
        result.log_likelihood,
    )


def _engine_group_by():
    from repro.engine import Database, Schema

    db = Database()
    db.create_table("cells", Schema.of(cid=int, region=int, load=float))
    for i in range(120):
        db.table("cells").insert(
            {"cid": i, "region": i % 5, "load": float(i % 11)}
        )
    return db.sql(
        "SELECT region, avg(load) AS mean_load, count(*) AS n "
        "FROM cells WHERE cid > 2 GROUP BY region ORDER BY region"
    )


class TestOutputsUnchangedByObs:
    @pytest.mark.parametrize(
        "workload, recorded",
        [
            (_wordcount, "mapreduce.shuffle_bytes"),
            (_sharded_particle_filter, "assimilation.steps"),
            (_engine_group_by, "engine.rows_scanned"),
        ],
    )
    def test_outputs_equal_with_obs_off_and_on(self, workload, recorded):
        obs.disable()
        off = workload()
        observer = obs.enable()
        on = workload()
        assert on == off
        # The enabled path really ran: it recorded the workload.
        assert observer.metrics.snapshot()["values"]["counters"][recorded] > 0


# ---------------------------------------------------------------------------
# obs-report entry point
# ---------------------------------------------------------------------------


class TestObsReport:
    def test_obs_report_writes_valid_artifacts(self, tmp_path):
        from repro.obs.report import run_report

        trace_path, metrics_path, snapshot = run_report(
            out_dir=tmp_path, backend="serial", quick=True,
            echo=lambda *a: None,
        )
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"], "trace must contain spans"
        assert trace_path.read_text().rstrip("\n") == json.dumps(
            trace, sort_keys=True, indent=2
        )
        metrics = json.loads(metrics_path.read_text())
        assert metrics["backend"] == "serial"
        assert metrics["values"] == snapshot["values"]
        assert metrics["values"]["counters"]["mapreduce.shuffle_bytes"] > 0

    def test_cli_dispatches_obs_report(self, tmp_path):
        from repro.__main__ import main

        main(["obs-report", "--quick", "--out-dir", str(tmp_path)])
        assert (tmp_path / "OBS_report_trace.json").exists()
        assert (tmp_path / "OBS_report_metrics.json").exists()
