"""Tests for repro.parallel: backend primitives and equivalence.

The determinism contract — any backend produces byte-identical results
to serial — is exercised on a MapReduce wordcount, MCDB execution
(naive Monte Carlo worlds and tuple-bundle aggregation, with the
default ``backend=None`` going through ``Backend.map`` like any other),
and a seeded particle-filter run; plus the caching/calibration
fan-outs.

Task closures live at module level so they pickle for the process
backend.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from repro import obs
from repro.assimilation import LinearGaussianSSM, particle_filter
from repro.calibration import genetic_algorithm, nelder_mead, random_search
from repro.composite import (
    ArrivalProcessModel,
    QueueModel,
    measure_estimator_variance,
    run_with_caching,
)
from repro.delta import delta_run, perturb
from repro.engine import Database, Schema
from repro.ensemble import Ensemble, RunStore, run_ensemble
from repro.ensemble import scenarios  # noqa: F401  (registers built-ins)
from repro.errors import FilteringError, SimulationError
from repro.faults import injected
from repro.mapreduce import Cluster, JobCounters, MapReduceJob, sum_reducer
from repro.mcdb import MonteCarloDatabase, NormalVG, RandomTableSpec
from repro.parallel import (
    FaultPlan,
    ProcessBackend,
    SerialBackend,
    TaskFailed,
    available_backends,
    get_backend,
    task_seed_sequences,
)
from repro.stats import make_rng

BACKENDS = ("serial", "process")


# -- module-level (picklable) task closures ---------------------------------


def square(x):
    return x * x


def type_name(x):
    return type(x).__name__


def raise_type_error(x):
    raise TypeError(f"task-level bug on {x}")


def square_in_driver_only(item):
    """Square ``x``; a pool worker that gets the task dies instead."""
    driver_pid, x = item
    if os.getpid() != driver_pid:
        os._exit(1)
    return x * x


def wc_mapper(_, line):
    for word in line.split():
        yield word, 1


def wordcount_job(combiner=False):
    return MapReduceJob(
        "wc", wc_mapper, sum_reducer, combiner=sum_reducer if combiner else None
    )


def mc_query(instance):
    total = 0.0
    count = 0
    for row in instance.table("sbp_data"):
        total += row["sbp"]
        count += 1
    return total / count


def build_mcdb(num_rows=12):
    db = Database()
    db.create_table("patients", Schema.of(pid=int))
    for i in range(num_rows):
        db.table("patients").insert({"pid": i})
    mcdb = MonteCarloDatabase(db, seed=5)
    mcdb.register_random_table(
        RandomTableSpec(
            name="sbp_data",
            vg=NormalVG(),
            outer_table="patients",
            parameters={"mean": 120.0, "std": 10.0},
            select={"pid": "outer.pid", "sbp": "vg.value"},
        )
    )
    return mcdb


def build_two_table_mcdb():
    """``build_mcdb`` plus a second random table, so bundles fan out."""
    mcdb = build_mcdb()
    mcdb.register_random_table(
        RandomTableSpec(
            name="dbp_data",
            vg=NormalVG(),
            outer_table="patients",
            parameters={"mean": 80.0, "std": 8.0},
            select={"pid": "outer.pid", "dbp": "vg.value"},
        )
    )
    return mcdb


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


# -- backend primitives -----------------------------------------------------


class TestBackendPrimitives:
    def test_factory_names(self):
        assert available_backends() == ("process", "serial")
        for name in BACKENDS:
            assert get_backend(name).name == name

    def test_thread_backend_is_gone(self, monkeypatch):
        with pytest.raises(SimulationError, match="'process', 'serial'"):
            get_backend("thread")
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        with pytest.raises(SimulationError, match="'process', 'serial'"):
            get_backend()

    def test_factory_returns_shared_instances(self):
        assert get_backend("process") is get_backend("process")

    def test_backend_instance_passthrough(self):
        backend = SerialBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError):
            get_backend("gpu")

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert get_backend(None).name == "process"
        monkeypatch.delenv("REPRO_BACKEND")
        assert get_backend(None).name == "serial"

    @pytest.mark.parametrize("name", BACKENDS)
    def test_map_preserves_order(self, name):
        items = list(range(23))
        assert get_backend(name).map(square, items) == [square(x) for x in items]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_map_empty_and_singleton(self, name):
        backend = get_backend(name)
        assert backend.map(square, []) == []
        assert backend.map(square, [3]) == [9]

    def test_explicit_chunksize(self):
        backend = get_backend("process")
        items = list(range(10))
        assert backend.map(square, items, chunksize=3) == [
            square(x) for x in items
        ]
        with pytest.raises(SimulationError):
            backend.map(square, items, chunksize=0)

    def test_process_backend_falls_back_on_unpicklable(self):
        backend = ProcessBackend(max_workers=2)
        captured = []  # closure => unpicklable task
        with pytest.warns(RuntimeWarning, match="unpicklable"):
            out = backend.map(lambda x: captured.append(x) or x + 1, [1, 2, 3])
        assert out == [2, 3, 4]
        assert captured == [1, 2, 3]
        backend.shutdown()

    def test_process_backend_falls_back_on_unpicklable_later_payload(self):
        # The cheap up-front probe only sees items[0]; an unpicklable
        # payload deeper in the list fails pool-side (in the executor's
        # feeder machinery) and must fall back, not crash.
        import threading

        backend = ProcessBackend(max_workers=2)
        try:
            items = [1, threading.Lock(), 3.5, "text"]
            with pytest.warns(RuntimeWarning, match="unpicklable|broke"):
                out = backend.map(type_name, items)
            assert out == ["int", "lock", "float", "str"]
            # The pool must remain usable for picklable work afterwards.
            assert backend.map(square, [1, 2, 3]) == [1, 4, 9]
        finally:
            backend.shutdown()

    def test_process_backend_needs_a_worker(self):
        with pytest.raises(SimulationError, match="max_workers"):
            ProcessBackend(max_workers=0)

    def test_process_pool_starts_on_first_fan_out_and_after_shutdown(self):
        backend = ProcessBackend(max_workers=2)
        try:
            assert backend._pool is None
            assert backend.map(square, [1, 2, 3]) == [1, 4, 9]
            pool = backend._pool
            assert pool is not None
            assert backend.map(square, [4, 5]) == [16, 25]
            assert backend._pool is pool  # one pool across maps
            backend.shutdown()
            assert backend._pool is None
            assert backend.map(square, [6, 7]) == [36, 49]
            assert backend._pool not in (None, pool)
        finally:
            backend.shutdown()

    def test_process_backend_runs_a_single_task_inline(self):
        backend = ProcessBackend(max_workers=2)
        obs.disable()
        observer = obs.enable()
        try:
            assert backend.map(square, [3]) == [9]
            (span,) = observer.tracer.roots
        finally:
            obs.disable()
            backend.shutdown()
        assert span.name == "parallel.map"
        assert span.attrs["backend"] == "process"
        assert span.attrs["inline"] is True
        assert backend._pool is None  # no pool started for one task

    def test_process_backend_survives_a_dead_worker(self):
        # A worker that dies breaks the pool: the map re-runs in-process
        # with the same answers, and the next map starts a fresh pool.
        backend = ProcessBackend(max_workers=2)
        try:
            items = [(os.getpid(), x) for x in range(6)]
            with pytest.warns(RuntimeWarning, match="pool broke"):
                out = backend.map(square_in_driver_only, items)
            assert out == [x * x for x in range(6)]
            assert backend._pool is None
            assert backend.map(square, [1, 2, 3]) == [1, 4, 9]
        finally:
            backend.shutdown()

    def test_process_backend_worker_errors_still_propagate(self):
        # A task that genuinely raises a pickling-family exception is a
        # task bug, not a submission failure — it must not be silently
        # retried in-process.
        backend = ProcessBackend(max_workers=2)
        try:
            with pytest.raises(TypeError, match="task-level"):
                backend.map(raise_type_error, range(8))
            assert backend.map(square, [1, 2, 3]) == [1, 4, 9]
        finally:
            backend.shutdown()

    def test_task_seed_sequences_deterministic_and_independent(self):
        a = task_seed_sequences(42, "mc", 4)
        b = task_seed_sequences(42, "mc", 4)
        draws_a = [np.random.default_rng(s).uniform() for s in a]
        draws_b = [np.random.default_rng(s).uniform() for s in b]
        assert draws_a == draws_b
        assert len(set(draws_a)) == 4
        other = task_seed_sequences(42, "other", 4)
        assert np.random.default_rng(other[0]).uniform() != draws_a[0]

    def test_task_seed_sequences_picklable(self):
        import pickle

        seqs = task_seed_sequences(7, "ship", 3)
        clones = pickle.loads(pickle.dumps(seqs))
        for seq, clone in zip(seqs, clones):
            assert (
                np.random.default_rng(seq).uniform()
                == np.random.default_rng(clone).uniform()
            )


# -- workload equivalence ---------------------------------------------------


class TestMapReduceEquivalence:
    @pytest.fixture(scope="class")
    def serial_run(self):
        inputs = [(None, f"w{i % 7} w{i % 3} common") for i in range(60)]
        counters = JobCounters()
        output = Cluster(num_workers=4, backend="serial").run(
            wordcount_job(combiner=True), inputs, counters
        )
        return inputs, output, counters

    @pytest.mark.parametrize("name", BACKENDS)
    def test_wordcount_identical(self, name, serial_run):
        inputs, expected_output, expected_counters = serial_run
        counters = JobCounters()
        output = Cluster(num_workers=4, backend=name).run(
            wordcount_job(combiner=True), inputs, counters
        )
        assert output == expected_output
        assert counters == expected_counters

    @pytest.mark.parametrize("name", BACKENDS)
    def test_num_reducers_override_does_not_mutate_job(self, name):
        job = wordcount_job()
        inputs = [(None, f"w{i % 5}") for i in range(30)]
        cluster = Cluster(2, backend=name)
        a = dict(cluster.run(job, inputs))
        b = dict(cluster.run(job, inputs, num_reducers=7))
        assert a == b
        assert job.num_reducers == 4
        with pytest.raises(SimulationError):
            cluster.run(job, inputs, num_reducers=0)

    def test_run_chain_returns_list_without_rematerializing(self):
        cluster = Cluster(2)
        out, counters = cluster.run_chain(
            [wordcount_job()], iter([(None, "a a b")])
        )
        assert isinstance(out, list)
        assert dict(out) == {"a": 2, "b": 1}
        assert counters.records_read == 1


class TestMcdbEquivalence:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_naive_samples_byte_identical(self, name):
        expected = build_mcdb().run_naive(mc_query, 8, backend="serial").samples
        got = build_mcdb().run_naive(mc_query, 8, backend=name).samples
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_bundled_aggregation_byte_identical(self, name):
        def agg(bundles, _db):
            return bundles["sbp_data"].aggregate_avg("sbp")

        expected = build_mcdb().run_bundled(agg, 16, backend="serial").samples
        # The bundle query closure stays in the driver; only per-table
        # instantiation fans out, so even unpicklable queries are fine.
        got = build_mcdb().run_bundled(agg, 16, backend=name).samples
        np.testing.assert_array_equal(got, expected)


def sql_query(instance):
    return float(instance.sql("SELECT avg(sbp) AS m FROM sbp_data")[0]["m"])


def avg_bundle(bundles, _db):
    return bundles["sbp_data"].aggregate_avg("sbp")


def obs_values(run):
    """``run()``'s result and the obs ``values`` JSON it recorded."""
    obs.disable()
    observer = obs.enable()
    try:
        result = run()
        return result, observer.metrics.values_json()
    finally:
        obs.disable()


class TestMcdbDefaultBackend:
    """``backend=None`` runs through ``Backend.map`` like any backend."""

    def test_naive_default_records_what_serial_records(self):
        default, values = obs_values(
            lambda: build_mcdb().run_naive(sql_query, 6).samples
        )
        serial, serial_values = obs_values(
            lambda: build_mcdb().run_naive(sql_query, 6, backend="serial").samples
        )
        np.testing.assert_array_equal(default, serial)
        assert values == serial_values
        counters = json.loads(values)["counters"]
        assert counters["parallel.tasks"] == 6
        assert not any(key.startswith("engine.") for key in counters)

    def test_bundle_default_records_what_serial_records(self):
        default, values = obs_values(lambda: build_mcdb().instantiate_bundles(6))
        serial, serial_values = obs_values(
            lambda: build_mcdb().instantiate_bundles(6, backend="serial")
        )
        assert values == serial_values
        assert json.loads(values)["counters"]["parallel.tasks"] == 1
        np.testing.assert_array_equal(
            default["sbp_data"].aggregate_sum("sbp"),
            serial["sbp_data"].aggregate_sum("sbp"),
        )

    @pytest.mark.parametrize(
        "scope, run",
        [
            ("mcdb.naive", lambda mcdb, **kw: mcdb.run_naive(mc_query, 8, **kw)),
            ("mcdb.bundle", lambda mcdb, **kw: mcdb.run_bundled(avg_bundle, 8, **kw)),
        ],
        ids=["naive", "bundle"],
    )
    def test_default_path_takes_the_fault_plan(self, scope, run):
        clean = run(build_mcdb(), backend="serial").samples
        with injected(FaultPlan(failures={(scope, 0): 1})):
            recovered, values = obs_values(lambda: run(build_mcdb()).samples)
        np.testing.assert_array_equal(recovered, clean)
        counters = json.loads(values)["counters"]
        assert counters["faults.injected"] == 1
        assert counters["faults.tasks_retried"] == 1
        with injected(FaultPlan(failures={(scope, 0): 9})):
            with pytest.raises(TaskFailed) as excinfo:
                run(build_mcdb())
        assert (excinfo.value.scope, excinfo.value.index) == (scope, 0)



def avg_two_bundles(bundles, _db):
    return bundles["sbp_data"].aggregate_avg("sbp") + bundles[
        "dbp_data"
    ].aggregate_avg("dbp")


def naive_fan_out(_workdir):
    return lambda **kw: build_mcdb().run_naive(mc_query, 8, **kw).samples.tolist()


def bundle_fan_out(_workdir):
    return lambda **kw: build_two_table_mcdb().run_bundled(
        avg_two_bundles, 8, **kw
    ).samples.tolist()


def mapreduce_fan_out(_workdir):
    inputs = [(None, f"w{i % 7} w{i % 3} common") for i in range(40)]
    return lambda **kw: Cluster(2, **kw).run(wordcount_job(), inputs)


def sweep(runs=6):
    return Ensemble.latin_hypercube(
        "response.surface",
        factors={"x1": (0.0, 1.0), "x2": (0.0, 1.0)},
        runs=runs,
        seed=3,
        name="sweep",
    )


def ensemble_fan_out(_workdir):
    return lambda **kw: run_ensemble(sweep(), **kw).fingerprints()


def delta_fan_out(workdir):
    base = sweep()
    store = RunStore(workdir)
    with injected(None):
        run_ensemble(base, store=store, backend="serial").raise_if_failed()
    target = perturb(
        base, params={"sweep/001": {"x1": 0.9}, "sweep/004": {"x1": 0.1}}
    )

    def run(**kw):
        outcome = delta_run(target, store, base=base, **kw)
        outcome.raise_if_failed()
        assert outcome.nodes_run == 2
        return outcome.fingerprints()

    return run


#: Every fan-out whose ``backend=None`` resolves through ``get_backend``.
#: Each factory sets up in a work directory and returns ``run(**kw)``;
#: every one of them fans more than one task out.
DEFAULT_FAN_OUTS = {
    "naive": naive_fan_out,
    "bundle": bundle_fan_out,
    "mapreduce": mapreduce_fan_out,
    "ensemble": ensemble_fan_out,
    "delta": delta_fan_out,
}


class TestDefaultFanOut:
    """``backend=None`` means ``REPRO_BACKEND``, else serial, everywhere."""

    @pytest.mark.parametrize("entry", sorted(DEFAULT_FAN_OUTS))
    def test_default_follows_repro_backend(self, entry, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        expected = DEFAULT_FAN_OUTS[entry](tmp_path / "serial")(backend="serial")
        run = DEFAULT_FAN_OUTS[entry](tmp_path / "default")
        monkeypatch.setenv("REPRO_BACKEND", "process")
        obs.disable()
        observer = obs.enable()
        try:
            got = run()
            maps = [
                span
                for root in observer.tracer.roots
                for span in root.walk()
                if span.name == "parallel.map"
            ]
        finally:
            obs.disable()
        assert maps
        assert {span.attrs["backend"] for span in maps} == {"process"}
        assert not any("inline" in span.attrs for span in maps)
        assert got == expected

    @pytest.mark.parametrize("entry", sorted(DEFAULT_FAN_OUTS))
    def test_removed_backend_name_is_refused(self, entry, tmp_path, monkeypatch):
        run = DEFAULT_FAN_OUTS[entry](tmp_path)
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        with pytest.raises(SimulationError, match="'process', 'serial'"):
            run()


@pytest.mark.parametrize(
    "command",
    [["obs-report"], ["ensemble", "run"], ["delta", "plan"], ["serve"]],
    ids=" ".join,
)
def test_backend_help_names_every_backend(command, capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--help"])
    assert excinfo.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    # The last mention is the option's own line (the first, the usage).
    help_text = text.rsplit("--backend BACKEND", 1)[1].split("(default", 1)[0]
    named = set(re.findall(r"\w+", help_text.split(":", 1)[1])) - {"or"}
    assert named == set(available_backends())


class TestParticleFilterEquivalence:
    @pytest.fixture(scope="class")
    def setting(self):
        ssm = LinearGaussianSSM(a=0.9, q=0.5, r=0.5)
        _, observations = ssm.simulate(12, make_rng(0))
        return ssm.to_state_space_model(), ssm, observations

    @pytest.mark.parametrize("name", BACKENDS)
    def test_bootstrap_filter_byte_identical(self, name, setting):
        model, _, observations = setting
        expected = particle_filter(
            model, observations, 64, backend="serial", seed=9
        )
        got = particle_filter(model, observations, 64, backend=name, seed=9)
        np.testing.assert_array_equal(
            got.filtered_means, expected.filtered_means
        )
        np.testing.assert_array_equal(
            got.final_particles, expected.final_particles
        )
        assert got.log_likelihood == expected.log_likelihood

    @pytest.mark.parametrize("name", BACKENDS)
    def test_optimal_proposal_byte_identical(self, name, setting):
        model, ssm, observations = setting
        expected = particle_filter(
            model,
            observations,
            32,
            backend="serial",
            seed=4,
            proposal=ssm.optimal_proposal(),
        )
        got = particle_filter(
            model,
            observations,
            32,
            backend=name,
            seed=4,
            proposal=ssm.optimal_proposal(),
        )
        np.testing.assert_array_equal(
            got.filtered_means, expected.filtered_means
        )

    def test_parallel_mode_requires_seed(self, setting):
        model, _, observations = setting
        with pytest.raises(FilteringError):
            particle_filter(model, observations, 16, backend="serial")

    def test_legacy_mode_requires_rng(self, setting):
        model, _, observations = setting
        with pytest.raises(FilteringError):
            particle_filter(model, observations, 16)

    def test_shard_count_changes_draws_but_not_validity(self, setting):
        # n_shards is part of the determinism contract: same seed, same
        # shards => same result; different shard layout => different draws.
        model, _, observations = setting
        a = particle_filter(
            model, observations, 64, backend="serial", seed=9, n_shards=4
        )
        b = particle_filter(
            model, observations, 64, backend="process", seed=9, n_shards=4
        )
        np.testing.assert_array_equal(a.filtered_means, b.filtered_means)


class TestCompositeEquivalence:
    @pytest.fixture(scope="class")
    def models(self):
        return (
            ArrivalProcessModel("m1", cost=2.0),
            QueueModel("m2", cost=0.5),
        )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_run_with_caching_backend_invariant(self, name, models):
        m1, m2 = models
        expected = run_with_caching(
            m1, m2, n=20, alpha=0.25, rng=None, backend="serial", seed=11
        )
        got = run_with_caching(
            m1, m2, n=20, alpha=0.25, rng=None, backend=name, seed=11
        )
        np.testing.assert_array_equal(got.samples, expected.samples)
        assert got.m1_runs == expected.m1_runs

    @pytest.mark.parametrize("name", BACKENDS)
    def test_measure_estimator_variance_matches_legacy(self, name, models):
        m1, m2 = models
        legacy = measure_estimator_variance(
            m1, m2, budget=60.0, alpha=0.5, replications=4, seed=3
        )
        parallel = measure_estimator_variance(
            m1, m2, budget=60.0, alpha=0.5, replications=4, seed=3,
            backend=name,
        )
        assert parallel == legacy

    def test_parallel_caching_requires_seed(self, models):
        m1, m2 = models
        with pytest.raises(SimulationError):
            run_with_caching(m1, m2, n=10, alpha=0.5, rng=None, backend="serial")


class TestOptimizerEquivalence:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_nelder_mead_backend_invariant(self, name):
        baseline = nelder_mead(sphere, [1.0, -2.0, 0.5])
        result = nelder_mead(sphere, [1.0, -2.0, 0.5], backend=name)
        np.testing.assert_array_equal(result.x, baseline.x)
        assert result.value == baseline.value
        assert result.evaluations == baseline.evaluations

    @pytest.mark.parametrize("name", BACKENDS)
    def test_genetic_algorithm_backend_invariant(self, name):
        bounds = [(-3.0, 3.0)] * 2
        baseline = genetic_algorithm(
            sphere, bounds, make_rng(5), population_size=10, generations=5
        )
        result = genetic_algorithm(
            sphere, bounds, make_rng(5), population_size=10, generations=5,
            backend=name,
        )
        np.testing.assert_array_equal(result.x, baseline.x)
        assert result.value == baseline.value
        assert result.evaluations == baseline.evaluations

    @pytest.mark.parametrize("name", BACKENDS)
    def test_random_search_backend_invariant(self, name):
        bounds = [(-1.0, 1.0)] * 3
        baseline = random_search(sphere, bounds, make_rng(2), evaluations=40)
        result = random_search(
            sphere, bounds, make_rng(2), evaluations=40, backend=name
        )
        np.testing.assert_array_equal(result.x, baseline.x)
        assert result.value == baseline.value
