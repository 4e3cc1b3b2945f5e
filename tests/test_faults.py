"""Tests for repro.faults: deterministic injection, retry, recovery.

The acceptance surface of the fault-injection ISSUE: a seeded
:class:`FaultPlan` replays the same failure scenario on every backend; a
retried task re-runs its original payload, so recovered runs are
byte-identical — results *and* ``values`` metrics — to failure-free
ones; exhausted retries surface :class:`TaskFailed` with the full
attempt history (across process-pool pipes included); and the mapreduce
chain checkpointing resumes mid-chain after a crash.

Task closures live at module level so they pickle for the process
backend.
"""

from __future__ import annotations

import json
import pickle
import time

import numpy as np
import pytest

from repro import obs
from repro.assimilation import LinearGaussianSSM, particle_filter
from repro.errors import (
    FaultError,
    FilteringError,
    ReproError,
    SimulationError,
)
from repro.faults import (
    DEFAULT_CHAOS_RATE,
    AttemptRecord,
    FaultPlan,
    InjectedFault,
    InjectedHang,
    RetryPolicy,
    RetryStats,
    TaskFailed,
    TaskTimeout,
    get_fault_plan,
    injected,
    parse_plan,
    plan_from_env,
    run_with_retry,
    set_fault_plan,
)
from repro.mapreduce import (
    ChainCheckpoint,
    Cluster,
    JobCounters,
    MapReduceJob,
    sum_reducer,
)
from repro.parallel.backend import get_backend
from repro.stats import make_rng

BACKENDS = ("serial", "process")


# -- module-level (picklable) task closures ---------------------------------


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.2)
    return x * x


def wc_mapper(_, line):
    for word in line.split():
        yield word, 1


def wordcount_job(name="wc", num_reducers=4):
    return MapReduceJob(name, wc_mapper, sum_reducer, num_reducers=num_reducers)


WC_INPUTS = [(None, f"w{i % 7} w{i % 3} common") for i in range(40)]


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    """Tests control the plan explicitly; none may leak between tests."""
    previous = get_fault_plan()
    set_fault_plan(None)
    yield
    set_fault_plan(previous)


# ---------------------------------------------------------------------------
# FaultPlan: deterministic decisions, parsing, installation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_explicit_failures_fail_leading_attempts(self):
        plan = FaultPlan(failures={("parallel", 3): 2})
        assert plan.should_fail("parallel", 3, 0)
        assert plan.should_fail("parallel", 3, 1)
        assert not plan.should_fail("parallel", 3, 2)
        assert not plan.should_fail("parallel", 4, 0)
        assert not plan.should_fail("other", 3, 0)

    def test_rate_selection_is_a_pure_function(self):
        plan = FaultPlan(seed=7, rate=0.3)
        decisions = [plan.should_fail("s", i, 0) for i in range(200)]
        # Replayable: same plan, same decisions, any query order.
        again = [
            plan.should_fail("s", i, 0) for i in reversed(range(200))
        ][::-1]
        assert decisions == again
        # Roughly rate-proportional and seed-dependent.
        assert 20 < sum(decisions) < 100
        other = FaultPlan(seed=8, rate=0.3)
        assert decisions != [other.should_fail("s", i, 0) for i in range(200)]

    def test_scope_restriction(self):
        plan = FaultPlan(rate=1.0, scopes=("mapreduce.map",))
        assert plan.should_fail("mapreduce.map", 0, 0)
        assert not plan.should_fail("pf.shard", 0, 0)

    def test_fire_raises_injected_fault(self):
        plan = FaultPlan(failures={("s", 0): 1})
        with pytest.raises(InjectedFault) as excinfo:
            plan.fire("s", 0, 0)
        assert excinfo.value.index == 0
        plan.fire("s", 0, 1)  # second attempt passes

    def test_hang_kind_sleeps_then_raises(self):
        plan = FaultPlan(failures={("s", 0): 1}, kind="hang", hang_seconds=0.01)
        start = time.perf_counter()
        with pytest.raises(InjectedHang):
            plan.fire("s", 0, 0)
        assert time.perf_counter() - start >= 0.01

    def test_injected_errors_pickle_round_trip(self):
        for exc in (
            InjectedFault("s", 1, 0),
            InjectedHang("s", 2, 1, 0.5),
        ):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert (clone.scope, clone.index, clone.attempt) == (
                exc.scope, exc.index, exc.attempt,
            )

    def test_validation(self):
        with pytest.raises(FaultError):
            FaultPlan(rate=1.5)
        with pytest.raises(FaultError):
            FaultPlan(kind="explode")
        with pytest.raises(FaultError):
            FaultPlan(fail_attempts=0)
        with pytest.raises(FaultError):
            FaultPlan(failures={("s", 0): 0})
        assert issubclass(FaultError, ReproError)

    def test_describe_mentions_selection(self):
        text = FaultPlan(
            rate=0.5, failures={("mapreduce.map", 3): 2}
        ).describe()
        assert "rate=0.5" in text
        assert "mapreduce.map:3:2" in text


class TestPlanParsing:
    @pytest.mark.parametrize("spec", ["", "0", "off", "false", "no"])
    def test_falsey_disables(self, spec):
        assert parse_plan(spec) is None

    @pytest.mark.parametrize("spec", ["1", "on", "true", "yes"])
    def test_bare_truthy_enables_chaos_rate(self, spec):
        plan = parse_plan(spec)
        assert plan is not None
        assert plan.rate == DEFAULT_CHAOS_RATE

    def test_full_spec(self):
        plan = parse_plan(
            "seed=9,rate=0.25,scopes=mapreduce.map|pf.shard,"
            "attempts=2,kind=hang,hang=0.5"
        )
        assert plan.seed == 9
        assert plan.rate == 0.25
        assert plan.scopes == ("mapreduce.map", "pf.shard")
        assert plan.fail_attempts == 2
        assert plan.kind == "hang"
        assert plan.hang_seconds == 0.5

    def test_at_spec_with_and_without_counts(self):
        plan = parse_plan("at=mapreduce.map:3|pf.shard:0:2")
        assert plan.failures == {
            ("mapreduce.map", 3): 1,
            ("pf.shard", 0): 2,
        }

    def test_unknown_key_and_malformed_values_raise(self):
        with pytest.raises(FaultError):
            parse_plan("explode=1")
        with pytest.raises(FaultError):
            parse_plan("rate=lots")
        with pytest.raises(FaultError):
            parse_plan("at=noindex")

    def test_plan_from_env(self):
        assert plan_from_env({}) is None
        assert plan_from_env({"REPRO_FAULTS": "0"}) is None
        plan = plan_from_env({"REPRO_FAULTS": "rate=0.1,seed=3"})
        assert plan.rate == 0.1 and plan.seed == 3

    def test_injected_context_installs_and_restores(self):
        plan = FaultPlan(rate=0.5)
        assert get_fault_plan() is None
        with injected(plan):
            assert get_fault_plan() is plan
        assert get_fault_plan() is None


# ---------------------------------------------------------------------------
# RetryPolicy + run_with_retry
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_capped_exponential_backoff(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.3
        )
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.2)
        assert policy.backoff_seconds(3) == pytest.approx(0.3)
        assert policy.backoff_seconds(4) == pytest.approx(0.3)

    def test_zero_base_disables_sleeping(self):
        assert RetryPolicy().backoff_seconds(5) == 0.0

    def test_validation(self):
        with pytest.raises(FaultError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(FaultError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(FaultError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(FaultError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(FaultError):
            RetryPolicy().backoff_seconds(0)


class TestRunWithRetry:
    def test_flaky_task_recovers_with_stats(self):
        plan = FaultPlan(failures={("s", 4): 1})
        stats = RetryStats()
        result = run_with_retry(
            square, 4, scope="s", index=4,
            policy=RetryPolicy(), plan=plan, stats=stats,
        )
        assert result == 16
        assert stats.attempts == 2
        assert stats.retries == 1
        assert stats.tasks_retried == 1
        assert stats.injected == 1
        assert stats.tasks_failed == 0

    def test_exhausted_attempts_raise_task_failed_with_history(self):
        plan = FaultPlan(failures={("s", 0): 9})
        stats = RetryStats()
        with pytest.raises(TaskFailed) as excinfo:
            run_with_retry(
                square, 0, scope="s", index=0,
                policy=RetryPolicy(max_attempts=3), plan=plan, stats=stats,
            )
        failure = excinfo.value
        assert failure.scope == "s" and failure.index == 0
        assert len(failure.attempts) == 3
        assert all(
            record.error_type == "InjectedFault"
            for record in failure.attempts
        )
        assert [record.attempt for record in failure.attempts] == [0, 1, 2]
        assert isinstance(failure.__cause__, InjectedFault)
        assert "attempt 2: InjectedFault" in failure.history()
        assert stats.tasks_failed == 1
        assert stats.attempts == 3

    def test_planned_backoff_is_accounted_not_slept_when_zero(self):
        plan = FaultPlan(failures={("s", 0): 2})
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.1, backoff_factor=2.0,
            backoff_cap=10.0,
        )
        stats = RetryStats()
        start = time.perf_counter()
        run_with_retry(
            square, 0, scope="s", index=0,
            policy=policy, plan=plan, stats=stats,
        )
        assert time.perf_counter() - start >= 0.3  # 0.1 + 0.2 slept
        assert stats.backoff_seconds == pytest.approx(0.3)

    def test_timeout_converts_hang_to_task_timeout(self):
        plan = FaultPlan(
            failures={("s", 0): 1}, kind="hang", hang_seconds=5.0
        )
        policy = RetryPolicy(max_attempts=1, timeout=0.05)
        start = time.perf_counter()
        with pytest.raises(TaskFailed) as excinfo:
            run_with_retry(square, 0, scope="s", index=0,
                           policy=policy, plan=plan)
        assert time.perf_counter() - start < 2.0  # did not wait the 5s
        assert excinfo.value.attempts[0].error_type == "TaskTimeout"

    def test_timeout_applies_to_slow_tasks_without_plan(self):
        policy = RetryPolicy(max_attempts=1, timeout=0.02)
        with pytest.raises(TaskFailed) as excinfo:
            run_with_retry(slow_square, 3, scope="s", index=0, policy=policy)
        assert excinfo.value.attempts[0].error_type == "TaskTimeout"

    def test_task_timeout_pickles(self):
        exc = TaskTimeout("s", 2, 1, 0.5)
        clone = pickle.loads(pickle.dumps(exc))
        assert (clone.scope, clone.index, clone.attempt, clone.timeout) == (
            "s", 2, 1, 0.5,
        )

    def test_task_failed_pickles_with_history(self):
        failure = TaskFailed(
            "s", 3, (AttemptRecord(0, "ValueError", "boom", 0.01),)
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.attempts == failure.attempts
        assert clone.scope == "s" and clone.index == 3

    def test_non_retryable_errors_propagate_raw(self):
        def bad(_):
            raise KeyError("not retryable")

        policy = RetryPolicy(retryable=(ValueError,))
        with pytest.raises(KeyError):
            run_with_retry(bad, 0, scope="s", index=0, policy=policy)

    def test_untimed_hang_cannot_deadlock(self):
        # kind="hang" sleeps then *raises*, so even without a timeout the
        # retry loop proceeds.
        plan = FaultPlan(
            failures={("s", 0): 1}, kind="hang", hang_seconds=0.01
        )
        assert run_with_retry(
            square, 0, scope="s", index=0, policy=RetryPolicy(), plan=plan
        ) == 0


# ---------------------------------------------------------------------------
# Backend-level recovery: determinism under retry
# ---------------------------------------------------------------------------


class TestBackendRecovery:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_flaky_map_is_byte_identical(self, name):
        plan = FaultPlan(failures={("parallel", 2): 1, ("parallel", 7): 2})
        backend = get_backend(name)
        clean = backend.map(square, range(12))
        results, stats = backend.map_with_stats(
            square, range(12), faults=plan
        )
        assert results == clean
        assert stats.tasks_retried == 2
        assert stats.retries == 3
        assert stats.injected == 3
        assert stats.tasks_failed == 0

    def test_retry_stats_identical_across_backends(self):
        plan = FaultPlan(seed=5, rate=0.2)
        reference = None
        for name in BACKENDS:
            _, stats = get_backend(name).map_with_stats(
                square, range(30), faults=plan
            )
            if reference is None:
                reference = stats
            else:
                assert stats == reference
        assert reference.tasks_retried > 0

    @pytest.mark.parametrize("name", BACKENDS)
    def test_exhausted_retries_surface_task_failed(self, name):
        plan = FaultPlan(failures={("parallel", 5): 9})
        with pytest.raises(TaskFailed) as excinfo:
            get_backend(name).map(square, range(12), faults=plan)
        failure = excinfo.value
        assert failure.index == 5
        assert len(failure.attempts) == 3  # default policy, pipe-crossed
        assert failure.attempts[0].error_type == "InjectedFault"

    @pytest.mark.parametrize("name", BACKENDS)
    def test_on_error_collect_substitutes_markers(self, name):
        plan = FaultPlan(failures={("parallel", 1): 9})
        results = get_backend(name).map(
            square, range(4), faults=plan, on_error="collect"
        )
        assert results[0] == 0 and results[2] == 4 and results[3] == 9
        assert isinstance(results[1], TaskFailed)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_items_short_circuit(self, name):
        results, stats = get_backend(name).map_with_stats(
            square, [], faults=FaultPlan(rate=1.0)
        )
        assert results == []
        assert stats == RetryStats()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_explicit_retry_policy_without_plan_survives_real_flake(
        self, name
    ):
        # A real (non-injected) failure on attempt 1 that succeeds on
        # attempt 2 yields results identical to a failure-free run.
        policy = RetryPolicy(max_attempts=2)
        plan = FaultPlan(failures={("parallel", 0): 1})
        backend = get_backend(name)
        results, stats = backend.map_with_stats(
            square, range(6), retry=policy, faults=plan
        )
        assert results == [square(x) for x in range(6)]
        assert stats.tasks_retried == 1

    def test_ambient_plan_via_set_fault_plan(self):
        set_fault_plan(FaultPlan(failures={("parallel", 1): 1}))
        results, stats = get_backend("serial").map_with_stats(
            square, range(4)
        )
        assert results == [0, 1, 4, 9]
        assert stats.tasks_retried == 1

    def test_values_metrics_identical_and_faults_visible(self):
        plan = FaultPlan(failures={("parallel", 3): 1})
        serialized = {}
        for name in BACKENDS:
            obs.disable()
            observer = obs.enable()
            get_backend(name).map(square, range(16), faults=plan)
            serialized[name] = observer.metrics.values_json()
            obs.disable()
        assert serialized["process"] == serialized["serial"]
        values = json.loads(serialized["serial"])
        assert values["counters"]["faults.tasks_retried"] == 1
        assert values["counters"]["faults.injected"] == 1
        assert values["counters"]["faults.retries"] == 1

    @pytest.mark.parametrize(
        "failures",
        (
            {("parallel", 5): 9},
            {("parallel", 0): 9},
            {("parallel", 11): 9, ("parallel", 2): 1},
            {("parallel", 3): 2, ("parallel", 6): 9, ("parallel", 9): 1},
        ),
    )
    def test_values_metrics_identical_on_terminal_failure(self, failures):
        # A task that fails for good stops the map; every backend must
        # account exactly the tasks up to it, the failed one included.
        plan = FaultPlan(failures=failures)
        serialized = {}
        for name in BACKENDS:
            obs.disable()
            observer = obs.enable()
            with pytest.raises(TaskFailed):
                get_backend(name).map(square, range(12), faults=plan)
            serialized[name] = observer.metrics.values_json()
            obs.disable()
        assert serialized["process"] == serialized["serial"]
        counters = json.loads(serialized["serial"])["counters"]
        assert counters["faults.tasks_failed"] == 1
        assert counters["faults.injected"] >= 3

    def test_fault_free_run_creates_no_fault_metrics(self):
        obs.disable()
        observer = obs.enable()
        get_backend("serial").map(square, range(8))
        values = json.loads(observer.metrics.values_json())
        obs.disable()
        assert not any(
            key.startswith("faults.") for key in values["counters"]
        )


# ---------------------------------------------------------------------------
# MapReduce recovery + chain checkpointing
# ---------------------------------------------------------------------------


class TestMapReduceRecovery:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_killed_map_and_reduce_tasks_recover_identically(self, name):
        clean_counters = JobCounters()
        clean = Cluster(num_workers=4, backend=name).run(
            wordcount_job(), WC_INPUTS, clean_counters
        )
        plan = FaultPlan(
            failures={("mapreduce.map", 1): 1, ("mapreduce.reduce", 0): 1}
        )
        counters = JobCounters()
        with injected(plan):
            output = Cluster(num_workers=4, backend=name).run(
                wordcount_job(), WC_INPUTS, counters
            )
        assert output == clean
        assert counters.tasks_retried == 2
        assert counters.tasks_failed == 0
        # Every record-flow counter matches the failure-free run.
        assert counters.records_mapped == clean_counters.records_mapped
        assert counters.shuffle_bytes == clean_counters.shuffle_bytes
        assert "retried=2" in counters.summary()

    def test_terminal_failure_recorded_and_raised(self):
        plan = FaultPlan(failures={("mapreduce.map", 0): 9})
        cluster = Cluster(num_workers=4)
        counters = JobCounters()
        with injected(plan):
            with pytest.raises(TaskFailed) as excinfo:
                cluster.run(wordcount_job(), WC_INPUTS, counters)
        assert len(excinfo.value.attempts) == 3
        assert counters.tasks_failed == 1
        assert "failed=1" in counters.summary()
        assert cluster.last_counters() is counters

    def test_recovery_counters_absent_from_clean_metrics(self):
        obs.disable()
        observer = obs.enable()
        Cluster(num_workers=2).run(wordcount_job(), WC_INPUTS)
        values = json.loads(observer.metrics.values_json())
        obs.disable()
        assert "mapreduce.tasks_retried" not in values["counters"]
        assert "mapreduce.tasks_failed" not in values["counters"]
        assert values["counters"]["mapreduce.records_read"] == len(WC_INPUTS)


def kv_mapper(key, value):
    yield key, value


def _chain_jobs():
    # Link 0 counts words; links 1-2 re-aggregate the (word, count)
    # pairs.  The final link is the only job with a reduce partition
    # index 5, so a plan targeting ("mapreduce.reduce", 5) crashes
    # exactly there — after links 0-1 have been checkpointed.
    return [
        wordcount_job("stage0"),
        MapReduceJob("stage1", kv_mapper, sum_reducer),
        MapReduceJob("stage2", kv_mapper, sum_reducer, num_reducers=6),
    ]


class TestChainCheckpoint:
    def test_resume_from_mid_chain_crash_in_memory(self):
        jobs = _chain_jobs()
        base_out, base_total = Cluster(num_workers=3).run_chain(
            jobs, WC_INPUTS
        )
        checkpoint = ChainCheckpoint()
        crash = FaultPlan(failures={("mapreduce.reduce", 5): 9})
        with injected(crash):
            with pytest.raises(TaskFailed):
                Cluster(num_workers=3).run_chain(
                    jobs, WC_INPUTS, checkpoint=checkpoint
                )
        assert checkpoint.latest().link == 1  # links 0-1 completed
        cluster = Cluster(num_workers=3)
        out, total = cluster.run_chain(jobs, WC_INPUTS, checkpoint=checkpoint)
        assert out == base_out
        assert total == base_total
        assert len(cluster.history) == 1  # only link 2 re-executed

    def test_resume_from_file_after_simulated_process_crash(self, tmp_path):
        jobs = _chain_jobs()
        base_out, base_total = Cluster(num_workers=3).run_chain(
            jobs, WC_INPUTS
        )
        path = str(tmp_path / "chain.ckpt")
        crash = FaultPlan(failures={("mapreduce.reduce", 5): 9})
        with injected(crash):
            with pytest.raises(TaskFailed):
                Cluster(num_workers=3).run_chain(
                    jobs, WC_INPUTS, checkpoint=ChainCheckpoint(path)
                )
        # "New process": a fresh checkpoint object loads the file.
        resumed = ChainCheckpoint(path)
        assert resumed.latest().link == 1
        out, total = Cluster(num_workers=3).run_chain(
            jobs, WC_INPUTS, checkpoint=resumed
        )
        assert out == base_out
        assert total == base_total

    def test_checkpoint_rejects_different_chain(self, tmp_path):
        path = str(tmp_path / "chain.ckpt")
        jobs = _chain_jobs()
        Cluster(num_workers=2).run_chain(
            jobs, WC_INPUTS, checkpoint=ChainCheckpoint(path)
        )
        with pytest.raises(SimulationError):
            Cluster(num_workers=2).run_chain(
                [wordcount_job("other")], WC_INPUTS,
                checkpoint=ChainCheckpoint(path),
            )

    def test_checkpoint_refuses_rewind_and_clear_forgets(self, tmp_path):
        checkpoint = ChainCheckpoint(str(tmp_path / "c.ckpt"))
        checkpoint.bind(["a", "b"])
        checkpoint.record(1, [("k", 1)], JobCounters())
        with pytest.raises(SimulationError):
            checkpoint.record(0, [], JobCounters())
        checkpoint.clear()
        assert checkpoint.latest() is None
        assert not (tmp_path / "c.ckpt").exists()

    def test_completed_chain_resumes_to_stored_result(self):
        jobs = _chain_jobs()
        checkpoint = ChainCheckpoint()
        base_out, base_total = Cluster(num_workers=3).run_chain(
            jobs, WC_INPUTS, checkpoint=checkpoint
        )
        cluster = Cluster(num_workers=3)
        out, total = cluster.run_chain(jobs, WC_INPUTS, checkpoint=checkpoint)
        assert out == base_out and total == base_total
        assert cluster.history == []  # nothing re-executed


# ---------------------------------------------------------------------------
# Particle filter + MCDB recovery
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pf_setting():
    ssm = LinearGaussianSSM(a=0.9, q=0.5, r=0.5)
    _, observations = ssm.simulate(6, make_rng(0))
    return ssm.to_state_space_model(), observations


class TestParticleFilterRecovery:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_shard_failures_recover_byte_identically(self, name, pf_setting):
        model, observations = pf_setting
        clean = particle_filter(
            model, observations, 64, backend=name, seed=9, n_shards=4
        )
        plan = FaultPlan(failures={("pf.init", 1): 1, ("pf.shard", 2): 1})
        with injected(plan):
            recovered = particle_filter(
                model, observations, 64, backend=name, seed=9, n_shards=4
            )
        np.testing.assert_array_equal(
            recovered.filtered_means, clean.filtered_means
        )
        np.testing.assert_array_equal(
            recovered.final_particles, clean.final_particles
        )
        assert recovered.log_likelihood == clean.log_likelihood

    def test_dead_shard_raises_by_default(self, pf_setting):
        model, observations = pf_setting
        plan = FaultPlan(failures={("pf.shard", 2): 9})
        with injected(plan):
            with pytest.raises(TaskFailed) as excinfo:
                particle_filter(
                    model, observations, 64,
                    backend="serial", seed=9, n_shards=4,
                )
        assert excinfo.value.scope == "pf.shard"

    def test_degrade_drops_shard_with_warning(self, pf_setting):
        model, observations = pf_setting
        plan = FaultPlan(failures={("pf.init", 3): 9})
        with injected(plan):
            with pytest.warns(RuntimeWarning, match="dropped 1 dead shard"):
                result = particle_filter(
                    model, observations, 64, backend="serial", seed=9,
                    n_shards=4, on_shard_failure="degrade",
                )
        assert result.final_particles.shape[0] == 48  # 64 minus one shard
        assert result.steps == len(observations)

    def test_all_shards_dead_raises_filtering_error(self, pf_setting):
        model, observations = pf_setting
        plan = FaultPlan(rate=1.0, scopes=("pf.init",), fail_attempts=9)
        with injected(plan):
            with pytest.raises(FilteringError):
                with pytest.warns(RuntimeWarning):
                    particle_filter(
                        model, observations, 16, backend="serial", seed=9,
                        n_shards=2, on_shard_failure="degrade",
                    )

    def test_invalid_on_shard_failure_rejected(self, pf_setting):
        model, observations = pf_setting
        with pytest.raises(FilteringError):
            particle_filter(
                model, observations, 16, backend="serial", seed=9,
                on_shard_failure="ignore",
            )


def mc_query(instance):
    total = 0.0
    count = 0
    for row in instance.table("sbp_data"):
        total += row["sbp"]
        count += 1
    return total / count


def build_mcdb(num_rows=10):
    from repro.engine import Database, Schema
    from repro.mcdb import MonteCarloDatabase, NormalVG, RandomTableSpec

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


class TestMcdbRecovery:
    @pytest.mark.parametrize("name", ("serial", "process"))
    def test_naive_iteration_failures_recover_identically(self, name):
        clean = build_mcdb().run_naive(mc_query, 8, backend=name).samples
        plan = FaultPlan(failures={("mcdb.naive", 3): 1})
        with injected(plan):
            recovered = build_mcdb().run_naive(
                mc_query, 8, backend=name
            ).samples
        np.testing.assert_array_equal(recovered, clean)

    def test_bundle_instantiation_failures_recover_identically(self):
        def agg(bundles, _db):
            return bundles["sbp_data"].aggregate_avg("sbp")

        clean = build_mcdb().run_bundled(agg, 12, backend="serial").samples
        plan = FaultPlan(failures={("mcdb.bundle", 0): 2})
        with injected(plan):
            recovered = build_mcdb().run_bundled(
                agg, 12, backend="serial"
            ).samples
        np.testing.assert_array_equal(recovered, clean)

    def test_exhausted_naive_iteration_raises_task_failed(self):
        plan = FaultPlan(failures={("mcdb.naive", 2): 9})
        with injected(plan):
            with pytest.raises(TaskFailed) as excinfo:
                build_mcdb().run_naive(mc_query, 8, backend="serial")
        assert excinfo.value.scope == "mcdb.naive"
        assert excinfo.value.index == 2


# ---------------------------------------------------------------------------
# End-to-end acceptance: one plan, map task + pf shard, all backends
# ---------------------------------------------------------------------------


class TestAcceptanceScenario:
    def test_injected_run_is_byte_identical_with_visible_recovery(
        self, pf_setting
    ):
        model, observations = pf_setting
        plan = FaultPlan(
            failures={("mapreduce.map", 1): 1, ("pf.shard", 0): 1}
        )
        clean_wc = Cluster(num_workers=4).run(wordcount_job(), WC_INPUTS)
        clean_pf = particle_filter(
            model, observations, 32, backend="serial", seed=4, n_shards=4
        )
        snapshots = {}
        for name in BACKENDS:
            obs.disable()
            observer = obs.enable()
            with injected(plan):
                output = Cluster(num_workers=4, backend=name).run(
                    wordcount_job(), WC_INPUTS
                )
                result = particle_filter(
                    model, observations, 32, backend=name, seed=4, n_shards=4
                )
            snapshots[name] = observer.metrics.values_json()
            obs.disable()
            assert output == clean_wc
            np.testing.assert_array_equal(
                result.filtered_means, clean_pf.filtered_means
            )
            assert result.log_likelihood == clean_pf.log_likelihood
        assert snapshots["process"] == snapshots["serial"]
        values = json.loads(snapshots["serial"])
        assert values["counters"]["faults.tasks_retried"] > 0
        assert values["counters"]["mapreduce.tasks_retried"] == 1
