"""Tests for repro.delta: plans, views, streaming aggregates, and diff.

The acceptance surface of the delta ISSUE: a single-factor perturbation
of a DoE sweep recomputes exactly its invalidation cone while every
reused node's ``result_fingerprint`` stays byte-identical to the cold
run, on both :mod:`repro.parallel` backends; incremental aggregate
states after N appends are fingerprint-identical to a full recompute
and any non-append mutation falls back to a rebuild; timeline diff
reads only the store and reports array-aware per-node deltas; fault
indices line up with a full ``run_ensemble`` so ``REPRO_FAULTS`` plans
target the same logical node either way.

Scenario callables are the module-level ones registered by
``tests/test_ensemble.py`` (imported here), so they pickle for the
process backend.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.delta import (
    RECOMPUTE,
    REUSE,
    AggSpec,
    AppendLog,
    IncrementalAggregate,
    MaterializedView,
    NodeDiff,
    NodePlan,
    delta_run,
    diff_timelines,
    execute_plan,
    perturb,
    plan_delta,
    value_deltas,
)
from repro.delta import plan as delta_plan
from repro.delta.diff import STATUSES
from repro.engine.expressions import BinaryOp, Column as Col, Literal
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.ensemble import (
    Ensemble,
    EnsembleResult,
    NodeReport,
    RunStore,
    ScenarioSpec,
    canonical_json,
    compute_run_keys,
    result_fingerprint,
    run_ensemble,
    scenario_qualname,
)
from repro.ensemble.scheduler import NodeDispatch
from repro.errors import SimulationError
from repro.faults import FaultPlan, injected
from repro.parallel import SerialBackend
from tests.test_ensemble import BACKENDS, REPO_ROOT, chain, dags


def sweep(runs=12, seed=3):
    return Ensemble.latin_hypercube(
        "response.surface",
        factors={"x1": (0.0, 1.0), "x2": (0.0, 1.0)},
        runs=runs,
        seed=seed,
        name="sweep",
    )


def eq(column, value):
    return BinaryOp("=", Col(column), Literal(value))


@pytest.fixture(params=["flat", "sharded", "flat-reopened-sharded"])
def materialize(request, tmp_path):
    """Run ensembles into a store; returns the instance that the test
    plans and diffs against.

    ``flat``: that instance ran every ensemble.  ``sharded``: it asked
    for every key before anything was written, then each ensemble ran
    through an instance of its own, as separate processes would.
    ``flat-reopened-sharded``: it is opened after another instance ran
    every ensemble.  (The last two ids once named layouts of the retired
    sharded store.)
    """

    def run_into(*ensembles):
        store = RunStore(tmp_path)
        if request.param == "sharded":
            for ensemble in ensembles:  # no absence seen here may stick
                keys = list(compute_run_keys(ensemble).values())
                assert store.contains_many(keys) == [False] * len(keys)
        with injected(None):
            for ensemble in ensembles:
                writer = RunStore(tmp_path) if request.param == "sharded" else store
                run_ensemble(ensemble, store=writer).raise_if_failed()
        if request.param == "flat-reopened-sharded":
            return RunStore(tmp_path)
        return store

    return run_into


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

class TestPlanDelta:
    def test_cold_plan_recomputes_everything(self, tmp_path):
        plan = plan_delta(chain(3), RunStore(tmp_path))
        assert plan.nodes_total == 3
        assert plan.nodes_recomputed == 3 and plan.nodes_reused == 0
        assert plan.reasons() == {"cold": 3}
        assert plan.recompute_fraction == 1.0

    def test_warm_plan_reuses_everything(self, tmp_path):
        store = RunStore(tmp_path)
        with injected(None):
            run_ensemble(chain(3), store=store)
        plan = plan_delta(chain(3), store)
        assert plan.nodes_recomputed == 0 and plan.nodes_reused == 3
        assert plan.cone == []
        assert "3 reused, 0 recomputed (0.0%)" in plan.render()

    def test_perturbation_cone_is_changed_plus_descendants(self, materialize):
        base = chain(4)
        store = materialize(base)
        target = perturb(base, params={"n1": {"x": 99}})
        plan = plan_delta(target, store, base=base)
        assert plan.nodes["n0"].action == "reuse"
        assert plan.nodes["n1"].reason == "changed"
        # Merkle folding: descendants of the change re-key automatically.
        assert plan.nodes["n2"].reason == "upstream"
        assert plan.nodes["n3"].reason == "upstream"
        assert plan.cone == ["n1", "n2", "n3"]
        assert plan.nodes["n1"].base_key != plan.nodes["n1"].key

    def test_shared_specs_are_upstream_without_serializing(
        self, materialize, monkeypatch
    ):
        """A perturbed copy shares its unchanged specs with the base, so
        only the changed node's two specs are serialized."""
        base = chain(4)
        store = materialize(base)
        target = perturb(base, params={"n1": {"x": 99}})
        serialized = []
        real = delta_plan.canonical_json

        def canonical_json(value):
            serialized.append(value)
            return real(value)

        monkeypatch.setattr(delta_plan, "canonical_json", canonical_json)
        plan = plan_delta(target, store, base=base)
        assert plan.reasons() == {"changed": 1, "upstream": 2}
        assert len(serialized) == 2

    def test_added_and_missing_reasons(self, materialize):
        base = chain(2)
        store = materialize(base)
        target = Ensemble("chain")
        for node in base.topological_order():
            target.add(node.name, node.spec, deps=node.deps)
        target.add(
            "extra",
            ScenarioSpec("test.double", {"x": 7, "upstream_node": "n1"}),
            deps=("n1",),
        )
        plan = plan_delta(target, store, base=base)
        assert plan.nodes["extra"].reason == "added"
        assert plan.nodes_reused == 2

        store.gc(max_total_bytes=0)  # evict: keys unchanged, bytes gone
        replan = plan_delta(base, store, base=base)
        assert replan.reasons() == {"missing": 2}

    def test_sweep_single_factor_cone_is_one_node(self, materialize):
        base = sweep(runs=20)
        store = materialize(base)
        target = perturb(base, params={"sweep/007": {"x1": 0.42}})
        plan = plan_delta(target, store, base=base)
        # Independent DoE rows: the cone is exactly the perturbed node.
        assert plan.cone == ["sweep/007"]
        assert plan.recompute_fraction == pytest.approx(1 / 20)

    def test_plan_counters_are_pure_and_nonzero_guarded(self, tmp_path):
        store = RunStore(tmp_path)
        base = chain(3)
        with injected(None):
            run_ensemble(base, store=store)
        observer = obs.enable()
        try:
            plan_delta(base, store)
            counters = observer.metrics.snapshot()["values"]["counters"]
        finally:
            obs.disable()
        assert counters["delta.plan"] == 1
        assert counters["delta.reused"] == 3
        assert "delta.recomputed" not in counters


class TestPerturb:
    def test_param_scenario_and_seed_perturbations(self):
        base = chain(2)
        target = perturb(
            base,
            params={"n0": {"x": 5}},
            scenarios={"n1": "test.flaky"},
            seeds={"n1": 11},
        )
        assert target.node("n0").spec.params["x"] == 5
        assert target.node("n1").spec.scenario == "test.flaky"
        assert target.node("n1").spec.seed == 11
        # base untouched, DAG shape preserved
        assert base.node("n0").spec.params["x"] == 1
        assert target.node("n1").deps == base.node("n1").deps

    def test_unknown_node_or_scenario_rejected(self):
        with pytest.raises(SimulationError):
            perturb(chain(2), params={"ghost": {"x": 1}})
        with pytest.raises(SimulationError):
            perturb(chain(2), scenarios={"n0": "not.registered"})


# ---------------------------------------------------------------------------
# execution (the acceptance bar: byte-identity on every backend)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
class TestDeltaExecution:
    def test_cone_only_recompute_and_reused_fingerprints_identical(
        self, tmp_path, backend
    ):
        store = RunStore(tmp_path)
        base = sweep(runs=10)
        with injected(None):
            cold = run_ensemble(base, store=store, backend=backend)
            cold.raise_if_failed()
            target = perturb(base, params={"sweep/004": {"x1": 0.99}})
            outcome = delta_run(target, store, base=base, backend=backend)
        outcome.raise_if_failed()
        assert outcome.nodes_run == 1 and outcome.nodes_reused == 9
        assert set(outcome.results) == {"sweep/004"}  # only the cone loaded
        # Every reused node serves the cold run's bytes.
        cold_prints = cold.fingerprints()
        for name, report in outcome.reports.items():
            if report.status == "reused":
                assert result_fingerprint(outcome.result(name)) == \
                    cold_prints[name]

    def test_delta_result_matches_full_rerun(self, tmp_path, backend):
        """The incremental path lands the same bytes a full run would."""
        store = RunStore(tmp_path)
        base = chain(4)
        with injected(None):
            run_ensemble(base, store=store, backend=backend)
            target = perturb(base, params={"n1": {"x": 42}})
            outcome = delta_run(target, store, base=base, backend=backend)
            full = run_ensemble(target, backend=backend)
        outcome.raise_if_failed()
        assert outcome.nodes_run == 3 and outcome.nodes_reused == 1
        for name in ("n0", "n1", "n2", "n3"):
            assert result_fingerprint(outcome.result(name)) == \
                result_fingerprint(full.results[name])

    def test_fault_index_parity_with_full_run(self, tmp_path, backend):
        """``at=ensemble.node:i`` kills the same node, full or delta."""
        store = RunStore(tmp_path)
        base = chain(4)
        with injected(None):
            run_ensemble(base, store=store, backend=backend)
        target = perturb(base, params={"n1": {"x": 42}})
        # n2 has global topological index 2 in the target ensemble even
        # though it is only the *second* node the delta path executes.
        plan = FaultPlan(failures={("ensemble.node", 2): 1})
        with injected(None):
            outcome = delta_run(
                target, store, base=base, backend=backend, faults=plan
            )
        outcome.raise_if_failed()
        assert outcome.reports["n2"].retried
        assert outcome.reports["n2"].attempts == 2
        assert not outcome.reports["n1"].retried

    def test_exhausted_cone_node_skips_descendants(self, tmp_path, backend):
        store = RunStore(tmp_path)
        base = chain(4)
        with injected(None):
            run_ensemble(base, store=store, backend=backend)
        target = perturb(base, scenarios={"n1": "test.always_fails"})
        with injected(None):
            outcome = delta_run(target, store, base=base, backend=backend)
        assert not outcome.ok
        assert outcome.reports["n0"].status == "reused"
        assert outcome.reports["n1"].status == "failed"
        assert outcome.reports["n2"].status == "skipped"
        assert outcome.reports["n2"].blocked_on == "n1"
        assert outcome.reports["n3"].status == "skipped"
        with pytest.raises(SimulationError, match="no stored result"):
            outcome.result("n1")


class TestExecutionLaziness:
    def test_unconsumed_reused_nodes_are_never_loaded(self, tmp_path):
        """delta.loads counts only reused results a cone node consumed."""
        store = RunStore(tmp_path)
        base = sweep(runs=8)  # independent nodes: no cone consumes anything
        with injected(None):
            run_ensemble(base, store=store)
        target = perturb(base, params={"sweep/002": {"x2": 0.8}})
        observer = obs.enable()
        try:
            with injected(None):
                outcome = delta_run(target, store, base=base)
            counters = observer.metrics.snapshot()["values"]["counters"]
        finally:
            obs.disable()
        outcome.raise_if_failed()
        assert "delta.loads" not in counters  # nothing deserialized
        assert counters["delta.nodes_run"] == 1

    def test_consumed_reused_upstream_is_loaded_once(self, tmp_path):
        store = RunStore(tmp_path)
        base = chain(3)
        with injected(None):
            run_ensemble(base, store=store)
        target = perturb(base, params={"n1": {"x": 9}})
        observer = obs.enable()
        try:
            with injected(None):
                outcome = delta_run(target, store, base=base)
            counters = observer.metrics.snapshot()["values"]["counters"]
        finally:
            obs.disable()
        outcome.raise_if_failed()
        # n1 consumes reused n0 from the store; n2 consumes computed n1.
        assert counters["delta.loads"] == 1

    def test_vanished_reused_upstream_is_an_explicit_error(self, tmp_path):
        store = RunStore(tmp_path)
        base = chain(2)
        with injected(None):
            run_ensemble(base, store=store)
        target = perturb(base, params={"n1": {"x": 9}})
        plan = plan_delta(target, store, base=base)
        store.gc(max_total_bytes=0)  # mutate the store behind the plan
        with injected(None), pytest.raises(SimulationError, match="vanished"):
            execute_plan(plan, store)

    def test_result_of_failed_or_skipped_node_never_reads_the_store(
        self, tmp_path
    ):
        store = RunStore(tmp_path)
        base = chain(2)
        with injected(None):
            run_ensemble(base, store=store)
        target = perturb(base, scenarios={"n0": "test.always_fails"})
        with injected(None):
            outcome = delta_run(target, store, base=base)
        assert outcome.reports["n0"].status == "failed"
        assert outcome.reports["n1"].status == "skipped"
        before = store.stats.as_dict()
        with pytest.raises(
            SimulationError, match=r"'n0' failed \(.*broken on purpose\)"
        ) as failed:
            outcome.result("n0")
        assert "re-plan" not in str(failed.value)
        with pytest.raises(
            SimulationError, match=r"'n1' skipped \(upstream n0 did not complete\)"
        ):
            outcome.result("n1")
        assert store.stats.as_dict() == before


# ---------------------------------------------------------------------------
# materialized views
# ---------------------------------------------------------------------------

class TestMaterializedView:
    def test_build_refresh_and_reads(self, tmp_path):
        view = MaterializedView(sweep(runs=6), RunStore(tmp_path))
        with injected(None):
            cold = view.build()
            assert cold.nodes_run == 6 and view.fresh
            refreshed = view.refresh(params={"sweep/003": {"x1": 0.77}})
        assert refreshed.nodes_run == 1 and refreshed.nodes_reused == 5
        assert view.refreshes == 2 and view.fresh
        # The adopted definition carries the perturbation forward.
        assert view.ensemble.node("sweep/003").spec.params["x1"] == 0.77
        assert view.plan.reasons() == {"changed": 1}
        assert isinstance(view.result("sweep/000"), dict)  # store-served
        assert "fresh" in view.render()

    def test_failed_refresh_does_not_advance_definition(self, tmp_path):
        view = MaterializedView(chain(3), RunStore(tmp_path))
        with injected(None):
            view.build()
            before = view.ensemble
            outcome = view.refresh(scenarios={"n1": "test.always_fails"})
        assert not outcome.ok
        assert view.ensemble is before and not view.fresh
        with injected(None):
            retried = view.refresh(params={"n1": {"x": 2}})
        assert retried.ok and view.fresh

    def test_read_before_build_is_an_error(self, tmp_path):
        view = MaterializedView(chain(2), RunStore(tmp_path))
        with pytest.raises(SimulationError, match="never been built"):
            view.result("n0")


# ---------------------------------------------------------------------------
# streaming appends
# ---------------------------------------------------------------------------

class TestAppendLog:
    def make_table(self, rows=()):
        table = Table("t", Schema.of(g=str, v=float))
        table.insert_many(rows)
        return table

    def test_noop_append_and_from_start(self):
        table = self.make_table([{"g": "a", "v": 1.0}])
        log = AppendLog(table)
        assert log.sync().kind == "noop"
        table.insert({"g": "b", "v": 2.0})
        table.insert_many([{"g": "c", "v": 3.0}])
        delta = log.sync()
        assert delta == ("append", 1, 2)
        assert log.sync().kind == "noop"

        streamed = AppendLog(table, from_start=True)
        assert streamed.sync() == ("append", 0, 3)

    def test_from_start_on_empty_table_is_noop(self):
        log = AppendLog(self.make_table())
        assert log.sync().kind == "noop"

    def test_delete_update_truncate_force_rebase(self):
        for mutate in (
            lambda t: t.delete_where(eq("g", "a")),
            lambda t: t.update_where(eq("g", "a"), {"v": Literal(9.0)}),
            lambda t: t.truncate(),
        ):
            table = self.make_table([{"g": "a", "v": 1.0}])
            log = AppendLog(table)
            mutate(table)
            assert log.sync().kind == "rebase"
            assert log.sync().kind == "noop"

    def test_direct_rows_surgery_is_detected(self):
        table = self.make_table([{"g": "a", "v": 1.0}, {"g": "b", "v": 2.0}])
        log = AppendLog(table)
        # A shrink with no epoch bump (hostile surgery on the state).
        columns, n, version, epoch = table._state
        table._state = (columns, n - 1, version, epoch)
        assert log.sync().kind == "rebase"
        # Version moved while the row count stood still.
        table._state = (columns, n - 1, version + 1, epoch)
        assert log.sync().kind == "rebase"

    def test_poll_does_not_advance(self):
        table = self.make_table([{"g": "a", "v": 1.0}])
        log = AppendLog(table)
        table.insert({"g": "b", "v": 2.0})
        assert log.poll().kind == "append"
        assert log.poll().kind == "append"  # unchanged watermark
        assert log.sync().kind == "append"
        assert log.poll().kind == "noop"


class TestIncrementalAggregate:
    def make(self, table):
        return IncrementalAggregate(
            table,
            group_by=["g"],
            aggregates=[
                ("n", "count", None),
                ("n_v", "count", "v"),
                ("total", "sum", "v"),
                ("lo", "min", "v"),
                ("hi", "max", "v"),
                ("mean", "avg", "v"),
            ],
        )

    def test_appends_match_full_recompute_byte_for_byte(self):
        rng = np.random.default_rng(17)
        table = Table("t", Schema.of(g=str, v=float))
        view = self.make(table)
        for batch in range(8):
            rows = [
                {
                    "g": f"g{int(rng.integers(4))}",
                    "v": None if rng.random() < 0.2
                    else float(rng.normal()),
                }
                for _ in range(25)
            ]
            table.insert_many(rows)
            report = view.refresh()
            assert report.kind == "append" and report.rows_folded == 25
            # The standing oracle: incremental state == full recompute.
            assert view.fingerprint() == result_fingerprint(view.rebuilt())
        assert view.refresh().kind == "noop"

    def test_null_semantics(self):
        table = Table("t", Schema.of(g=str, v=float))
        table.insert_many(
            [{"g": "a", "v": None}, {"g": "a", "v": 3.0}, {"g": "b", "v": None}]
        )
        view = self.make(table)
        view.refresh()
        rows = {row["g"]: row for row in view.snapshot_rows()}
        assert rows["a"] == {
            "g": "a", "n": 2, "n_v": 1, "total": 3.0,
            "lo": 3.0, "hi": 3.0, "mean": 3.0,
        }
        # An all-null group aggregates to SQL nulls but still counts rows.
        assert rows["b"] == {
            "g": "b", "n": 1, "n_v": 0, "total": None,
            "lo": None, "hi": None, "mean": None,
        }

    def test_non_append_mutations_fall_back_to_rebuild(self):
        table = Table("t", Schema.of(g=str, v=float))
        table.insert_many(
            [{"g": "a", "v": 1.0}, {"g": "b", "v": 2.0}, {"g": "a", "v": 3.0}]
        )
        view = self.make(table)
        view.refresh()
        table.delete_where(eq("g", "b"))
        report = view.refresh()
        assert report.kind == "rebase" and report.groups == 1
        assert view.fingerprint() == result_fingerprint(view.rebuilt())

        table.update_where(eq("g", "a"), {"v": Literal(7.0)})
        assert view.refresh().kind == "rebase"
        assert view.snapshot_rows()[0]["total"] == 14.0

        table.truncate()
        assert view.refresh().kind == "rebase"
        assert view.snapshot_rows() == []
        assert view.fingerprint() == result_fingerprint(view.rebuilt())

    def test_group_order_is_first_seen_and_refresh_invariant(self):
        table = Table("t", Schema.of(g=str, v=float))
        table.insert_many([{"g": "z", "v": 1.0}, {"g": "a", "v": 2.0}])
        incremental = self.make(table)
        incremental.refresh()
        table.insert_many([{"g": "m", "v": 3.0}, {"g": "z", "v": 4.0}])
        incremental.refresh()
        # One-shot build over the final table sees the same row order.
        assert [r["g"] for r in incremental.snapshot_rows()] == ["z", "a", "m"]
        assert incremental.fingerprint() == \
            result_fingerprint(incremental.rebuilt())

    def test_spec_validation(self):
        table = Table("t", Schema.of(g=str, v=float))
        with pytest.raises(SimulationError, match="unknown aggregate"):
            AggSpec("x", "median", "v")
        with pytest.raises(SimulationError, match="only count may omit"):
            AggSpec("x", "sum", None)
        with pytest.raises(SimulationError, match="at least one"):
            IncrementalAggregate(table, ["g"], [])
        with pytest.raises(SimulationError, match="unique and distinct"):
            IncrementalAggregate(
                table, ["g"], [("g", "count", None)]
            )
        with pytest.raises(Exception, match="no column"):
            IncrementalAggregate(table, ["ghost"], [("n", "count", None)])

    def test_refresh_counters(self):
        table = Table("t", Schema.of(g=str, v=float))
        table.insert_many([{"g": "a", "v": 1.0}])
        view = self.make(table)
        observer = obs.enable()
        try:
            view.refresh()  # streams the pre-existing row: append of 1
            table.truncate()
            view.refresh()  # rebase
            counters = observer.metrics.snapshot()["values"]["counters"]
        finally:
            obs.disable()
        assert counters["delta.agg.appended_rows"] == 1
        assert counters["delta.agg.rebases"] == 1


# ---------------------------------------------------------------------------
# timeline diff
# ---------------------------------------------------------------------------

class TestTimelineDiff:
    def test_identical_timelines(self, tmp_path):
        store = RunStore(tmp_path)
        with injected(None):
            run_ensemble(chain(3), store=store)
        report = diff_timelines(store, chain(3), chain(3))
        assert report.identical
        assert report.summary() == {"same": 3}
        assert [n.status for n in report.nodes] == ["same"] * 3

    def test_branch_diff_statuses_and_deltas(self, materialize):
        base = chain(3)
        target = perturb(base, params={"n1": {"x": 50}})
        store = materialize(base, target)
        report = diff_timelines(store, base, target)
        assert not report.identical
        assert report.summary() == {"changed": 2, "same": 1}
        by_name = {n.name: n for n in report.nodes}
        assert by_name["n0"].status == "same"
        changed = by_name["n1"]
        assert changed.fingerprint_a != changed.fingerprint_b
        paths = {d.path: d for d in changed.deltas}
        assert paths["$.value"].a == 8 and paths["$.value"].b == 104
        assert "n1" in report.render() and "n0" not in report.render()

    def test_node_set_divergence(self, tmp_path):
        store = RunStore(tmp_path)
        a = chain(3)
        b = chain(2)
        b.add(
            "side",
            ScenarioSpec("test.flaky", {"x": 1}),
        )
        with injected(None):
            run_ensemble(a, store=store)
            run_ensemble(b, store=store)
        report = diff_timelines(store, a, b)
        by_name = {n.name: n for n in report.nodes}
        assert by_name["n2"].status == "only_in_a"
        assert by_name["side"].status == "only_in_b"
        # b-only nodes come after a's topological order.
        assert [n.name for n in report.nodes][-1] == "side"

    def test_unstored_branch_reports_instead_of_running(self, materialize):
        base = chain(2)
        store = materialize(base)
        never_ran = perturb(base, params={"n0": {"x": 77}})
        report = diff_timelines(store, base, never_ran)
        assert report.summary() == {"unstored": 2}
        node = report.nodes[0]
        assert node.fingerprint_a is not None  # side a IS stored
        assert node.fingerprint_b is None

    def test_array_aware_deltas(self, tmp_path):
        store = RunStore(tmp_path)
        a = Ensemble("arrays")
        a.add("node", ScenarioSpec("test.array", {"n": 16}, seed=1))
        b = perturb(a, seeds={"node": 2})
        with injected(None):
            run_ensemble(a, store=store)
            run_ensemble(b, store=store)
        report = diff_timelines(store, a, b)
        delta = {d.path: d for d in report.nodes[0].deltas}["$.curve"]
        assert delta.kind == "array"
        assert 0 < delta.differing <= 16
        assert delta.max_abs_delta > 0
        assert "element(s) differ" in delta.render()

    def test_value_deltas_shape_nan_and_structure(self):
        x = np.arange(4.0)
        y = x.copy(); y[1] = 9.0
        deltas = value_deltas({"a": x}, {"a": y})
        assert deltas[0].differing == 1
        assert deltas[0].max_abs_delta == pytest.approx(8.0)
        # NaN == NaN for diff purposes (byte-identical payloads).
        nan = np.array([np.nan, 1.0])
        assert value_deltas({"a": nan}, {"a": nan.copy()}) == []
        shape = value_deltas(np.zeros(3), np.zeros((3, 1)))
        assert shape[0].kind == "shape"
        missing = value_deltas({"k": 1}, {})
        assert missing[0].kind == "missing"
        typed = value_deltas({"k": 1}, {"k": np.zeros(2)})
        assert typed[0].kind == "type"
        lists = value_deltas([1, 2], [1, 3, 4])
        assert any(d.kind == "value" for d in lists)

    def test_equal_scalar_nans_are_no_delta(self):
        # Two separately made NaNs, as two decoded results would hold.
        assert value_deltas({"v": float("nan")}, {"v": float("nan")}) == []
        assert value_deltas([1.0, float("nan")], [1.0, float("nan")]) == []
        assert value_deltas(np.float32("nan"), np.float64("nan")) == []
        moved = value_deltas({"v": float("nan")}, {"v": 1.0})
        assert [d.path for d in moved] == ["$.v"]

    def test_leaf_delta_cap_records_overflow(self):
        a = {f"k{i}": i for i in range(10)}
        b = {f"k{i}": i + 1 for i in range(10)}
        deltas = value_deltas(a, b, limit=4)
        assert len(deltas) == 5  # limit + 1 sentinel for "more existed"

    def test_truncated_counts_every_leaf_past_the_cap(self, tmp_path):
        store = RunStore(tmp_path)
        a = Ensemble("leaves")
        a.add("node", ScenarioSpec("test.flaky", {"x": 1}))
        b = perturb(a, params={"node": {"x": 2}})
        # The diff reads only the store, so the entries can be put by hand.
        store.put(compute_run_keys(a)["node"], {f"k{i:03d}": i for i in range(100)})
        store.put(compute_run_keys(b)["node"], {f"k{i:03d}": i + 1 for i in range(100)})
        report = diff_timelines(store, a, b, max_leaves=5)
        node = report.nodes[0]
        # 100 leaves differ: the first 5 are recorded, 95 counted.
        assert [d.path for d in node.deltas] == [f"$.k{i:03d}" for i in range(5)]
        assert node.truncated == 95
        assert "... (95 more leaf delta(s))" in report.render()
        assert report.as_dict()["nodes"][0]["truncated"] == 95

    def test_as_dict_round_trips_through_json(self, tmp_path):
        store = RunStore(tmp_path)
        a = Ensemble("arrays")
        a.add("node", ScenarioSpec("test.array", {"n": 8}, seed=1))
        b = perturb(a, seeds={"node": 2})
        with injected(None):
            run_ensemble(a, store=store)
            run_ensemble(b, store=store)
        report = diff_timelines(store, a, b)
        document = json.loads(json.dumps(report.as_dict(), default=str))
        assert document["summary"] == {"changed": 1}
        assert document["nodes"][0]["deltas"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULTS", None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=180,
    )


class TestDeltaCli:
    def test_plan_execute_diff_cycle(self, tmp_path):
        store = str(tmp_path / "store")
        warm = _run_cli(
            "ensemble", "run", "--demo", "sweep", "--quick", "--store", store
        )
        assert warm.returncode == 0, warm.stderr

        planned = _run_cli(
            "delta", "plan", "--demo", "sweep", "--quick", "--store", store,
            "--set", "response-sweep/002:x1=0.9",
        )
        assert planned.returncode == 0, planned.stderr
        assert "1 recomputed" in planned.stdout
        assert "changed" in planned.stdout

        executed = _run_cli(
            "delta", "plan", "--demo", "sweep", "--quick", "--store", store,
            "--set", "response-sweep/002:x1=0.9", "--execute",
        )
        assert executed.returncode == 0, executed.stderr
        assert "4 reused, 1 recomputed" in executed.stdout

        diffed = _run_cli(
            "delta", "diff", "--demo", "sweep", "--quick", "--store", store,
            "--set-b", "response-sweep/002:x1=0.9", "--json",
        )
        assert diffed.returncode == 1  # timelines differ
        document = json.loads(diffed.stdout)
        assert document["summary"]["changed"] == 1
        assert document["summary"]["same"] == 4

        same = _run_cli(
            "delta", "diff", "--demo", "sweep", "--quick", "--store", store
        )
        assert same.returncode == 0 and "5 same" in same.stdout

    def test_warm_plan_is_all_reuse(self, tmp_path):
        store = str(tmp_path / "store")
        _run_cli(
            "ensemble", "run", "--demo", "sweep", "--quick", "--store", store
        )
        planned = _run_cli(
            "delta", "plan", "--demo", "sweep", "--quick", "--store", store
        )
        assert planned.returncode == 0, planned.stderr
        assert "5 reused, 0 recomputed (0.0%)" in planned.stdout

    def test_bad_set_syntax_is_a_usage_error(self, tmp_path):
        result = _run_cli(
            "delta", "plan", "--quick",
            "--store", str(tmp_path / "s"), "--set", "garbage",
        )
        assert result.returncode != 0
        assert "NODE:KEY=VALUE" in result.stderr

    def test_help_epilog_lists_delta(self):
        result = _run_cli("--help")
        assert result.returncode == 0
        assert "delta" in result.stdout


# ---------------------------------------------------------------------------
# concurrency bug sweep regressions
# ---------------------------------------------------------------------------

class TestEmptyConeShortCircuit:
    """An all-reused plan must never construct an execution backend."""

    def test_execute_plan_skips_backend_setup(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        base = chain(3)
        run_ensemble(base, store=store)

        import repro.ensemble.scheduler as scheduler_module

        def exploding_get_backend(*args, **kwargs):  # pragma: no cover
            raise AssertionError(
                "empty cone resolved a backend (backend setup)"
            )

        monkeypatch.setattr(
            scheduler_module, "get_backend", exploding_get_backend
        )
        plan = plan_delta(base, store, base=base)
        assert plan.nodes_recomputed == 0
        outcome = execute_plan(plan, store, backend="process")
        outcome.raise_if_failed()
        assert outcome.nodes_reused == 3 and outcome.nodes_run == 0

    def test_empty_cone_counters_and_result_contract(self, tmp_path):
        store = RunStore(tmp_path)
        base = chain(3)
        run_ensemble(base, store=store)
        observer = obs.enable()
        observer.reset()
        try:
            plan = plan_delta(base, store, base=base)
            outcome = execute_plan(plan, store)
            values = observer.metrics.snapshot()["values"]
        finally:
            obs.disable()
        # The DeltaResult contract is identical to the pre-shortcut path…
        assert outcome.nodes_reused == 3
        assert outcome.nodes_run == outcome.nodes_failed == 0
        assert outcome.results == {}
        assert outcome.store_stats is not None
        assert {r.status for r in outcome.reports.values()} == {"reused"}
        counters = values["counters"]
        assert counters.get("delta.plan") == 1
        assert counters.get("delta.reused") == 3
        # …and the fan-out layer was never touched: no parallel.* counter
        # may appear for a dispatch of zero nodes.
        assert not any(name.startswith("parallel.") for name in counters)

    def test_empty_dispatch_resolves_no_backend(self, monkeypatch):
        import repro.ensemble.scheduler as scheduler_module
        from repro.ensemble import EnsembleResult

        def exploding_get_backend(*args, **kwargs):  # pragma: no cover
            raise AssertionError("empty wave resolved a backend")

        monkeypatch.setattr(
            scheduler_module, "get_backend", exploding_get_backend
        )
        outcome = EnsembleResult(name="chain")
        nodes = scheduler_module.NodeDispatch(
            chain(3), outcome, None, "process", None, None,
            scope="delta.dispatch", timer="delta.node_seconds",
        )
        nodes.dispatch([])
        assert outcome.reports == {} and outcome.results == {}
        assert nodes.totals.attempts == 0


class CountingBackend(SerialBackend):
    """A serial backend that overrides only ``map`` and counts items."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.tasks = 0

    def map(self, fn, items, chunksize=None, **kwargs):
        items = list(items)
        self.calls += 1
        self.tasks += len(items)
        return super().map(fn, items, chunksize, **kwargs)


class TestNodeDispatchHook:
    """Node dispatch goes through ``Backend.map``: a subclass overriding
    only ``map`` sees every dispatched node and nothing else."""

    def test_cold_warm_and_cone_task_counts(self, tmp_path, monkeypatch):
        import repro.ensemble.scheduler as scheduler_module

        store = RunStore(tmp_path)
        base = chain(6)
        cold = CountingBackend()
        run_ensemble(base, store=store, backend=cold).raise_if_failed()
        assert cold.tasks == 6
        assert cold.calls == 6  # a chain is one node per wave

        resolved = []
        real_get_backend = scheduler_module.get_backend

        def counting_get_backend(spec=None):
            resolved.append(spec)
            return real_get_backend(spec)

        monkeypatch.setattr(
            scheduler_module, "get_backend", counting_get_backend
        )
        warm = CountingBackend()
        rerun = run_ensemble(base, store=store, backend=warm)
        assert rerun.nodes_cached == 6
        assert (warm.calls, warm.tasks) == (0, 0)
        assert resolved == []

        target = perturb(base, params={"n2": {"x": 99}}, name="chain~n2")
        plan = plan_delta(target, store, base=base)
        cone = CountingBackend()
        outcome = execute_plan(plan, store, backend=cone)
        outcome.raise_if_failed()
        assert plan.nodes_recomputed == 4  # n2 and its descendants
        assert cone.tasks == plan.nodes_recomputed == outcome.nodes_run
        assert resolved == [cone] * cone.calls


class TestDiffEvictionRace:
    """diff_timelines reports a mid-diff eviction as ``unstored``."""

    def _stored_branches(self, store):
        base = chain(3, scenario="test.array")
        target = perturb(base, params={"n1": {"x": 99}}, name="chain~b")
        run_ensemble(base, store=store)
        run_ensemble(target, store=store)
        return base, target

    def test_fully_evicted_entry_reports_unstored(self, tmp_path):
        store = RunStore(tmp_path)
        base, target = self._stored_branches(store)
        diff = diff_timelines(store, base, target)
        changed = {n.name for n in diff.nodes if n.status == "changed"}
        assert "n1" in changed
        from repro.ensemble import compute_run_keys

        store.evict(compute_run_keys(target)["n1"])
        raced = diff_timelines(store, base, target)
        statuses = {n.name: n.status for n in raced.nodes}
        assert statuses["n1"] == "unstored"
        assert raced.count("unstored") >= 1
        # The rest of the diff still completes normally: n0 is untouched
        # and n2 (re-keyed through the Merkle fold) still loads and diffs.
        assert statuses["n0"] == "same"
        assert statuses["n2"] == "changed"


# ---------------------------------------------------------------------------
# cone-sized cycles: the per-node reference and the work count
# ---------------------------------------------------------------------------
#
# plan_delta, execute_plan and diff_timelines hold only the cone
# explicitly.  The reference below is the per-node algorithm they
# replaced: one NodePlan, NodeReport and NodeDiff per node, built by a
# walk over every node.  Random cycles must read the same through both.


def _own(spec):
    return scenario_qualname(spec.scenario), canonical_json(spec.params), spec.seed


def _reference_plan(target, store, base=None):
    keys = compute_run_keys(target)
    base_keys = compute_run_keys(base) if base is not None else {}
    nodes = {}
    for node in target.topological_order():
        key = keys[node.name]
        base_key = base_keys.get(node.name)
        if store.contains(key):
            action, reason = REUSE, "hit"
        else:
            action = RECOMPUTE
            if base is None:
                reason = "cold"
            elif node.name not in base:
                reason = "added"
            elif base_key == key:
                reason = "missing"
            elif _own(base.node(node.name).spec) != _own(node.spec):
                reason = "changed"
            else:
                reason = "upstream"
        nodes[node.name] = NodePlan(node.name, key, action, reason, base_key)
    observer = obs.get_observer()
    observer.counter("delta.plan").inc()
    reused = sum(1 for n in nodes.values() if n.action == REUSE)
    for metric, amount in (
        ("delta.reused", reused),
        ("delta.recomputed", len(nodes) - reused),
    ):
        if amount:
            observer.counter(metric).add(amount)
    return nodes, keys


def _reference_plan_render(name, nodes, limit=20):
    cone = [n for n in nodes.values() if n.action == RECOMPUTE]
    reasons = {}
    for reason in ("changed", "upstream", "added", "missing", "cold"):
        amount = sum(1 for n in cone if n.reason == reason)
        if amount:
            reasons[reason] = amount
    lines = [
        f"delta plan for {name!r}: {len(nodes)} node(s) — "
        f"{len(nodes) - len(cone)} reused, {len(cone)} recomputed "
        f"({100.0 * len(cone) / max(len(nodes), 1):.1f}%)"
        + (f"  reasons={reasons}" if cone else "")
    ]
    for shown, node in enumerate(cone):
        if shown == limit:
            lines.append(f"  ... ({len(cone) - limit} more recomputed node(s))")
            break
        lines.append("  " + node.render())
    return "\n".join(lines)


def _reference_execute(target, nodes, keys, store):
    outcome = EnsembleResult(name=target.name)
    dispatch = NodeDispatch(
        target, outcome, store, "serial", None, None,
        scope="delta.dispatch", timer="delta.node_seconds",
    )
    loaded = {}

    def upstream_result(dep):
        if dep in outcome.results:
            return outcome.results[dep]
        if dep not in loaded:
            loaded[dep] = store.get(keys[dep])
        return loaded[dep]

    for wave in target.waves():
        pending = []
        for node in wave:
            node_plan = nodes[node.name]
            if node_plan.action == REUSE:
                outcome.reports[node.name] = NodeReport(
                    node.name, node_plan.key, "reused"
                )
                continue
            if dispatch.skipped(node, node_plan.key):
                continue
            pending.append(
                dispatch.payload(
                    node, node_plan.key,
                    {dep: upstream_result(dep) for dep in node.deps},
                )
            )
        dispatch.dispatch(pending)
    observer = obs.get_observer()
    for metric, amount in (
        ("delta.nodes_run", outcome.nodes_run),
        ("delta.nodes_failed", outcome.nodes_failed),
        ("delta.nodes_skipped", outcome.nodes_skipped),
        ("delta.nodes_retried", outcome.nodes_retried),
        ("delta.loads", len(loaded)),
        ("delta.injected", dispatch.totals.injected),
        ("delta.retries", dispatch.totals.retries),
    ):
        if amount:
            observer.counter(metric).add(amount)
    outcome.store_stats = store.stats.as_dict()
    reused = sum(1 for r in outcome.reports.values() if r.status == "reused")
    lines = [
        f"delta {outcome.name!r}: {outcome.nodes} node(s) — "
        f"{reused} reused, {outcome.nodes_run} recomputed, "
        f"{outcome.nodes_failed} failed, {outcome.nodes_skipped} skipped"
        + (f", {outcome.nodes_retried} retried" if outcome.nodes_retried else "")
    ]
    lines.extend(
        r.render() for r in outcome.reports.values() if r.status != "reused"
    )
    lines.append(f"store: {outcome.store_stats}")
    return outcome, "\n".join(lines)


def _reference_diff(store, a, b, max_leaves=64):
    keys_a, keys_b = compute_run_keys(a), compute_run_keys(b)
    ordered = [node.name for node in a.topological_order()]
    ordered += [n.name for n in b.topological_order() if n.name not in keys_a]
    nodes = []
    for name in ordered:
        key_a, key_b = keys_a.get(name), keys_b.get(name)
        if key_b is None:
            nodes.append(NodeDiff(name, "only_in_a", key_a=key_a))
        elif key_a is None:
            nodes.append(NodeDiff(name, "only_in_b", key_b=key_b))
        elif key_a == key_b:
            nodes.append(NodeDiff(name, "same", key_a=key_a, key_b=key_b))
        else:
            result_a, result_b = store.get(key_a), store.get(key_b)
            if result_a is None or result_b is None:
                nodes.append(NodeDiff(
                    name, "unstored", key_a=key_a, key_b=key_b,
                    fingerprint_a=result_a and result_fingerprint(result_a),
                    fingerprint_b=result_b and result_fingerprint(result_b),
                ))
                continue
            deltas = value_deltas(result_a, result_b, limit=max_leaves)
            nodes.append(NodeDiff(
                name, "changed", key_a=key_a, key_b=key_b,
                fingerprint_a=result_fingerprint(result_a),
                fingerprint_b=result_fingerprint(result_b),
                deltas=tuple(deltas[:max_leaves]),
                truncated=max(0, len(deltas) - max_leaves),
            ))
    summary = {}
    for status in STATUSES:
        amount = sum(1 for n in nodes if n.status == status)
        if amount:
            summary[status] = amount
    if summary.get("changed"):
        obs.get_observer().counter("delta.diff.changed").add(summary["changed"])
    render = "\n".join(
        [
            f"timeline diff {a.name!r} vs {b.name!r}: {len(nodes)} node(s) — "
            + (", ".join(f"{v} {k}" for k, v in summary.items()) or "empty")
        ]
        + [n.render() for n in nodes if n.status != "same"]
    )
    as_dict = {
        "a": a.name,
        "b": b.name,
        "summary": summary,
        "identical": all(n.status == "same" for n in nodes),
        "nodes": [n.as_dict() for n in nodes],
    }
    return nodes, render, as_dict


def _store_reads(values):
    """Pop the store's hit and miss counters out of obs ``values``."""
    counters = values["counters"]
    return {
        name: counters.pop(name)
        for name in ("ensemble.store.hits", "ensemble.store.misses")
        if name in counters
    }


def _timeless(report):
    """A report without its wall-clock parts (seconds, attempt times)."""
    error = report.error and re.sub(r"\(\d[\d.e+-]*s\)", "(t)", report.error)
    return dataclasses.replace(report, seconds=0.0, error=error)


def _timeless_text(text):
    return re.sub(r"\d+\.\d{3}s ", "t ", text)


def _observed(action):
    """``action()`` and the obs ``values`` it records."""
    observer = obs.enable()
    observer.reset()
    try:
        result = action()
        values = observer.metrics.snapshot()["values"]
    finally:
        obs.disable()
    return result, values


@st.composite
def cycles(draw):
    """A random DAG, base entries to evict, and 1-4 chained perturbations,
    each of which may break a node, and add a node to the copy or grow
    its parent."""
    base = draw(dags())
    names = [node.name for node in base.nodes()]
    evicted = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    steps = []
    for step in range(draw(st.integers(1, 4))):
        changed = draw(
            st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
        )
        # Restoring a base value moves a key back onto a stored entry.
        params = {
            name: {
                "x": base.node(name).spec.params["x"]
                if draw(st.booleans())
                else draw(st.integers(0, 9))
            }
            for name in changed
        }
        broken = draw(st.sampled_from([None, *changed]))
        grow = draw(st.sampled_from([None, "copy", "parent"]))
        deps = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
        steps.append((params, broken, grow, deps))
    return base, evicted, steps


class TestConeSizedCycles:
    # Seeded and bounded here; ``--hypothesis-profile=delta-reference``
    # (registered in ``tests/conftest.py``) raises the budget.
    @given(case=cycles())
    @settings(
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture, HealthCheck.too_slow
        ],
    )
    def test_cycles_read_like_the_per_node_reference(self, case, tmp_path_factory):
        base, evicted, steps = case
        root = tmp_path_factory.mktemp("cycles")
        store, ref_store = RunStore(root / "new"), RunStore(root / "ref")
        with injected(None):
            for each in (store, ref_store):
                run_ensemble(base, store=each, backend="serial")
                for name in evicted:
                    each.evict(compute_run_keys(base)[name])
            parent = base
            # The store reads the reference's diffs made and the diffs did
            # not; the store's own tallies lag the reference's by them.
            skipped = {"hits": 0, "misses": 0}
            for step, (params, broken, grow, deps) in enumerate(steps):
                scenarios = {broken: "test.always_fails"} if broken else None
                target = perturb(
                    parent, params=params, scenarios=scenarios,
                    name=f"step{step}",
                )
                if grow is not None:
                    (target if grow == "copy" else parent).add(
                        f"extra{step}",
                        ScenarioSpec("test.flaky", {"x": step}),
                        deps=deps,
                    )
                self._check_cycle(parent, target, store, ref_store, skipped)
                parent = target

    @staticmethod
    def _check_cycle(base, target, store, ref_store, skipped):
        def cycle():
            plan = plan_delta(target, store, base=base)
            return plan, execute_plan(plan, store, backend="serial")

        def reference():
            nodes, keys = _reference_plan(target, ref_store, base)
            outcome, render = _reference_execute(target, nodes, keys, ref_store)
            return nodes, outcome, render

        (plan, outcome), values = _observed(cycle)
        (ref_nodes, ref_outcome, ref_render), ref_values = _observed(reference)
        assert values == ref_values
        diff, diff_values = _observed(lambda: diff_timelines(store, base, target))
        ref_diff, ref_diff_values = _observed(
            lambda: _reference_diff(ref_store, base, target)
        )
        # The reference reads both results of every node whose key moved;
        # the diff reads them only where the stored fingerprints differ.
        reads = _store_reads(diff_values)
        ref_reads = _store_reads(ref_diff_values)
        assert diff_values == ref_diff_values
        read = sum(
            1 for n in diff.nodes
            if n.status == "changed" and n.fingerprint_a != n.fingerprint_b
        )
        assert reads == ({"ensemble.store.hits": 2 * read} if read else {})
        assert list(plan.nodes.items()) == list(ref_nodes.items())
        assert plan.render() == _reference_plan_render(target.name, ref_nodes)
        assert plan.reasons() == {
            reason: sum(1 for n in ref_nodes.values() if n.reason == reason)
            for reason in ("changed", "upstream", "added", "missing", "cold")
            if any(n.reason == reason for n in ref_nodes.values())
        }
        assert [(name, _timeless(r)) for name, r in outcome.reports.items()] == [
            (name, _timeless(r)) for name, r in ref_outcome.reports.items()
        ]
        assert (outcome.ok, outcome.nodes_run, outcome.nodes_reused) == (
            ref_outcome.ok,
            ref_outcome.nodes_run,
            sum(1 for r in ref_outcome.reports.values() if r.status == "reused"),
        )
        assert outcome.fingerprints() == ref_outcome.fingerprints()
        ref_stats = dict(ref_outcome.store_stats)
        for stat, amount in skipped.items():
            ref_stats[stat] -= amount
        assert outcome.store_stats == ref_stats
        assert _timeless_text(outcome.render()) == _timeless_text(
            ref_render.replace(str(ref_outcome.store_stats), str(ref_stats))
        )
        for stat in skipped:
            name = f"ensemble.store.{stat}"
            skipped[stat] += ref_reads.get(name, 0) - reads.get(name, 0)
        ref_diff_nodes, ref_diff_render, ref_diff_dict = ref_diff
        assert diff.nodes == ref_diff_nodes
        assert diff.render() == ref_diff_render
        assert diff.as_dict() == ref_diff_dict

    def test_a_second_leaf_cycle_builds_records_only_for_its_cone(
        self, tmp_path, monkeypatch
    ):
        """On a 1,020-node sweep a leaf cycle builds one NodePlan and one
        NodeDiff per cone node, and two NodeReports: its run report and
        the reused entry its moved key needs.  The first cycle against a
        base builds the base's shared reused reports; later ones copy
        them."""
        base = Ensemble("stages")
        for s in range(20):
            stage = base.add(f"stage/{s:02d}", ScenarioSpec("test.double", {"x": s}))
            for leaf in range(50):
                base.add(
                    f"leaf/{s:02d}/{leaf:02d}",
                    ScenarioSpec("test.double", {"x": leaf, "upstream_node": stage}),
                    deps=(stage,),
                )
        store = RunStore(tmp_path)
        with injected(None):
            run_ensemble(base, store=store, backend="serial").raise_if_failed()
            built = {"NodePlan": 0, "NodeReport": 0, "NodeDiff": 0}
            for cls in (NodePlan, NodeReport, NodeDiff):
                real = cls.__init__

                def init(self, *args, _real=real, _name=cls.__name__, **kwargs):
                    built[_name] += 1
                    _real(self, *args, **kwargs)

                monkeypatch.setattr(cls, "__init__", init)
            for leaf, x in (("leaf/03/07", 70), ("leaf/11/42", 71)):
                for name in built:
                    built[name] = 0
                target = perturb(base, params={leaf: {"x": x}})
                plan = plan_delta(target, store, base=base)
                outcome = execute_plan(plan, store, backend="serial")
                seconds = sum(
                    r.seconds for r in outcome.reports.values() if r.status == "run"
                )
                assert outcome.ok and seconds >= 0.0
                results = {name: outcome.result(name) for name in plan.cone}
                diff = diff_timelines(store, base, target)
        assert plan.cone == [leaf] and len(results) == 1
        assert diff.count("changed") == 1 and diff.count("same") == 1019
        assert built == {"NodePlan": 1, "NodeReport": 2, "NodeDiff": 1}
        assert len(outcome.reports) == len(plan.nodes) == len(diff.nodes) == 1020
