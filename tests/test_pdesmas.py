"""Tests for PDES-MAS range queries."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.pdesmas import (
    CLPTree,
    PdesMasScenario,
    RangeQuery,
    SSV,
    make_alps,
    range_query_latest,
    range_query_timestamped,
    result_discrepancy,
)
from repro.stats import make_rng


class TestSSV:
    def test_read_returns_latest_at_or_before(self):
        ssv = SSV("x", 0)
        ssv.write(1.0, 10)
        ssv.write(3.0, 30)
        assert ssv.read(0.5) == 0
        assert ssv.read(1.0) == 10
        assert ssv.read(2.9) == 10
        assert ssv.read(5.0) == 30

    def test_write_must_be_monotone(self):
        ssv = SSV("x")
        ssv.write(2.0, 1)
        with pytest.raises(SimulationError):
            ssv.write(1.0, 2)

    def test_same_time_write_overwrites(self):
        ssv = SSV("x")
        ssv.write(1.0, 1)
        ssv.write(1.0, 2)
        assert ssv.read(1.0) == 2
        assert ssv.history_length == 2  # initial + one at t=1

    def test_read_latest(self):
        ssv = SSV("x", 5)
        ts, value = ssv.read_latest()
        assert (ts, value) == (0.0, 5)

    def test_prune(self):
        ssv = SSV("x", 0)
        for t in range(1, 6):
            ssv.write(float(t), t)
        dropped = ssv.prune_before(3.0)
        assert dropped == 3
        assert ssv.read(3.0) == 3
        assert ssv.read(5.0) == 5

    def test_counters(self):
        ssv = SSV("x", 0)
        ssv.write(1.0, 1)
        ssv.read(1.0)
        assert ssv.write_count == 1
        assert ssv.read_count == 1


class TestCLPTree:
    def test_leaf_count(self):
        tree = CLPTree(num_leaves=5)
        assert len(tree.leaves) == 5

    def test_register_and_access(self):
        tree = CLPTree(num_leaves=4)
        ssv = SSV("a", 1)
        tree.register_ssv(ssv, leaf_index=0)
        found, hops = tree.access("a", 0)
        assert found is ssv
        assert hops == 0
        _, hops_far = tree.access("a", 3)
        assert hops_far > 0

    def test_duplicate_registration(self):
        tree = CLPTree(num_leaves=2)
        tree.register_ssv(SSV("a"), 0)
        with pytest.raises(SimulationError):
            tree.register_ssv(SSV("a"), 1)

    def test_unknown_ssv(self):
        tree = CLPTree(num_leaves=2)
        with pytest.raises(SimulationError):
            tree.owner_of("nope")

    def test_migration_moves_toward_accessor(self):
        tree = CLPTree(num_leaves=4)
        tree.register_ssv(SSV("a", 1), leaf_index=0)
        for _ in range(10):
            tree.access("a", 3)
        moved = tree.migrate()
        assert moved == 1
        assert tree.owner_of("a") is tree.leaves[3]
        _, hops = tree.access("a", 3)
        assert hops == 0

    def test_migration_reduces_total_hops(self):
        def workload(migrate: bool) -> int:
            tree = CLPTree(num_leaves=8)
            for i in range(8):
                tree.register_ssv(SSV(("agent", i)), leaf_index=i)
            for round_ in range(5):
                for i in range(8):
                    tree.access(("agent", i), 0)
                if migrate and round_ == 0:
                    tree.migrate()
            return tree.hops

        assert workload(True) < workload(False)


class TestRangeQueries:
    def _tree_with_agents(self):
        tree = CLPTree(num_leaves=2)
        data = [
            (0, 10.0, 10.0, 30),
            (1, 12.0, 10.0, 20),
            (2, 50.0, 50.0, 40),
        ]
        for agent_id, x, y, age in data:
            ssv = SSV(("agent", agent_id), {"x": x, "y": y, "age": age})
            tree.register_ssv(ssv, leaf_index=agent_id % 2)
        return tree

    def test_spatial_and_attribute_predicate(self):
        tree = self._tree_with_agents()
        query = RangeQuery(10.0, 10.0, radius=5.0, min_age=25, time=0.0)
        result = range_query_timestamped(tree, query)
        assert result.matching_agents == {0}  # agent 1 too young, 2 too far

    def test_latest_vs_timestamped_divergence(self):
        tree = self._tree_with_agents()
        # Agent 0 moves far away at a *future* logical time.
        ssv = tree.owner_of(("agent", 0)).ssvs[("agent", 0)]
        ssv.write(10.0, {"x": 90.0, "y": 90.0, "age": 30})
        query = RangeQuery(10.0, 10.0, radius=5.0, min_age=25, time=0.0)
        exact = range_query_timestamped(tree, query)
        latest = range_query_latest(tree, query)
        assert exact.matching_agents == {0}
        assert latest.matching_agents == set()
        assert result_discrepancy(exact, latest) == 1.0

    def test_stale_read_reported(self):
        tree = self._tree_with_agents()
        query = RangeQuery(10.0, 10.0, radius=5.0, time=7.0)
        result = range_query_timestamped(tree, query)
        assert result.stale_reads == 3  # nobody has written past t=0
        assert result.max_staleness == 7.0

    def test_discrepancy_empty_sets(self):
        tree = self._tree_with_agents()
        query = RangeQuery(-50.0, -50.0, radius=1.0, time=0.0)
        a = range_query_timestamped(tree, query)
        b = range_query_latest(tree, query)
        assert result_discrepancy(a, b) == 0.0


class TestScenario:
    def test_runs_and_reports(self):
        scenario = PdesMasScenario(num_alps=4, agents_per_alp=5, seed=0)
        report = scenario.run(cycles=10)
        assert report.queries_issued == 20
        assert 0.0 <= report.mean_discrepancy <= 1.0
        assert report.mean_lvt_spread > 0.0

    def test_skew_increases_discrepancy(self):
        low_skew = PdesMasScenario(
            num_alps=6, agents_per_alp=5, rate_skew=1.0, seed=1
        ).run(cycles=15)
        high_skew = PdesMasScenario(
            num_alps=6, agents_per_alp=5, rate_skew=16.0, seed=1
        ).run(cycles=15)
        assert high_skew.mean_lvt_spread > low_skew.mean_lvt_spread

    def test_migration_cuts_query_hops_with_pinned_leaf(self):
        base = PdesMasScenario(num_alps=8, agents_per_alp=4, seed=2).run(
            cycles=12, query_from_leaf=0
        )
        migrated = PdesMasScenario(num_alps=8, agents_per_alp=4, seed=2).run(
            cycles=12, query_from_leaf=0, migrate_every=4
        )
        assert (
            migrated.timestamped_hops + migrated.latest_hops
            < base.timestamped_hops + base.latest_hops
        )
        assert migrated.migrations > 0

    def test_gvt_is_minimum(self):
        scenario = PdesMasScenario(num_alps=3, agents_per_alp=2, seed=3)
        scenario.run(cycles=3)
        times = [alp.lvt for alp in scenario.alps]
        assert scenario.global_virtual_time() == min(times)

    def test_seed_stream_golden_values(self):
        # Pins the repo-wide seeding convention (SeedSequence keyed by
        # the crc32 of "pdesmas.scenario"): these values must only
        # change if the seeding scheme changes deliberately.
        report = PdesMasScenario(
            num_alps=4, agents_per_alp=5, seed=123
        ).run(cycles=6, queries_per_cycle=2)
        assert report.queries_issued == 12
        assert report.mean_discrepancy == pytest.approx(
            0.23611111111111113, rel=1e-12
        )
        assert report.mean_lvt_spread == pytest.approx(
            6.849381948812861, rel=1e-12
        )

    def test_same_seed_reproduces_exactly(self):
        runs = [
            PdesMasScenario(num_alps=4, agents_per_alp=5, seed=123).run(
                cycles=6, queries_per_cycle=2
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_validation(self):
        with pytest.raises(SimulationError):
            CLPTree(0)
        with pytest.raises(SimulationError):
            make_alps(0, 1, CLPTree(1), make_rng(0))
        scenario = PdesMasScenario(num_alps=2, agents_per_alp=2, seed=4)
        with pytest.raises(SimulationError):
            scenario.run(cycles=0)


class TestFossilCollection:
    def test_gvt_pruning_bounds_history(self):
        kept = {}
        for collect in (False, True):
            scenario = PdesMasScenario(
                num_alps=4, agents_per_alp=5, rate_skew=2.0, seed=5
            )
            scenario.run(cycles=25, fossil_collect=collect)
            kept[collect] = sum(
                ssv.history_length for ssv in scenario.tree.all_ssvs()
            )
        assert kept[True] < kept[False]

    def test_pruned_scenario_queries_still_answerable(self):
        scenario = PdesMasScenario(
            num_alps=4, agents_per_alp=5, rate_skew=4.0, seed=6
        )
        report = scenario.run(cycles=15, fossil_collect=True)
        # Queries at GVT remain answerable after pruning below GVT.
        assert 0.0 <= report.mean_discrepancy <= 1.0
