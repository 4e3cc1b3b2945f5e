"""Tests for the Indemics epidemic system."""

from __future__ import annotations

import pytest

from repro.epidemics import (
    DiseaseParameters,
    HealthState,
    IndemicsEngine,
    SchoolClosurePolicy,
    SEIRProcess,
    VaccinatePreschoolersPolicy,
    build_contact_network,
    deactivate_edges,
    generate_population,
    reactivate_all,
    run_with_policy,
)
from repro.errors import SimulationError
from repro.stats import make_rng


@pytest.fixture(scope="module")
def population():
    return generate_population(150, make_rng(0))


@pytest.fixture(scope="module")
def network(population):
    return build_contact_network(population, make_rng(1))


class TestPopulation:
    def test_sizes(self, population):
        assert len(population) > 150  # households have >= 1 member
        assert population.num_households == 150

    def test_age_structure(self, population):
        ages = population.ages()
        assert ages.min() >= 0
        assert ages.max() < 80
        assert (ages < 18).sum() > 0
        assert (ages >= 18).sum() > 0

    def test_preschoolers_are_young(self, population):
        by_pid = {p.pid: p for p in population.persons}
        for pid in population.preschoolers():
            assert 0 <= by_pid[pid].age <= 4

    def test_to_database(self, population):
        db = population.to_database()
        n = db.sql("SELECT COUNT(*) AS n FROM person")[0]["n"]
        assert n == len(population)
        kids = db.sql(
            "SELECT COUNT(*) AS n FROM person WHERE age BETWEEN 0 AND 4"
        )[0]["n"]
        assert kids == len(population.preschoolers())

    def test_validation(self):
        with pytest.raises(SimulationError):
            generate_population(0, make_rng(0))


class TestNetwork:
    def test_every_person_is_a_node(self, population, network):
        assert network.number_of_nodes() == len(population)

    def test_households_are_cliques(self, population, network):
        from collections import defaultdict

        households = defaultdict(list)
        for p in population.persons:
            households[p.household_id].append(p.pid)
        for members in list(households.values())[:20]:
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert network.has_edge(a, b)

    def test_edge_attributes(self, network):
        for _, _, data in list(network.edges(data=True))[:50]:
            assert data["duration"] >= 0
            assert data["contact_type"] in (
                "household", "school", "work", "community",
            )
            assert data["active"] is True

    def test_deactivate_and_reactivate(self, population, network):
        graph = network.copy()
        pids = [population.persons[0].pid]
        count = deactivate_edges(graph, pids)
        assert count == graph.degree(pids[0])
        reactivate_all(graph)
        active = sum(
            1 for _, _, d in graph.edges(data=True) if d["active"]
        )
        assert active == graph.number_of_edges()

    def test_deactivate_filtered_by_type(self, population, network):
        graph = network.copy()
        all_pids = [p.pid for p in population.persons]
        count = deactivate_edges(graph, all_pids, {"school"})
        school_edges = sum(
            1
            for _, _, d in graph.edges(data=True)
            if d["contact_type"] == "school"
        )
        assert count == school_edges


class TestSEIR:
    def test_epidemic_spreads(self, network):
        process = SEIRProcess(network, DiseaseParameters(), make_rng(2))
        seeds = list(network.nodes)[:5]
        process.seed_infections(seeds)
        for _ in range(40):
            process.step_day()
        assert process.attack_rate() > 0.2

    def test_states_partition_population(self, network):
        process = SEIRProcess(network, DiseaseParameters(), make_rng(3))
        process.seed_infections(list(network.nodes)[:3])
        for _ in range(10):
            process.step_day()
        total = sum(process.count(s) for s in HealthState)
        assert total == network.number_of_nodes()

    def test_vaccination_protects(self, network):
        params = DiseaseParameters(vaccine_efficacy=1.0)
        runs = {}
        for vaccinate in (False, True):
            process = SEIRProcess(network, params, make_rng(4))
            seeds = list(network.nodes)[:5]
            if vaccinate:
                others = [n for n in network.nodes if n not in seeds]
                process.vaccinate(others)
            process.seed_infections(seeds)
            for _ in range(40):
                process.step_day()
            runs[vaccinate] = process.attack_rate()
        assert runs[True] < runs[False]
        # Perfect vaccine: only the seeds are ever infected.
        assert runs[True] == pytest.approx(5 / network.number_of_nodes())

    def test_unknown_person(self, network):
        process = SEIRProcess(network, DiseaseParameters(), make_rng(5))
        with pytest.raises(SimulationError):
            process.seed_infections([999999])

    def test_parameter_validation(self):
        with pytest.raises(SimulationError):
            DiseaseParameters(transmission_rate=0.0)
        with pytest.raises(SimulationError):
            DiseaseParameters(vaccine_efficacy=1.5)


class TestEngine:
    def _engine(self, population, seed=6):
        engine = IndemicsEngine(population, DiseaseParameters(), seed=seed)
        engine.seed_infections(5)
        return engine

    def test_sql_observation(self, population):
        engine = self._engine(population)
        n = engine.scalar("SELECT COUNT(*) AS n FROM infected_person")
        assert n == 5

    def test_advance_records_history(self, population):
        engine = self._engine(population)
        engine.advance(10)
        assert len(engine.history) == 10
        assert engine.epidemic_curve().shape == (10,)

    def test_sync_reflects_process(self, population):
        engine = self._engine(population)
        engine.advance(5)
        n_sql = engine.scalar("SELECT COUNT(*) AS n FROM infected_person")
        n_proc = engine.process.count(HealthState.EXPOSED) + engine.process.count(
            HealthState.INFECTIOUS
        )
        assert n_sql == n_proc

    def test_select_pids_requires_pid_column(self, population):
        engine = self._engine(population)
        with pytest.raises(SimulationError):
            engine.select_pids("SELECT age FROM person LIMIT 1")

    def test_intervention_via_sql_selection(self, population):
        engine = self._engine(population)
        pids = engine.select_pids(
            "SELECT pid FROM person WHERE age BETWEEN 0 AND 4"
        )
        new = engine.vaccinate(pids)
        assert new == len(pids)
        vaccinated = engine.scalar(
            "SELECT COUNT(*) AS n FROM health_state WHERE vaccinated = true"
        )
        assert vaccinated == len(pids)


class TestAlgorithm1:
    def test_policy_triggers_and_vaccinates(self, population):
        engine = IndemicsEngine(population, DiseaseParameters(), seed=7)
        engine.seed_infections(8)
        policy = VaccinatePreschoolersPolicy(threshold=0.01)
        log = run_with_policy(engine, policy, days=40)
        triggered = [e for e in log if e.triggered]
        assert len(triggered) == 1
        assert triggered[0].action_size == len(population.preschoolers())

    def test_policy_reduces_preschool_attack_rate(self, population):
        results = {}
        for use_policy in (False, True):
            engine = IndemicsEngine(
                population,
                DiseaseParameters(vaccine_efficacy=0.95),
                seed=8,
            )
            engine.seed_infections(8)
            policy = (
                VaccinatePreschoolersPolicy(0.005) if use_policy else None
            )
            run_with_policy(engine, policy, days=50)
            preschool = set(population.preschoolers())
            infected = sum(
                1
                for pid, h in engine.process.health.items()
                if pid in preschool and h.infected_on_day is not None
            )
            results[use_policy] = infected / max(len(preschool), 1)
        assert results[True] < results[False]

    def test_school_closure_policy(self, population):
        engine = IndemicsEngine(population, DiseaseParameters(), seed=9)
        engine.seed_infections(8)
        policy = SchoolClosurePolicy(threshold=0.01)
        log = run_with_policy(engine, policy, days=30)
        triggered = [e for e in log if e.triggered]
        assert len(triggered) <= 1
        if triggered:
            assert triggered[0].action_size > 0

    def test_policy_without_setup_raises(self, population):
        engine = IndemicsEngine(population, DiseaseParameters(), seed=10)
        policy = VaccinatePreschoolersPolicy()
        with pytest.raises(SimulationError):
            policy.apply(engine, 1)
