"""Second-round coverage: paths the first test wave left untouched."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assimilation import LinearGaussianSSM, particle_filter
from repro.engine import Database, Schema, col
from repro.epidemics import (
    DiseaseParameters,
    IndemicsEngine,
    SEIRProcess,
    build_contact_network,
    generate_population,
    run_with_policy,
)
from repro.errors import SimulationError
from repro.metamodel import GaussianProcessMetamodel
from repro.stats import make_rng


class TestFearDynamics:
    """The paper's 'behavioral status (e.g., fear level)' transitions."""

    @pytest.fixture(scope="class")
    def network(self):
        population = generate_population(80, make_rng(0))
        return build_contact_network(population, make_rng(1))

    def test_fear_grows_near_infection(self, network):
        params = DiseaseParameters(fear_growth=0.1)
        process = SEIRProcess(network, params, make_rng(2))
        process.seed_infections(list(network.nodes)[:10])
        for _ in range(5):
            process.step_day()
        fears = [h.fear for h in process.health.values()]
        assert max(fears) > 0.0

    def test_fear_capped_at_one(self, network):
        params = DiseaseParameters(fear_growth=1.0)
        process = SEIRProcess(network, params, make_rng(3))
        process.seed_infections(list(network.nodes)[:20])
        for _ in range(10):
            process.step_day()
        assert max(h.fear for h in process.health.values()) <= 1.0

    def test_fear_reduces_attack_rate(self, network):
        rates = {}
        for growth in (0.0, 0.5):
            params = DiseaseParameters(
                fear_growth=growth, fear_contact_reduction=0.9
            )
            process = SEIRProcess(network, params, make_rng(4))
            process.seed_infections(list(network.nodes)[:5])
            for _ in range(40):
                process.step_day()
            rates[growth] = process.attack_rate()
        assert rates[0.5] <= rates[0.0]


class TestEconomicDamage:
    def test_damage_accumulates(self):
        population = generate_population(100, make_rng(5))
        engine = IndemicsEngine(population, DiseaseParameters(), seed=6)
        engine.seed_infections(5)
        run_with_policy(engine, None, days=20)
        assert engine.person_days_infected() > 0
        damage = engine.economic_damage(cost_per_sick_day=2.0)
        assert damage == pytest.approx(2.0 * engine.person_days_infected())

    def test_vaccination_cost_counted(self):
        population = generate_population(100, make_rng(7))
        engine = IndemicsEngine(population, DiseaseParameters(), seed=8)
        engine.seed_infections(3)
        pids = engine.select_pids("SELECT pid FROM person")
        engine.vaccinate(pids)
        engine.advance(1)
        sick_only = engine.economic_damage(1.0, 0.0)
        with_vax = engine.economic_damage(1.0, 0.5)
        assert with_vax == pytest.approx(sick_only + 0.5 * len(pids))

    def test_negative_cost_rejected(self):
        population = generate_population(30, make_rng(9))
        engine = IndemicsEngine(population, DiseaseParameters(), seed=10)
        with pytest.raises(SimulationError):
            engine.economic_damage(cost_per_sick_day=-1.0)


class TestGPFixedTheta:
    def test_fixed_theta_skips_optimization(self):
        rng = make_rng(0)
        x = rng.uniform(0, 1, size=(12, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        theta = np.array([5.0, 5.0])
        gp = GaussianProcessMetamodel(theta=theta).fit(
            x, y, optimize_theta=False
        )
        np.testing.assert_array_equal(gp.theta, theta)
        # Still interpolates (any positive theta does, via Eq. 6).
        np.testing.assert_allclose(gp.predict(x), y, atol=1e-3)


class TestParticleFilterSummarizer:
    def test_custom_summarizer(self):
        ssm = LinearGaussianSSM()
        _, y = ssm.simulate(10, make_rng(0))
        result = particle_filter(
            ssm.to_state_space_model(),
            y,
            200,
            make_rng(1),
            summarizer=lambda particles: particles**2,
        )
        # Squared-state means are nonnegative by construction.
        assert np.all(result.filtered_means >= 0.0)


class TestEngineEdgeCases:
    def test_left_join_against_empty_right(self):
        db = Database()
        db.create_table("a", Schema.of(k=int))
        db.create_table("b", Schema.of(k=int, v=int))
        db.table("a").insert({"k": 1})
        rows = db.sql(
            "SELECT a.k, b.v FROM a LEFT JOIN b ON a.k = b.k"
        )
        assert rows == [{"k": 1, "v": None}]

    def test_distinct_with_nulls(self):
        db = Database()
        db.create_table("t", Schema.of(x=int))
        db.table("t").insert({"x": None})
        db.table("t").insert({"x": None})
        db.table("t").insert({"x": 1})
        rows = db.sql("SELECT DISTINCT x FROM t")
        assert len(rows) == 2

    def test_order_by_mixed_directions_via_plan(self):
        from repro.engine import plan as lp
        from repro.engine.operators import Executor

        db = Database()
        db.create_table("t", Schema.of(a=int, b=int))
        for a in (1, 2):
            for b in (1, 2):
                db.table("t").insert({"a": a, "b": b})
        node = lp.OrderBy(
            lp.Scan("t"),
            (col("a"), col("b")),
            (False, True),  # a ascending, b descending
        )
        rows = Executor(db).execute(node)
        assert [(r["a"], r["b"]) for r in rows] == [
            (1, 2), (1, 1), (2, 2), (2, 1),
        ]

    def test_group_by_expression(self):
        db = Database()
        db.create_table("t", Schema.of(x=int))
        for x in range(10):
            db.table("t").insert({"x": x})
        rows = db.sql(
            "SELECT x % 2 AS parity, COUNT(*) AS n FROM t "
            "GROUP BY x % 2 ORDER BY parity"
        )
        assert rows == [
            {"parity": 0, "n": 5},
            {"parity": 1, "n": 5},
        ]

    def test_having_on_aggregate_alias(self):
        db = Database()
        db.create_table("t", Schema.of(g=int, v=float))
        for g in (1, 2):
            for i in range(g * 2):
                db.table("t").insert({"g": g, "v": float(i)})
        rows = db.sql(
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING n > 2"
        )
        assert rows == [{"g": 2, "n": 4}]


class TestBundleEdgeCases:
    def test_min_max_all_filtered_out_is_nan(self):
        from repro.mcdb import BundledTable

        rows = [{"pid": 0, "v": np.array([1.0, 2.0])}]
        bundle = BundledTable("b", rows, 2)
        empty = bundle.filter(lambda row: row["v"] > 10.0)
        assert len(empty) == 0
        mins = BundledTable("b", rows, 2).filter(
            lambda row: row["v"] > 1.5
        ).aggregate_min("v")
        assert np.isnan(mins[0]) and mins[1] == 2.0

    def test_scalar_columns_broadcast(self):
        from repro.mcdb import BundledTable

        rows = [{"pid": 7, "v": np.array([1.0, 3.0]), "w": 2.0}]
        bundle = BundledTable("b", rows, 2)
        out = bundle.derive("vw", lambda row: row["v"] * row["w"])
        np.testing.assert_allclose(out.aggregate_sum("vw"), [2.0, 6.0])
