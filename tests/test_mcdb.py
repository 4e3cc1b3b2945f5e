"""Tests for the Monte Carlo database (MCDB)."""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, Schema, Table
from repro.errors import QueryError, SchemaError, SimulationError, VGFunctionError
from repro.mcdb import (
    BackwardRandomWalkVG,
    BayesianDemandVG,
    BundledTable,
    DiscreteChoiceVG,
    DistributionVG,
    MonteCarloDatabase,
    NormalVG,
    PoissonVG,
    RandomTableSpec,
    StockOptionVG,
    VGFunction,
    threshold_query,
)
from repro.mcdb.risk import conditional_value_at_risk, extreme_quantile, value_at_risk
from repro.mcdb.vg import RaggedRealizations
from repro.stats.distributions import Normal


@pytest.fixture
def sbp_mcdb():
    """The paper's SBP_DATA blood-pressure example."""
    db = Database()
    db.create_table("patients", Schema.of(pid=int, gender=str))
    for i in range(30):
        db.table("patients").insert(
            {"pid": i, "gender": "f" if i % 2 else "m"}
        )
    db.create_table("sbp_param", Schema.of(mean=float, std=float))
    db.table("sbp_param").insert({"mean": 120.0, "std": 10.0})
    mc = MonteCarloDatabase(db, seed=42)
    mc.register_random_table(
        RandomTableSpec(
            name="sbp_data",
            vg=NormalVG(),
            outer_table="patients",
            parameters="SELECT mean, std FROM sbp_param",
            select={"pid": "outer.pid", "gender": "outer.gender", "sbp": "vg.value"},
        )
    )
    return mc


class TestVGFunctions:
    def test_normal_vg_moments(self, rng):
        vg = NormalVG()
        bundle = vg.generate_bundle(rng, {"mean": 5.0, "std": 2.0}, 20000)
        assert bundle["value"].mean() == pytest.approx(5.0, abs=0.1)
        assert bundle["value"].std() == pytest.approx(2.0, abs=0.1)

    def test_normal_vg_missing_params(self, rng):
        with pytest.raises(VGFunctionError):
            NormalVG().generate(rng, {"mean": 1.0})

    def test_poisson_vg(self, rng):
        bundle = PoissonVG().generate_bundle(rng, {"mean": 3.0}, 10000)
        assert bundle["value"].mean() == pytest.approx(3.0, abs=0.15)

    def test_discrete_choice_vg(self, rng):
        params = {"values": [1.0, 10.0], "probabilities": [0.5, 0.5]}
        bundle = DiscreteChoiceVG().generate_bundle(rng, params, 5000)
        assert set(np.unique(bundle["value"])) <= {1.0, 10.0}

    def test_backward_walk_positive_prices(self, rng):
        vg = BackwardRandomWalkVG()
        params = {"current_price": 100.0, "steps_back": 5, "sigma": 0.05}
        bundle = vg.generate_bundle(rng, params, 1000)
        assert np.all(bundle["prior_price"] > 0)
        # Median should be near the current price (symmetric log walk).
        assert np.median(bundle["prior_price"]) == pytest.approx(100.0, rel=0.05)

    def test_stock_option_value_nonnegative(self, rng):
        vg = StockOptionVG()
        params = {
            "price": 100.0,
            "strike": 105.0,
            "drift": 0.0,
            "volatility": 0.02,
            "steps": 5,
        }
        bundle = vg.generate_bundle(rng, params, 2000)
        assert np.all(bundle["option_value"] >= 0)
        assert (bundle["option_value"] > 0).mean() < 0.5  # mostly OTM

    def test_bayesian_demand_shrinks_to_history(self, rng):
        vg = BayesianDemandVG()
        base = {
            "price": 10.0,
            "base": 3.0,
            "prior_mean": 1.0,
            "prior_sd": 1.0,
            "noise_sd": 0.5,
        }
        no_history = vg.generate_bundle(
            rng, {**base, "history_mean": 2.0, "history_n": 0}, 4000
        )
        rich_history = vg.generate_bundle(
            rng, {**base, "history_mean": 2.0, "history_n": 100}, 4000
        )
        assert no_history["elasticity"].mean() == pytest.approx(1.0, abs=0.1)
        assert rich_history["elasticity"].mean() == pytest.approx(2.0, abs=0.1)
        # Posterior contracts with more data.
        assert rich_history["elasticity"].std() < no_history["elasticity"].std()

    def test_scalar_and_bundle_agree_in_distribution(self, rng):
        vg = NormalVG()
        params = {"mean": 0.0, "std": 1.0}
        scalars = [vg.generate(rng, params)["value"] for _ in range(4000)]
        assert np.mean(scalars) == pytest.approx(0.0, abs=0.08)


class TestRandomTable:
    def test_instantiate_shape(self, sbp_mcdb, rng):
        table = sbp_mcdb._specs["sbp_data"].instantiate(sbp_mcdb.db, rng)
        assert len(table) == 30
        assert set(table.schema.names) == {"pid", "gender", "sbp"}

    def test_parameter_query_must_return_one_row(self, rng):
        db = Database()
        db.create_table("outer_t", Schema.of(k=int))
        db.table("outer_t").insert({"k": 1})
        db.create_table("params", Schema.of(mean=float, std=float))
        spec = RandomTableSpec(
            name="r",
            vg=NormalVG(),
            outer_table="outer_t",
            parameters="SELECT mean, std FROM params",
        )
        with pytest.raises(VGFunctionError):
            spec.instantiate(db, rng)

    def test_row_dependent_parameters(self, rng):
        db = Database()
        db.create_table("items", Schema.of(iid=int, base=float))
        db.table("items").insert_many(
            [{"iid": 1, "base": 10.0}, {"iid": 2, "base": 1000.0}]
        )
        spec = RandomTableSpec(
            name="noisy",
            vg=NormalVG(),
            outer_table="items",
            parameters=lambda _db, row: {"mean": row["base"], "std": 1e-9},
        )
        table = spec.instantiate(db, rng)
        values = dict(zip(table.column_values("iid"), table.column_values("value")))
        assert values[1] == pytest.approx(10.0, abs=1e-6)
        assert values[2] == pytest.approx(1000.0, abs=1e-6)

    def test_column_collision_detected(self, rng):
        db = Database()
        db.create_table("outer_t", Schema.of(value=float))
        db.table("outer_t").insert({"value": 1.0})
        spec = RandomTableSpec(
            name="r",
            vg=NormalVG(),
            outer_table="outer_t",
            parameters={"mean": 0.0, "std": 1.0},
        )
        with pytest.raises(VGFunctionError):
            spec.instantiate(db, rng)

    def test_empty_outer_table(self, rng):
        db = Database()
        db.create_table("outer_t", Schema.of(k=int))
        spec = RandomTableSpec(
            name="r", vg=NormalVG(), outer_table="outer_t",
            parameters={"mean": 0.0, "std": 1.0},
        )
        with pytest.raises(VGFunctionError):
            spec.instantiate(db, rng)

    @staticmethod
    def _counting_sql(monkeypatch):
        calls = []
        original = Database.sql

        def counted(self, statement, *args, **kwargs):
            calls.append(statement)
            return original(self, statement, *args, **kwargs)

        monkeypatch.setattr(Database, "sql", counted)
        return calls

    @staticmethod
    def _patients_db(n):
        db = Database()
        db.create_table("patients", Schema.of(pid=int))
        db.table("patients").insert_many([{"pid": i} for i in range(n)])
        db.create_table("sbp_param", Schema.of(mean=float, std=float))
        db.table("sbp_param").insert({"mean": 120.0, "std": 10.0})
        return db

    def test_sql_parameters_run_once_per_instantiation(self, monkeypatch):
        db = self._patients_db(150)
        spec = RandomTableSpec(
            name="sbp", vg=NormalVG(), outer_table="patients",
            parameters="SELECT mean, std FROM sbp_param",
        )
        calls = self._counting_sql(monkeypatch)
        table = spec.instantiate(db, np.random.default_rng(0))
        assert len(table) == 150
        assert calls == ["SELECT mean, std FROM sbp_param"]
        bundle = spec.instantiate_bundle(db, np.random.default_rng(0), 8)
        assert len(bundle) == 150
        assert len(calls) == 2

    def test_callable_parameters_see_every_outer_row(self, rng):
        db = self._patients_db(5)
        seen = []

        def params(_db, row):
            seen.append(row["pid"])
            return {"mean": float(row["pid"]), "std": 1e-9}

        spec = RandomTableSpec(
            name="r", vg=NormalVG(), outer_table="patients",
            parameters=params,
        )
        spec.instantiate(db, rng)
        assert seen == [0, 1, 2, 3, 4]
        spec.instantiate_bundle(db, rng, 3)
        assert seen == [0, 1, 2, 3, 4] * 2

    def test_empty_outer_table_with_sql_parameters(self, rng, monkeypatch):
        db = self._patients_db(0)
        spec = RandomTableSpec(
            name="r", vg=NormalVG(), outer_table="patients",
            parameters="SELECT mean, std FROM sbp_param",
        )
        calls = self._counting_sql(monkeypatch)
        with pytest.raises(VGFunctionError, match="generated zero rows"):
            spec.instantiate(db, rng)
        with pytest.raises(VGFunctionError, match="generated zero rows"):
            spec.instantiate_bundle(db, rng, 4)
        assert calls == []

    def test_vg_mutating_params_does_not_leak_to_next_row(self, rng):
        class Draining(NormalVG):
            """Reads its mean, then corrupts the dict it was handed."""

            def generate(self, rng, params):
                value = params["mean"]
                params["mean"] += 1000.0
                return {"value": value}

            def generate_bundle(self, rng, params, n):
                value = np.full(n, params["mean"])
                params["mean"] += 1000.0
                return {"value": value}

        db = self._patients_db(4)
        for parameters in (
            "SELECT mean, std FROM sbp_param",
            {"mean": 120.0, "std": 10.0},
        ):
            spec = RandomTableSpec(
                name="r", vg=Draining(), outer_table="patients",
                parameters=parameters,
            )
            table = spec.instantiate(db, rng)
            assert table.column_values("value") == [120.0] * 4
            bundle = spec.instantiate_bundle(db, rng, 3)
            for row in bundle.rows:
                assert row["value"].tolist() == [120.0] * 3
        assert parameters == {"mean": 120.0, "std": 10.0}


class TestBundledTable:
    def _bundle(self, n_mc=100):
        rows = [
            {"pid": 0, "value": np.linspace(0, 1, n_mc)},
            {"pid": 1, "value": np.linspace(1, 2, n_mc)},
        ]
        return BundledTable("b", rows, n_mc)

    def test_aggregate_sum(self):
        b = self._bundle()
        total = b.aggregate_sum("value")
        np.testing.assert_allclose(
            total, np.linspace(0, 1, 100) + np.linspace(1, 2, 100)
        )

    def test_filter_masks_iterations(self):
        b = self._bundle()
        filtered = b.filter(lambda row: row["value"] > 0.5)
        counts = filtered.aggregate_count()
        assert counts.min() >= 1  # row 1 always > 0.5 after halfway
        assert counts.max() == 2

    def test_avg_handles_empty_iterations(self):
        rows = [{"pid": 0, "value": np.array([1.0, 10.0])}]
        b = BundledTable("b", rows, 2)
        filtered = b.filter(lambda row: row["value"] > 5.0)
        avg = filtered.aggregate_avg("value")
        # Row absent in iteration 0 -> table empty there -> no rows at all,
        # so the filtered table has the row masked out in iteration 0.
        assert np.isnan(avg[0])
        assert avg[1] == 10.0

    def test_min_max(self):
        b = self._bundle()
        np.testing.assert_allclose(b.aggregate_min("value"), np.linspace(0, 1, 100))
        np.testing.assert_allclose(b.aggregate_max("value"), np.linspace(1, 2, 100))

    def test_derive(self):
        b = self._bundle().derive("scaled", lambda row: row["value"] * 10)
        np.testing.assert_allclose(
            b.aggregate_max("scaled"), np.linspace(1, 2, 100) * 10
        )

    def test_grouped_sum(self):
        b = self._bundle()
        groups = b.grouped_aggregate_sum("pid", "value")
        assert set(groups) == {0, 1}
        np.testing.assert_allclose(groups[0], np.linspace(0, 1, 100))

    def test_join_deterministic(self):
        b = self._bundle()
        other = [{"pid": 0, "weight": 2.0}, {"pid": 1, "weight": 3.0}]
        joined = b.join_deterministic(other, "pid", "pid")
        assert len(joined) == 2
        weighted = joined.derive("w", lambda r: r["value"] * r["weight"])
        assert weighted.aggregate_sum("w")[0] == pytest.approx(
            0.0 * 2.0 + 1.0 * 3.0
        )

    def test_join_uncertain_key_rejected(self):
        b = self._bundle()
        with pytest.raises(QueryError):
            b.join_deterministic([{"value": 1}], "value", "value")

    def test_bad_predicate_shape(self):
        b = self._bundle()
        with pytest.raises(QueryError):
            b.filter(lambda row: np.array([True]))


class TestMonteCarloDatabase:
    def test_naive_expectation(self, sbp_mcdb):
        dist = sbp_mcdb.run_naive(
            lambda inst: inst.sql("SELECT AVG(sbp) AS m FROM sbp_data")[0]["m"],
            n_mc=60,
        )
        assert dist.expectation() == pytest.approx(120.0, abs=1.5)

    def test_bundled_expectation_matches_naive(self, sbp_mcdb):
        naive = sbp_mcdb.run_naive(
            lambda inst: inst.sql("SELECT AVG(sbp) AS m FROM sbp_data")[0]["m"],
            n_mc=80,
        )
        bundled = sbp_mcdb.run_bundled(
            lambda bundles, _db: bundles["sbp_data"].aggregate_avg("sbp"),
            n_mc=80,
        )
        assert bundled.expectation() == pytest.approx(
            naive.expectation(), abs=1.0
        )
        assert bundled.n == 80

    def test_probability_estimates(self, sbp_mcdb):
        dist = sbp_mcdb.run_bundled(
            lambda bundles, _db: bundles["sbp_data"].aggregate_avg("sbp"),
            n_mc=200,
        )
        p = dist.probability_above(120.0)
        assert 0.2 < p < 0.8

    def test_duplicate_registration(self, sbp_mcdb):
        with pytest.raises(SimulationError):
            sbp_mcdb.register_random_table(
                RandomTableSpec(name="sbp_data", vg=NormalVG())
            )

    def test_reproducible_across_runs(self, sbp_mcdb):
        q = lambda bundles, _db: bundles["sbp_data"].aggregate_avg("sbp")
        a = sbp_mcdb.run_bundled(q, n_mc=10).samples
        b = sbp_mcdb.run_bundled(q, n_mc=10).samples
        np.testing.assert_array_equal(a, b)

    def test_bad_bundled_shape(self, sbp_mcdb):
        with pytest.raises(SimulationError):
            sbp_mcdb.run_bundled(lambda b, d: np.zeros(3), n_mc=5)


class TestRisk:
    def test_threshold_query(self):
        groups = {
            "east": np.array([0.03] * 60 + [0.0] * 40),
            "west": np.array([0.03] * 30 + [0.0] * 70),
        }
        results = threshold_query(
            groups, lambda decline: decline > 0.02, min_probability=0.5
        )
        verdicts = {r.group: r.qualifies for r in results}
        assert verdicts == {"east": True, "west": False}
        assert results[0].group == "east"  # sorted by probability

    def test_threshold_validation(self):
        with pytest.raises(SimulationError):
            threshold_query({}, lambda x: x > 0, min_probability=0.0)

    def test_var_cvar_ordering(self, rng):
        from repro.mcdb import QueryDistribution

        dist = QueryDistribution(rng.lognormal(0, 1, size=2000))
        var = value_at_risk(dist, 0.95)
        cvar = conditional_value_at_risk(dist, 0.95)
        assert cvar >= var

    def test_extreme_quantile_extrapolates_beyond_sample(self, rng):
        # Pareto(alpha=2) data: true 0.999 quantile is ~31.6
        alpha = 2.0
        data = (1.0 - rng.uniform(size=2000)) ** (-1.0 / alpha)
        est = extreme_quantile(data, level=0.999)
        true_q = (1.0 / 0.001) ** (1.0 / alpha)
        # Tail extrapolation should land within a factor ~2 of truth and
        # recover the tail index roughly.
        assert 0.4 * true_q < est.tail_extrapolated < 2.5 * true_q
        assert est.tail_index == pytest.approx(alpha, rel=0.5)

    def test_extreme_quantile_validation(self):
        with pytest.raises(SimulationError):
            extreme_quantile([1.0] * 10, level=0.99)
        with pytest.raises(SimulationError):
            extreme_quantile(list(range(100)), level=0.4)


class TestBundleQuantiles:
    def test_per_iteration_quantile(self):
        rows = [
            {"pid": i, "value": np.full(3, float(i))} for i in range(11)
        ]
        bundle = BundledTable("b", rows, 3)
        medians = bundle.aggregate_quantile("value", 0.5)
        np.testing.assert_allclose(medians, [5.0, 5.0, 5.0])

    def test_quantile_respects_masks(self):
        rows = [
            {"pid": i, "value": np.full(2, float(i))} for i in range(10)
        ]
        bundle = BundledTable("b", rows, 2).filter(
            lambda row: row["value"] >= 5.0
        )
        q0 = bundle.aggregate_quantile("value", 0.0)
        np.testing.assert_allclose(q0, [5.0, 5.0])

    def test_quantile_empty_iteration_nan(self):
        rows = [{"pid": 0, "value": np.array([1.0, 10.0])}]
        bundle = BundledTable("b", rows, 2).filter(
            lambda row: row["value"] > 5.0
        )
        q = bundle.aggregate_quantile("value", 0.5)
        assert np.isnan(q[0]) and q[1] == 10.0

    def test_quantile_level_validation(self):
        rows = [{"pid": 0, "value": np.array([1.0])}]
        with pytest.raises(QueryError):
            BundledTable("b", rows, 1).aggregate_quantile("value", 1.5)


class TestAggregateNullSemantics:
    def test_count_star_vs_count_column(self):
        from repro.engine import Database, Schema

        db = Database()
        db.create_table("t", Schema.of(x=float))
        db.table("t").insert({"x": 1.0})
        db.table("t").insert({"x": None})
        row = db.sql(
            "SELECT COUNT(*) AS all_rows, COUNT(x) AS non_null FROM t"
        )[0]
        assert row == {"all_rows": 2, "non_null": 1}

    def test_avg_skips_nulls(self):
        from repro.engine import Database, Schema

        db = Database()
        db.create_table("t", Schema.of(x=float))
        db.table("t").insert_many(
            [{"x": 2.0}, {"x": None}, {"x": 4.0}]
        )
        assert db.sql("SELECT AVG(x) AS a FROM t")[0]["a"] == 3.0


# -- column-built worlds against the row-at-a-time reference ------------------
#
# ``RandomTableSpec.instantiate`` builds a naive world a column at a time.
# The reference below is the row-at-a-time body it replaced: one
# ``generate`` per outer row, ``_assemble`` per row, then
# ``Table.from_rows``.  Both must give the same schema, rows (Python
# types included), column batch and generator state, and raise the same
# errors.  Examples are derandomized.


def reference_instantiate(spec, db, rng):
    rows = []
    for outer_row, params in spec._parametrized_rows(db):
        rows.append(spec._assemble(outer_row, spec.vg.generate(rng, params)))
    if not rows:
        raise VGFunctionError(
            f"random table {spec.name!r} generated zero rows; "
            f"outer table {spec.outer_table!r} is empty"
        )
    return Table.from_rows(spec.name, rows)


class OnlyGenerate(VGFunction):
    """A user VG with only ``generate``; its realization lists ``b`` first
    and it writes to the parameters it is handed."""

    output_columns = ("a", "b")

    def generate(self, rng, params):
        params["calls"] = params.get("calls", 0) + 1
        return {"b": int(rng.integers(0, 10)), "a": float(rng.random()) + params["calls"]}


class MixedNumbers(VGFunction):
    """Returns an int or a float, so the column mixes both."""

    def generate(self, rng, params):
        draw = int(rng.integers(0, 4))
        return {"value": draw if draw % 2 else draw + 0.5}


class UnevenKeys(VGFunction):
    """Realizations whose keys vary: ``b`` now and then, and ``c``
    (outside ``output_columns``) rarely."""

    output_columns = ("a", "b")

    def generate(self, rng, params):
        draw = int(rng.integers(0, 6))
        out = {"a": float(draw)}
        if draw:
            out["b"] = draw
        if draw == 5:
            out["c"] = "extra"
        return out


class Scripted(VGFunction):
    """Realization ``i`` of a world (one generator) holds the keys
    ``script[i]``, each with one draw."""

    output_columns = ("a", "b")

    def __init__(self, *script):
        self.script = script
        self.rng = None

    def generate(self, rng, params):
        if rng is not self.rng:
            self.rng, self.calls = rng, 0
        keys = self.script[self.calls]
        self.calls += 1
        return {k: float(rng.random()) for k in keys}


class ShiftedNormal(NormalVG):
    """Overrides only ``generate`` (and bumps the dict it is handed)."""

    def generate(self, rng, params):
        params["mean"] += 1.0
        return {"value": float(rng.normal(params["mean"], params["std"]))}


#: (VG, parameters, parameter sources it can take).  ``sql`` needs
#: scalar parameters; ``none`` a VG that reads none.
VG_CASES = {
    "normal": (NormalVG(), {"mean": 120.0, "std": 10.0}, ("mapping", "sql", "callable")),
    "poisson": (PoissonVG(), {"mean": 3.5}, ("mapping", "sql", "callable")),
    "discrete": (
        DiscreteChoiceVG(),
        {"values": [1.0, 10.0, 3.0], "probabilities": [0.2, 0.5, 0.3]},
        ("mapping", "callable"),
    ),
    "walk": (
        BackwardRandomWalkVG(),
        {"current_price": 100.0, "steps_back": 3, "sigma": 0.05},
        ("mapping", "sql", "callable"),
    ),
    "option": (
        StockOptionVG(),
        {"price": 100.0, "strike": 99.0, "drift": 0.0, "volatility": 0.02, "steps": 4},
        ("mapping", "sql", "callable"),
    ),
    "demand": (
        BayesianDemandVG(),
        {
            "price": 10.0, "base": 3.0, "prior_mean": 1.0, "prior_sd": 1.0,
            "history_mean": 2.0, "history_n": 5, "noise_sd": 0.5,
        },
        ("mapping", "sql", "callable"),
    ),
    "distribution": (DistributionVG(Normal(0.0, 1.0)), {}, ("none", "mapping", "callable")),
    "only_generate": (OnlyGenerate(), {"scale": 2.0}, ("mapping", "sql", "none", "callable")),
    "mixed": (MixedNumbers(), {}, ("none", "callable")),
    "uneven": (UnevenKeys(), {}, ("none", "mapping", "callable")),
    "shifted_normal": (ShiftedNormal(), {"mean": 0.0, "std": 1.0}, ("mapping", "sql", "callable")),
}

#: Outer columns: declared type and the values a row may hold.
OUTER_COLUMNS = {
    "pid": (int, st.integers(-5, 1000)),
    "x": (float, st.one_of(st.none(), st.floats(-1e6, 1e6))),
    "flag": (bool, st.one_of(st.none(), st.booleans())),
    "big": (int, st.one_of(st.none(), st.integers(2**53 - 2, 2**60))),
    "nul": (int, st.none()),
    "name": (str, st.one_of(st.none(), st.sampled_from(["a", "bb", ""]))),
}


@st.composite
def world_specs(draw):
    """A database, a random-table spec over it and a generator seed."""
    vg_name = draw(st.sampled_from(sorted(VG_CASES)))
    vg, params, sources = VG_CASES[vg_name]
    db = Database()
    outer_table = None
    outer_names: List[str] = []
    if draw(st.booleans()):
        outer_table = "outer_t"
        outer_names = draw(
            st.lists(st.sampled_from(sorted(OUTER_COLUMNS)), min_size=1, max_size=4, unique=True)
        )
        schema = Schema.of(**{c: OUTER_COLUMNS[c][0] for c in outer_names})
        rows = draw(
            st.lists(
                st.fixed_dictionaries({c: OUTER_COLUMNS[c][1] for c in outer_names}),
                min_size=1,
                max_size=8,
            )
        )
        db.create_table(outer_table, schema).insert_many(rows)
    source = draw(st.sampled_from(sources))
    if source == "mapping":
        parameters = dict(params)
    elif source == "sql":
        db.create_table(
            "params", Schema.of(**{k: type(v) for k, v in params.items()})
        ).insert(params)
        parameters = f"SELECT {', '.join(params)} FROM params"
    elif source == "none":
        parameters = None
    else:
        parameters = _RowParams(params)
    vg_columns = list(vg.output_columns)
    select = None
    if draw(st.booleans()):
        sources_ = [f"outer.{c}" for c in outer_names] + [f"vg.{c}" for c in vg_columns]
        picked = draw(st.lists(st.sampled_from(sources_), max_size=6))
        select = {f"c{i}": s for i, s in enumerate(picked)}
    spec = RandomTableSpec(
        name="world", vg=vg, outer_table=outer_table, parameters=parameters, select=select
    )
    return db, spec, draw(st.integers(0, 2**32 - 1))


class _RowParams:
    """A callable parameter source: fixed parameters, and every outer
    row it was shown."""

    def __init__(self, params):
        self.params = params
        self.seen = []

    def __call__(self, _db, row):
        self.seen.append(dict(row))
        return dict(self.params)


def _row_bytes(table):
    return [[(k, type(v), repr(v)) for k, v in row.items()] for row in table.rows]


def _batch_bytes(batch):
    return [
        (
            name, vec.kind, vec.values.dtype.str, repr(vec.values.tolist()),
            vec.valid.tolist(),
            None if vec.dictionary is None else vec.dictionary.tolist(),
        )
        for name, vec in batch.columns.items()
    ] + [batch.length]


def _run(instantiate, db, spec, seed):
    """``(table, generator state, rows a callable source saw)`` or the
    error ``instantiate`` raised, as ``(type, message)``."""
    rng = np.random.default_rng(seed)
    seen = getattr(spec.parameters, "seen", None)
    if seen is not None:
        seen.clear()
    try:
        table = instantiate(db, rng)
    except Exception as exc:  # compared, never swallowed
        return None, (type(exc), str(exc))
    return (table, rng.bit_generator.state, list(seen or [])), None


def _assert_same_world(db, spec, seed):
    got, got_error = _run(spec.instantiate, db, spec, seed)
    want, want_error = _run(
        lambda d, r: reference_instantiate(spec, d, r), db, spec, seed
    )
    assert got_error == want_error
    if want_error is not None:
        return
    table, state, seen = got
    ref, ref_state, ref_seen = want
    assert table.schema == ref.schema
    assert _row_bytes(table) == _row_bytes(ref)
    assert _batch_bytes(table.column_batch()) == _batch_bytes(ref.column_batch())
    assert (table.version, table.reorg_epoch) == (ref.version, ref.reorg_epoch)
    assert state == ref_state
    assert seen == ref_seen


class TestColumnBuiltWorlds:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(world_specs())
    def test_worlds_equal_the_row_reference(self, case):
        db, spec, seed = case
        _assert_same_world(db, spec, seed)

    def test_one_sized_draw_equals_the_scalar_draws(self):
        vg, params, _ = VG_CASES["normal"]
        for n in (1, 5000):
            a, b = np.random.default_rng(n), np.random.default_rng(n)
            columns = vg.generate_many(a, params, n)
            scalars = [vg.generate(b, dict(params))["value"] for _ in range(n)]
            assert [(type(v), repr(v)) for v in columns["value"]] == [
                (type(v), repr(v)) for v in scalars
            ]
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("name", sorted(VG_CASES))
    def test_generate_many_is_n_generate_calls(self, name):
        vg, params, _ = VG_CASES[name]
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        samples = [vg.generate(b, dict(params)) for _ in range(40)]
        try:
            columns = vg.generate_many(a, params, 40)
        except RaggedRealizations as ragged:
            # Keys that vary fit no columns: the realizations come back.
            assert name == "uneven"
            assert [
                [(k, type(v), repr(v)) for k, v in s.items()] for s in ragged.samples
            ] == [[(k, type(v), repr(v)) for k, v in s.items()] for s in samples]
        else:
            assert list(columns) == list(samples[0])
            for column, values in columns.items():
                assert [(type(v), repr(v)) for v in values] == [
                    (type(s[column]), repr(s[column])) for s in samples
                ]
        assert a.bit_generator.state == b.bit_generator.state

    def test_vectorized_vgs_take_one_draw_per_world(self):
        class CountingRng:
            """Forwards to a generator, counting ``normal`` calls."""

            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.normal_calls = 0

            def normal(self, *args, **kwargs):
                self.normal_calls += 1
                return self.rng.normal(*args, **kwargs)

        class Subclassed(NormalVG):
            def generate(self, rng, params):
                return super().generate(rng, params)

        db = TestRandomTable._patients_db(150)
        worlds = []
        for vg in (NormalVG(), Subclassed()):
            spec = RandomTableSpec(
                name="sbp", vg=vg, outer_table="patients",
                parameters="SELECT mean, std FROM sbp_param",
            )
            rng = CountingRng(0)
            worlds.append((spec.instantiate(db, rng), rng))
        (table, rng), (looped, looped_rng) = worlds
        # NormalVG draws the world at once; a subclass's own
        # ``generate`` runs once per patient, and draws the same.
        assert (rng.normal_calls, looped_rng.normal_calls) == (1, 150)
        assert table.rows == looped.rows
        assert rng.rng.bit_generator.state == looped_rng.rng.bit_generator.state

    @pytest.mark.parametrize("source", ["mapping", "callable"])
    def test_outer_table_without_columns(self, source):
        # One world row per outer row, even when the rows hold nothing.
        db = Database()
        db.create_table("outer_t", Schema([])).insert_many([{}, {}, {}])
        params = {"mean": 5.0, "std": 1.0}
        spec = RandomTableSpec(
            name="w", vg=ShiftedNormal(), outer_table="outer_t",
            parameters=params if source == "mapping" else _RowParams(params),
        )
        _assert_same_world(db, spec, 11)
        assert len(spec.instantiate(db, np.random.default_rng(11))) == 3

    def test_first_columnar_scan_converts_nothing(self, monkeypatch, sbp_mcdb):
        from repro.engine import table as table_module

        world = sbp_mcdb.instantiate(np.random.default_rng(3))
        converted = []
        real = table_module.vector_from_typed
        monkeypatch.setattr(
            table_module, "vector_from_typed",
            lambda *a: converted.append(a) or real(*a),
        )
        sql = "SELECT AVG(sbp) AS m FROM sbp_data WHERE sbp > 110"
        assert world.sql(sql, execution="columnar") == world.sql(sql, execution="row")
        assert converted == []

    # -- errors: the reference's type and message, and no parameter query
    # for an empty outer table.

    @staticmethod
    def _db(**columns):
        db = Database()
        db.create_table("outer_t", Schema.of(**{c: type(v) for c, v in columns.items()}))
        db.table("outer_t").insert(columns)
        return db

    @pytest.mark.parametrize(
        "vg, parameters, select, outer",
        [
            # a VG column collides with an outer column
            (NormalVG(), {"mean": 0.0, "std": 1.0}, None, {"value": 1.0}),
            (OnlyGenerate(), None, None, {"b": 1}),
            # a select source outside the two realms, after a good one
            (NormalVG(), {"mean": 0.0, "std": 1.0}, {"v": "vg.value", "w": "bogus.k"}, {"k": 1}),
            # a select source naming no column
            (NormalVG(), {"mean": 0.0, "std": 1.0}, {"v": "outer.nope"}, {"k": 1}),
            (NormalVG(), {"mean": 0.0, "std": 1.0}, {"v": "vg.nope"}, {"k": 1}),
            # missing and invalid parameters
            (NormalVG(), {"mean": 0.0}, None, {"k": 1}),
            (NormalVG(), {"mean": 0.0, "std": None}, None, {"k": 1}),
            (NormalVG(), {"mean": 0.0, "std": -1.0}, None, {"k": 1}),
            (PoissonVG(), {"mean": 0.0}, None, {"k": 1}),
            (PoissonVG(), {}, None, {"k": 1}),
            (DiscreteChoiceVG(), {"values": [1.0], "probabilities": [0.5]}, None, {"k": 1}),
            (BackwardRandomWalkVG(), {"current_price": 1.0, "steps_back": 1}, None, {"k": 1}),
            (ShiftedNormal(), {"mean": 0.0}, None, {"k": 1}),
            (NormalVG(), "SELECT mean, std FROM nowhere", None, {"k": 1}),
        ],
    )
    def test_errors_equal_the_reference(self, vg, parameters, select, outer):
        spec = RandomTableSpec(
            name="w", vg=vg, outer_table="outer_t", parameters=parameters, select=select
        )
        db = self._db(**outer)
        got, error = _run(spec.instantiate, db, spec, 0)
        assert got is None and error is not None
        _assert_same_world(db, spec, 0)

    @pytest.mark.parametrize("source", ["mapping", "callable"])
    @pytest.mark.parametrize(
        "script, select, error",
        [
            # a later realization lacks ``b``: NULL there, unless
            # ``select`` picks it
            ((("a", "b"), ("a",), ("a", "b")), None, None),
            ((("a", "b"), ("a",), ("a", "b")), {"x": "vg.a"}, None),
            ((("a", "b"), ("a",), ("a", "b")), {"x": "vg.b"}, KeyError),
            # a later realization has a key the first lacks: the schema
            # rejects it, ``select`` ignores it, an outer column collides
            ((("a",), ("a", "b"), ("a",)), None, SchemaError),
            ((("a",), ("a", "b", "k"), ("a",)), {"x": "vg.a"}, None),
            ((("a",), ("a", "k"), ("a",)), None, VGFunctionError),
        ],
        ids=[
            "missing-null", "missing-unpicked", "missing-picked",
            "extra-rejected", "extra-unpicked", "extra-collides",
        ],
    )
    def test_ragged_realizations_equal_the_reference(self, source, script, select, error):
        db = Database()
        db.create_table("outer_t", Schema.of(k=int)).insert_many(
            [{"k": i} for i in range(len(script))]
        )
        spec = RandomTableSpec(
            name="w", vg=Scripted(*script), outer_table="outer_t",
            parameters={} if source == "mapping" else _RowParams({}), select=select,
        )
        got, got_error = _run(spec.instantiate, db, spec, 5)
        assert (got_error or (None,))[0] is error
        _assert_same_world(db, spec, 5)

    @pytest.mark.parametrize(
        "parameters", ["SELECT mean, std FROM sbp_param", {"mean": 0.0, "std": 1.0}, None]
    )
    def test_empty_outer_table_raises_before_any_parameter_query(
        self, parameters, monkeypatch
    ):
        db = TestRandomTable._patients_db(0)
        spec = RandomTableSpec(
            name="r", vg=NormalVG(), outer_table="patients", parameters=parameters
        )
        calls = TestRandomTable._counting_sql(monkeypatch)
        _assert_same_world(db, spec, 0)
        with pytest.raises(VGFunctionError, match="generated zero rows"):
            spec.instantiate(db, np.random.default_rng(0))
        assert calls == []
