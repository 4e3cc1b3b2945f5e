"""Quickstart: uncertain data in a Monte Carlo database (MCDB).

Reproduces the paper's Section 2.1 walkthrough end to end:

1. the SBP_DATA blood-pressure table — uncertain values described by a
   Normal VG function parametrized by a SQL query over SBP_PARAM;
2. a revenue what-if — "how would the revenue from East Coast customers
   under thirty years old have been affected by a 5% price increase?" —
   answered from the query-result distribution of a Bayesian demand
   model.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.engine import Database
from repro.mcdb import (
    BayesianDemandVG,
    MonteCarloDatabase,
    NormalVG,
    RandomTableSpec,
)


def blood_pressure_demo() -> None:
    """The CREATE TABLE SBP_DATA ... example, in library form."""
    print("=" * 64)
    print("1. SBP_DATA: stochastic table over PATIENTS")
    print("=" * 64)
    db = Database()
    db.sql("CREATE TABLE patients (pid int, gender text)")
    for i in range(200):
        gender = "f" if i % 2 else "m"
        db.sql(f"INSERT INTO patients VALUES ({i}, '{gender}')")
    db.sql("CREATE TABLE sbp_param (mean float, std float)")
    db.sql("INSERT INTO sbp_param VALUES (120.0, 12.0)")

    mcdb = MonteCarloDatabase(db, seed=7)
    mcdb.register_random_table(
        RandomTableSpec(
            name="sbp_data",
            vg=NormalVG(),
            outer_table="patients",                      # FOR EACH p IN PATIENTS
            parameters="SELECT mean, std FROM sbp_param",  # VG parameter query
            select={
                "pid": "outer.pid",
                "gender": "outer.gender",
                "sbp": "vg.value",
            },
        )
    )

    # Query: fraction of patients with hypertension (SBP > 140), as a
    # distribution over database instances — tuple-bundle execution.
    distribution = mcdb.run_bundled(
        lambda bundles, _db: (
            bundles["sbp_data"]
            .filter(lambda row: row["sbp"] > 140.0)
            .aggregate_count()
            / 200.0
        ),
        n_mc=500,
    )
    interval = distribution.expectation_interval()
    print(f"P(SBP > 140) expectation : {distribution.expectation():.4f}")
    print(
        f"95% CI                   : [{interval.lower:.4f}, "
        f"{interval.upper:.4f}]"
    )
    print(f"0.95 quantile            : {distribution.quantile(0.95):.4f}")
    print()


def revenue_what_if() -> None:
    """Bayesian per-customer demand + a 5% price-increase what-if."""
    print("=" * 64)
    print("2. Revenue what-if for East Coast customers under 30")
    print("=" * 64)
    db = Database()
    db.sql(
        "CREATE TABLE customers (cid int, age int, region text, "
        "history_mean float, history_n int)"
    )
    rng = np.random.default_rng(11)
    for cid in range(150):
        age = int(rng.integers(18, 70))
        region = "east" if cid % 2 == 0 else "west"
        history_mean = float(rng.normal(1.2, 0.2))
        history_n = int(rng.integers(0, 40))
        db.sql(
            f"INSERT INTO customers VALUES ({cid}, {age}, '{region}', "
            f"{history_mean:.4f}, {history_n})"
        )

    def build_mcdb(price: float) -> MonteCarloDatabase:
        mcdb = MonteCarloDatabase(db, seed=23)
        mcdb.register_random_table(
            RandomTableSpec(
                name="demand",
                vg=BayesianDemandVG(),
                outer_table="customers",
                # Global prior from all customers + each customer's own
                # purchase history, via Bayes' theorem:
                parameters=lambda _db, row: {
                    "price": price,
                    "base": 3.0,
                    "prior_mean": 1.2,
                    "prior_sd": 0.4,
                    "history_mean": row["history_mean"],
                    "history_n": row["history_n"],
                    "noise_sd": 0.5,
                },
            )
        )
        return mcdb

    def east_coast_young_revenue(price: float):
        mcdb = build_mcdb(price)
        return mcdb.run_bundled(
            lambda bundles, _db: (
                bundles["demand"]
                .filter(
                    lambda row: (row["age"] < 30)
                    & (np.char.equal(row["region"].astype(str), "east"))
                )
                .derive("revenue", lambda row: row["demand"] * price)
                .aggregate_sum("revenue")
            ),
            n_mc=300,
        )

    base_price = 10.0
    baseline = east_coast_young_revenue(base_price)
    increased = east_coast_young_revenue(base_price * 1.05)
    print(f"revenue at price {base_price:5.2f}  : "
          f"{baseline.expectation():10.2f}")
    print(f"revenue at price {base_price * 1.05:5.2f}  : "
          f"{increased.expectation():10.2f}")
    delta = increased.expectation() - baseline.expectation()
    print(f"expected change          : {delta:+10.2f}")
    print(
        "P(revenue increases)     : "
        f"{np.mean(increased.samples > baseline.samples):.3f}"
    )


if __name__ == "__main__":
    blood_pressure_demo()
    revenue_what_if()
