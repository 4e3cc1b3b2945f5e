"""MCDB-R risk analysis: extreme quantiles and threshold queries (§2.1).

Reproduces the follow-on MCDB work the paper cites: estimating extreme
quantiles of a query-result distribution (value-at-risk of a stock
portfolio priced by GBM VG functions) and answering probabilistic
threshold queries — "Which regions will see more than a 2% decline in
sales with at least 50% probability?".

Run:  python examples/risk_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro.engine import Database
from repro.mcdb import (
    MonteCarloDatabase,
    NormalVG,
    RandomTableSpec,
    StockOptionVG,
    conditional_value_at_risk,
    extreme_quantile,
    threshold_query,
    value_at_risk,
)
from repro.mcdb.executor import QueryDistribution


def portfolio_risk() -> None:
    print("=" * 64)
    print("1. portfolio risk: VaR / CVaR / extreme quantiles")
    print("=" * 64)
    db = Database()
    db.sql(
        "CREATE TABLE positions (sym text, price float, strike float, "
        "qty int)"
    )
    rng = np.random.default_rng(0)
    for i in range(25):
        price = float(rng.uniform(50, 150))
        db.sql(
            f"INSERT INTO positions VALUES ('S{i}', {price:.2f}, "
            f"{price * 1.02:.2f}, {int(rng.integers(1, 20))})"
        )

    mcdb = MonteCarloDatabase(db, seed=1)
    mcdb.register_random_table(
        RandomTableSpec(
            name="option_values",
            vg=StockOptionVG(),
            outer_table="positions",
            parameters=lambda _db, row: {
                "price": row["price"],
                "strike": row["strike"],
                "drift": 0.0,
                "volatility": 0.03,
                "steps": 5,
            },
        )
    )
    # Portfolio value distribution, then loss relative to its mean
    # (mark-to-expected-value accounting).
    value_dist = mcdb.run_bundled(
        lambda bundles, _db: bundles["option_values"]
        .derive("v", lambda row: row["option_value"] * row["qty"])
        .aggregate_sum("v"),
        n_mc=2000,
    )
    book_value = value_dist.expectation()
    distribution = QueryDistribution(book_value - value_dist.samples)
    print(f"expected portfolio value : {book_value:8.2f}")
    print(f"expected loss            : {distribution.expectation():8.2f}")
    print(f"VaR(95%)                 : {value_at_risk(distribution, 0.95):8.2f}")
    print(f"CVaR(95%)                : "
          f"{conditional_value_at_risk(distribution, 0.95):8.2f}")
    tail = extreme_quantile(distribution.samples, level=0.999)
    print(f"0.999 quantile, empirical: {tail.empirical:8.2f}")
    print(f"0.999 quantile, tail-fit : {tail.tail_extrapolated:8.2f} "
          f"(Hill index {tail.tail_index:.2f})")
    print()


def regional_threshold_query() -> None:
    print("=" * 64)
    print("2. threshold query: regions with >2% sales decline, P >= 50%")
    print("=" * 64)
    db = Database()
    db.sql("CREATE TABLE stores (sid int, region text, base_sales float)")
    rng = np.random.default_rng(2)
    regions = ["northeast", "southeast", "midwest", "west"]
    # Plant a real decline in the southeast, noise elsewhere.
    drift_by_region = {
        "northeast": 0.0, "southeast": -0.04, "midwest": -0.01, "west": 0.01,
    }
    for sid in range(60):
        region = regions[sid % 4]
        db.sql(
            f"INSERT INTO stores VALUES ({sid}, '{region}', "
            f"{float(rng.uniform(80, 120)):.2f})"
        )

    mcdb = MonteCarloDatabase(db, seed=3)
    mcdb.register_random_table(
        RandomTableSpec(
            name="next_sales",
            vg=NormalVG(),
            outer_table="stores",
            parameters=lambda _db, row: {
                "mean": row["base_sales"]
                * (1.0 + drift_by_region[row["region"]]),
                "std": row["base_sales"] * 0.03,
            },
        )
    )
    bundles = mcdb.instantiate_bundles(n_mc=1000)
    sales = bundles["next_sales"]
    future = sales.grouped_aggregate_sum("region", "value")
    base = sales.grouped_aggregate_sum("region", "base_sales")
    decline = {
        region: 1.0 - future[region] / base[region] for region in future
    }
    results = threshold_query(
        decline, lambda d: d > 0.02, min_probability=0.5
    )
    print(f"{'region':>12} {'P(decline > 2%)':>17} {'qualifies':>10}")
    for entry in results:
        print(f"{entry.group:>12} {entry.probability:17.3f} "
              f"{str(entry.qualifies):>10}")


if __name__ == "__main__":
    portfolio_risk()
    regional_threshold_query()
