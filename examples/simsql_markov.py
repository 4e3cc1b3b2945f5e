"""Database-valued Markov chains with SimSQL (Section 2.1).

A retailer's database evolves week by week: a stochastic ``inventory``
table is restocked and depleted by a stochastic ``sales`` table whose
demand depends on the *same week's* pricing decisions, which in turn
react to the *previous week's* inventory — SimSQL's recursive, versioned
stochastic tables.  SQL queries against each tick of the chain compute a
service-level metric, and Monte Carlo over whole chains estimates the
distribution of end-of-quarter profit.

Run:  python examples/simsql_markov.py
"""

from __future__ import annotations

import numpy as np

from repro.engine import Database, Table
from repro.simsql import DatabaseMarkovChain, TableTransition
from repro.stats import make_rng

ITEMS = ["widget", "gadget", "doohickey"]
WEEKS = 13  # one quarter


def initial_inventory(state: Database, rng) -> Table:
    return Table.from_rows(
        "inventory",
        [{"item": item, "stock": 120.0, "price": 10.0} for item in ITEMS],
    )


def inventory_transition(state: Database, rng) -> Table:
    """stock[i] = stock[i-1] - sales[i-1] + restock; price reacts to stock."""
    rows = []
    sales_by_item = {}
    if "sales" in state:
        for row in state.table("sales"):
            sales_by_item[row["item"]] = row["units"]
    for row in state.table("inventory"):
        sold = sales_by_item.get(row["item"], 0.0)
        restock = max(100.0 - row["stock"] + sold, 0.0)
        stock = max(row["stock"] - sold, 0.0) + restock
        # Markdown when overstocked, markup when scarce:
        price = 10.0 * (1.0 + 0.3 * (100.0 - stock) / 100.0)
        rows.append({"item": row["item"], "stock": stock, "price": price})
    return Table.from_rows("inventory", rows)


def sales_transition(state: Database, rng) -> Table:
    """Demand this week depends on *this week's* prices (inventory__next)."""
    rows = []
    for row in state.table("inventory__next"):
        demand_rate = 60.0 * (10.0 / row["price"]) ** 1.5
        units = float(min(rng.poisson(demand_rate), row["stock"]))
        rows.append(
            {"item": row["item"], "units": units,
             "revenue": units * row["price"]}
        )
    return Table.from_rows("sales", rows)


def build_chain() -> DatabaseMarkovChain:
    return DatabaseMarkovChain(
        Database(),
        [
            TableTransition(
                "inventory", inventory_transition, initial=initial_inventory
            ),
            TableTransition("sales", sales_transition),
        ],
    )


def main() -> None:
    chain = build_chain()

    # One sample path, observed with SQL at every tick.
    print(f"{'week':>5} {'total stock':>12} {'revenue':>9} {'stockouts':>10}")

    def observer(tick: int, db: Database) -> None:
        stock = db.sql("SELECT SUM(stock) AS s FROM inventory")[0]["s"]
        revenue = db.sql("SELECT SUM(revenue) AS r FROM sales")[0]["r"]
        stockouts = db.sql(
            "SELECT COUNT(*) AS n FROM inventory WHERE stock < 10"
        )[0]["n"]
        print(f"{tick:>5} {stock:12.1f} {revenue:9.1f} {stockouts:10d}")

    chain.run(WEEKS, make_rng(0), observer=observer)

    # Monte Carlo over independent chains: quarterly revenue distribution.
    def quarterly_revenue(store) -> float:
        total = 0.0
        for version in store.versions("sales"):
            table = store.get("sales", version)
            total += sum(table.column_values("revenue"))
        return total

    samples = chain.monte_carlo(
        steps=WEEKS, n_chains=60, functional=quarterly_revenue, seed=1
    )
    print(f"\nquarterly revenue over 60 chains:")
    print(f"  mean   : {samples.mean():10.1f}")
    print(f"  std    : {samples.std(ddof=1):10.1f}")
    print(f"  5%/95% : {np.quantile(samples, 0.05):10.1f} / "
          f"{np.quantile(samples, 0.95):10.1f}")


if __name__ == "__main__":
    main()
