"""Tests for SimSQL database-valued Markov chains."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine import Database, Schema, Table
from repro.errors import SimulationError
from repro.mapreduce import Cluster
from repro.simsql import (
    DatabaseMarkovChain,
    TableTransition,
    VersionStore,
    row_wise_transition,
    run_grouped_interaction_on_cluster,
    run_transition_on_cluster,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def answers_under_hash_seeds(script):
    """What ``script`` prints in interpreters with different string hashes."""
    answers = []
    for hash_seed in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(REPO_ROOT / "src"),
            PYTHONDONTWRITEBYTECODE="1",
            PYTHONHASHSEED=hash_seed,
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        answers.append(out.stdout)
    return answers


GROUPED_CHILD = """
from repro.engine import Table
from repro.mapreduce import Cluster
from repro.simsql import run_grouped_interaction_on_cluster

table = Table.from_rows(
    "agents", [{"aid": i, "cell": "nsew"[i % 4], "x": float(i)} for i in range(12)]
)
out, _ = run_grouped_interaction_on_cluster(
    Cluster(3, backend="serial"),
    table,
    group_key=lambda row: row["cell"],
    interact=lambda rows, rng: [{**r, "x": r["x"] + float(rng.normal())} for r in rows],
    seed=7,
)
print([float(x) for x in out.column_values("x")])
"""


def _price_chain(base=None, retain=None):
    """A random-walk price table: price[i] = price[i-1] * exp(noise)."""
    base = base or Database()

    def initial(state, rng):
        return Table.from_rows(
            "prices", [{"sym": s, "price": 100.0} for s in ("A", "B", "C")]
        )

    def transition(state, rng):
        rows = []
        for row in state.table("prices"):
            rows.append(
                {
                    "sym": row["sym"],
                    "price": row["price"] * float(np.exp(rng.normal(0, 0.01))),
                }
            )
        return Table.from_rows("prices", rows)

    return DatabaseMarkovChain(
        base,
        [TableTransition("prices", transition, initial=initial)],
        retain=retain,
    )


class TestVersionStore:
    def test_put_get(self):
        store = VersionStore()
        t = Table.from_rows("t", [{"x": 1}])
        store.put("t", 0, t)
        assert store.get("t", 0).column_values("x") == [1]

    def test_snapshots_are_copies(self):
        store = VersionStore()
        t = Table.from_rows("t", [{"x": 1}])
        store.put("t", 0, t)
        t.rows[0]["x"] = 99
        assert store.get("t", 0).column_values("x") == [1]

    def test_duplicate_version_rejected(self):
        store = VersionStore()
        t = Table.from_rows("t", [{"x": 1}])
        store.put("t", 0, t)
        with pytest.raises(SimulationError):
            store.put("t", 0, t)

    def test_retention_window(self):
        store = VersionStore(retain=2)
        for v in range(5):
            store.put("t", v, Table.from_rows("t", [{"x": v}]))
        assert store.versions("t") == [3, 4]
        with pytest.raises(SimulationError):
            store.get("t", 0)

    def test_latest(self):
        store = VersionStore()
        for v in range(3):
            store.put("t", v, Table.from_rows("t", [{"x": v}]))
        assert store.latest("t").column_values("x") == [2]
        assert store.latest_version("t") == 2

    def test_total_rows(self):
        store = VersionStore()
        store.put("t", 0, Table.from_rows("t", [{"x": 1}, {"x": 2}]))
        assert store.total_rows() == 2


class TestDatabaseMarkovChain:
    def test_run_produces_all_versions(self):
        chain = _price_chain()
        store = chain.run(10, np.random.default_rng(0))
        assert store.versions("prices") == list(range(11))

    def test_markov_property_states_differ(self):
        chain = _price_chain()
        store = chain.run(5, np.random.default_rng(0))
        p0 = store.get("prices", 0).column_values("price")
        p5 = store.get("prices", 5).column_values("price")
        assert p0 != p5

    def test_observer_called_each_tick(self):
        chain = _price_chain()
        ticks = []
        chain.run(
            3,
            np.random.default_rng(0),
            observer=lambda tick, db: ticks.append(
                (tick, db.sql("SELECT COUNT(*) AS n FROM prices")[0]["n"])
            ),
        )
        assert ticks == [(0, 3), (1, 3), (2, 3), (3, 3)]

    def test_recursive_two_table_chain(self):
        """A[i] parametrizes B[i], which parametrizes A[i+1]."""
        def a_initial(state, rng):
            return Table.from_rows("a", [{"v": 1.0}])

        def a_transition(state, rng):
            b_prev = state.table("b").column_values("w")[0]
            return Table.from_rows("a", [{"v": b_prev + 1.0}])

        def b_transition(state, rng):
            # Reads the same-tick realization of `a` via a__next.
            a_now = state.table("a__next").column_values("v")[0]
            return Table.from_rows("b", [{"w": a_now * 2.0}])

        chain = DatabaseMarkovChain(
            Database(),
            [
                TableTransition("a", a_transition, initial=a_initial),
                TableTransition("b", b_transition),
            ],
        )
        store = chain.run(3, np.random.default_rng(0))
        # tick0: a=1, b=2; tick1: a=3, b=6; tick2: a=7, b=14; tick3: a=15
        assert store.get("a", 3).column_values("v") == [15.0]
        assert store.get("b", 2).column_values("w") == [14.0]

    def test_monte_carlo_functional(self):
        chain = _price_chain()
        samples = chain.monte_carlo(
            steps=5,
            n_chains=20,
            functional=lambda store: store.latest("prices").column_array(
                "price"
            ).mean(),
            seed=1,
        )
        assert samples.shape == (20,)
        assert samples.mean() == pytest.approx(100.0, rel=0.05)

    def test_monte_carlo_reproducible(self):
        chain = _price_chain()
        f = lambda store: store.latest("prices").column_array("price").sum()
        a = chain.monte_carlo(3, 5, f, seed=9)
        b = chain.monte_carlo(3, 5, f, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(SimulationError):
            DatabaseMarkovChain(Database(), [])
        t = TableTransition("x", lambda s, r: Table.from_rows("x", [{"a": 1}]))
        with pytest.raises(SimulationError):
            DatabaseMarkovChain(Database(), [t, t])

    def test_row_wise_transition_helper(self):
        base = Database()

        def initial(state, rng):
            return Table.from_rows("agents", [{"aid": i, "wealth": 10.0} for i in range(4)])

        update = lambda row, state, rng: {
            "aid": row["aid"],
            "wealth": row["wealth"] + 1.0,
        }
        chain = DatabaseMarkovChain(
            base,
            [
                TableTransition(
                    "agents",
                    row_wise_transition("agents", update),
                    initial=initial,
                )
            ],
        )
        store = chain.run(3, np.random.default_rng(0))
        assert store.get("agents", 3).column_values("wealth") == [13.0] * 4


class TestMapReduceExecution:
    def _table(self, n=12):
        return Table.from_rows(
            "agents", [{"aid": i, "x": float(i)} for i in range(n)]
        )

    def test_transition_matches_any_worker_count(self):
        update = lambda row, rng: {
            "aid": row["aid"],
            "x": row["x"] + float(rng.normal()),
        }
        results = []
        for workers in (1, 3, 7):
            table, _ = run_transition_on_cluster(
                Cluster(workers), self._table(), update, seed=5, tick=2
            )
            results.append(table.column_values("x"))
        assert results[0] == results[1] == results[2]

    def test_transition_counters(self):
        update = lambda row, rng: dict(row)
        _, counters = run_transition_on_cluster(
            Cluster(3), self._table(), update
        )
        assert counters.records_mapped == 12
        assert counters.records_written == 12

    def test_grouped_interaction_preserves_rows(self):
        def interact(rows, rng):
            total = sum(r["x"] for r in rows)
            return [{**r, "x": total} for r in rows]

        table, _ = run_grouped_interaction_on_cluster(
            Cluster(3),
            self._table(),
            group_key=lambda row: row["aid"] % 3,
            interact=interact,
        )
        assert len(table) == 12
        # Each agent's x is the sum over its group of original x values.
        group_sums = {
            g: sum(float(i) for i in range(12) if i % 3 == g)
            for g in range(3)
        }
        for row in table:
            assert row["x"] == group_sums[row["aid"] % 3]

    def test_grouped_interaction_size_check(self):
        with pytest.raises(SimulationError):
            run_grouped_interaction_on_cluster(
                Cluster(2),
                self._table(),
                group_key=lambda row: 0,
                interact=lambda rows, rng: rows[:-1],
            )

    def test_grouped_interaction_streams_survive_a_new_interpreter(self):
        # String group keys hash differently in each interpreter; the
        # per-group streams must not.
        first, second = answers_under_hash_seeds(GROUPED_CHILD)
        assert first == second

    def test_grouped_interaction_row_order_stable(self):
        table, _ = run_grouped_interaction_on_cluster(
            Cluster(4),
            self._table(),
            group_key=lambda row: row["aid"] % 2,
            interact=lambda rows, rng: rows,
        )
        assert table.column_values("aid") == list(range(12))
