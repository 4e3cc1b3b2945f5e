"""The Indemics engine: HPC simulation + relational database, interleaved.

Indemics (Bisset et al. [6]; Section 2.4 of the paper) divides epidemic
simulation "between a high-performance cluster (HPC) that performs
compute-intensive tasks and a relational database engine that performs
data-intensive tasks".  The HPC updates the contact network between
observation times; at an observation time the experimenter issues SQL to

* assess the state (aggregation queries over subpopulations),
* compute performance measures (infection counts, economic damage),
* and *specify interventions* as a selected subset of individuals plus an
  action applied to their nodes/edges.

:class:`IndemicsEngine` reproduces that loop in-process: the SEIR process
plays the HPC role, our relational engine plays the RDBMS role, and the
engine synchronizes dynamic state tables (``infected_person``,
``health_state``) at every observation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import networkx as nx
import numpy as np

from repro.engine.schema import Schema
from repro.epidemics.disease import (
    DiseaseParameters,
    HealthState,
    SEIRProcess,
)
from repro.epidemics.network import build_contact_network, deactivate_edges
from repro.epidemics.population import SyntheticPopulation
from repro.errors import SimulationError


@dataclass
class DailyRecord:
    """Per-day epidemic summary collected by the engine."""

    day: int
    susceptible: int
    exposed: int
    infectious: int
    recovered: int
    vaccinated: int

    @property
    def infected_total(self) -> int:
        """Exposed plus infectious (currently infected)."""
        return self.exposed + self.infectious


class IndemicsEngine:
    """Interactive epidemic simulation with SQL-driven interventions."""

    def __init__(
        self,
        population: SyntheticPopulation,
        params: Optional[DiseaseParameters] = None,
        seed: int = 0,
        graph: Optional[nx.Graph] = None,
    ) -> None:
        self.population = population
        self.rng = np.random.default_rng(seed)
        self.graph = (
            graph
            if graph is not None
            else build_contact_network(population, self.rng)
        )
        self.process = SEIRProcess(
            self.graph, params or DiseaseParameters(), self.rng
        )
        self.db = population.to_database()
        self._create_dynamic_tables()
        self.history: List[DailyRecord] = []
        self.sync()

    # -- RDBMS side ------------------------------------------------------
    def _create_dynamic_tables(self) -> None:
        self.db.create_table(
            "health_state", Schema.of(pid=int, state=str, vaccinated=bool)
        )
        self.db.create_table("infected_person", Schema.of(pid=int))

    def sync(self) -> None:
        """Refresh the dynamic tables from the simulation state.

        Called automatically at every observation time; mirrors Indemics
        shipping network-state snapshots from the HPC to the RDBMS.
        """
        health_table = self.db.table("health_state")
        health_table.truncate()
        infected_table = self.db.table("infected_person")
        infected_table.truncate()
        for pid, record in self.process.health.items():
            health_table.insert(
                {
                    "pid": pid,
                    "state": record.state.value,
                    "vaccinated": record.vaccinated,
                }
            )
            if record.state in (HealthState.EXPOSED, HealthState.INFECTIOUS):
                infected_table.insert({"pid": pid})

    def query(self, sql: str) -> List[dict]:
        """Run a SQL query against the engine's database."""
        return self.db.sql(sql)

    def scalar(self, sql: str) -> float:
        """Run a single-value SQL query."""
        rows = self.db.sql(sql)
        if len(rows) != 1 or len(rows[0]) != 1:
            raise SimulationError(
                f"expected a 1x1 result, got {len(rows)} rows"
            )
        return next(iter(rows[0].values()))

    # -- HPC side ----------------------------------------------------------
    def seed_infections(self, count: int) -> List[int]:
        """Infect ``count`` random individuals and sync."""
        pids = list(
            self.rng.choice(
                [p.pid for p in self.population.persons],
                size=count,
                replace=False,
            )
        )
        self.process.seed_infections([int(p) for p in pids])
        self.sync()
        return [int(p) for p in pids]

    def advance(self, days: int = 1) -> None:
        """Run the disease process for ``days`` ticks, then sync."""
        if days < 1:
            raise SimulationError("days must be >= 1")
        for _ in range(days):
            self.process.step_day()
            self._record_day()
        self.sync()

    def _record_day(self) -> None:
        self.history.append(
            DailyRecord(
                day=self.process.day,
                susceptible=self.process.count(HealthState.SUSCEPTIBLE),
                exposed=self.process.count(HealthState.EXPOSED),
                infectious=self.process.count(HealthState.INFECTIOUS),
                recovered=self.process.count(HealthState.RECOVERED),
                vaccinated=sum(
                    1 for h in self.process.health.values() if h.vaccinated
                ),
            )
        )

    # -- interventions ------------------------------------------------------
    def select_pids(self, sql: str) -> List[int]:
        """Run a query whose result has a ``pid`` column; return the pids.

        This is the Indemics intervention idiom: "SQL queries can be used
        to specify complex interventions by specifying subsets of
        individuals together with the actions to be performed".
        """
        rows = self.db.sql(sql)
        pids = []
        for row in rows:
            if "pid" not in row:
                raise SimulationError(
                    f"intervention query must return a pid column, "
                    f"got {sorted(row)}"
                )
            pids.append(int(row["pid"]))
        return pids

    def vaccinate(self, pids: Sequence[int]) -> int:
        """Vaccinate the selected individuals; returns new vaccinations."""
        count = self.process.vaccinate([int(p) for p in pids])
        self.sync()
        return count

    def quarantine(
        self, pids: Sequence[int], contact_types: Optional[set] = None
    ) -> int:
        """Deactivate the selected individuals' contact edges."""
        count = deactivate_edges(self.graph, pids, contact_types)
        self.sync()
        return count

    # -- summaries ----------------------------------------------------------
    def attack_rate(self) -> float:
        """Fraction of the population ever infected."""
        return self.process.attack_rate()

    def epidemic_curve(self) -> np.ndarray:
        """Per-day infectious counts."""
        return np.array([r.infectious for r in self.history], dtype=float)

    def peak_infectious(self) -> int:
        """Maximum simultaneous infectious count over the run."""
        if not self.history:
            return self.process.count(HealthState.INFECTIOUS)
        return max(r.infectious for r in self.history)

    def person_days_infected(self) -> int:
        """Total person-days spent exposed or infectious over the run.

        The raw ingredient of the "economic damage" performance measures
        the paper says intervention experiments optimize: multiply by a
        per-day productivity loss to get a cost.
        """
        return sum(r.infected_total for r in self.history)

    def economic_damage(
        self,
        cost_per_sick_day: float = 1.0,
        cost_per_vaccination: float = 0.1,
    ) -> float:
        """A simple damage measure: sick-day costs plus vaccine costs."""
        if cost_per_sick_day < 0 or cost_per_vaccination < 0:
            raise SimulationError("costs must be nonnegative")
        vaccinated = sum(
            1 for h in self.process.health.values() if h.vaccinated
        )
        return (
            cost_per_sick_day * self.person_days_infected()
            + cost_per_vaccination * vaccinated
        )
