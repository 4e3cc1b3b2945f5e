"""SEIR disease dynamics over a contact network.

The Indemics model "comprises transition functions that modify nodes
and/or edges, and hence specify changes in disease progression and
behavioral status".  We implement a stochastic SEIR process in discrete
daily ticks:

* an infectious person transmits to a susceptible active contact with
  probability ``1 - exp(-beta * duration)`` per day;
* exposure lasts a geometric incubation period, infection a geometric
  infectious period;
* vaccination multiplies a person's susceptibility by ``1 - efficacy``;
* a behavioral ``fear`` level rises with local prevalence and reduces
  contact durations (the paper's "behavioral status (e.g., fear level)").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import networkx as nx
import numpy as np

from repro.epidemics.network import active_neighbors
from repro.errors import SimulationError


class HealthState(enum.Enum):
    """SEIR health states."""

    SUSCEPTIBLE = "S"
    EXPOSED = "E"
    INFECTIOUS = "I"
    RECOVERED = "R"


@dataclass
class DiseaseParameters:
    """Epidemiological parameters of the SEIR process."""

    transmission_rate: float = 0.02  # per contact-hour per day
    incubation_mean_days: float = 2.0
    infectious_mean_days: float = 4.0
    vaccine_efficacy: float = 0.9
    fear_growth: float = 0.0  # per infectious neighbor per day
    fear_contact_reduction: float = 0.5  # max duration reduction from fear

    def __post_init__(self):
        if self.transmission_rate <= 0:
            raise SimulationError("transmission_rate must be positive")
        if self.incubation_mean_days < 1 or self.infectious_mean_days < 1:
            raise SimulationError("stage means must be >= 1 day")
        if not 0.0 <= self.vaccine_efficacy <= 1.0:
            raise SimulationError("vaccine_efficacy must be in [0,1]")


@dataclass
class PersonHealth:
    """Mutable per-person epidemic state."""

    state: HealthState = HealthState.SUSCEPTIBLE
    days_in_state: int = 0
    vaccinated: bool = False
    fear: float = 0.0
    infected_on_day: Optional[int] = None


class SEIRProcess:
    """The HPC-side disease simulator.

    Parameters
    ----------
    graph:
        The contact network (nodes are pids).
    params:
        Epidemiological parameters.
    rng:
        Random stream for all stochastic transitions.
    """

    def __init__(
        self,
        graph: nx.Graph,
        params: DiseaseParameters,
        rng: np.random.Generator,
    ) -> None:
        self.graph = graph
        self.params = params
        self.rng = rng
        self.health: Dict[int, PersonHealth] = {
            pid: PersonHealth() for pid in graph.nodes
        }
        self.day = 0

    # -- seeding and interventions ----------------------------------------
    def seed_infections(self, pids: List[int]) -> None:
        """Make the given persons infectious at the current day."""
        for pid in pids:
            record = self._record(pid)
            record.state = HealthState.INFECTIOUS
            record.days_in_state = 0
            record.infected_on_day = self.day

    def vaccinate(self, pids: List[int]) -> int:
        """Vaccinate the given persons; returns how many were newly done.

        Vaccination protects susceptibles with probability
        ``vaccine_efficacy`` per exposure; already infected or recovered
        persons gain nothing but are still marked.
        """
        count = 0
        for pid in pids:
            record = self._record(pid)
            if not record.vaccinated:
                record.vaccinated = True
                count += 1
        return count

    def _record(self, pid: int) -> PersonHealth:
        try:
            return self.health[pid]
        except KeyError:
            raise SimulationError(f"unknown person {pid}") from None

    # -- dynamics ---------------------------------------------------------
    def _transmission_probability(
        self, duration: float, target: PersonHealth
    ) -> float:
        effective = duration * (
            1.0 - self.params.fear_contact_reduction * min(target.fear, 1.0)
        )
        p = 1.0 - math.exp(-self.params.transmission_rate * effective)
        if target.vaccinated:
            p *= 1.0 - self.params.vaccine_efficacy
        return p

    def step_day(self) -> None:
        """Advance the epidemic by one day (one transition-function pass)."""
        new_exposed: Set[int] = set()
        infectious = [
            pid
            for pid, h in self.health.items()
            if h.state is HealthState.INFECTIOUS
        ]
        for pid in infectious:
            for other, duration in active_neighbors(self.graph, pid):
                target = self.health[other]
                if target.state is not HealthState.SUSCEPTIBLE:
                    continue
                if other in new_exposed:
                    continue
                p = self._transmission_probability(duration, target)
                if self.rng.uniform() < p:
                    new_exposed.add(other)

        # Stage progressions (geometric durations).
        p_incubation_end = 1.0 / self.params.incubation_mean_days
        p_recovery = 1.0 / self.params.infectious_mean_days
        for pid, record in self.health.items():
            if record.state is HealthState.EXPOSED:
                record.days_in_state += 1
                if self.rng.uniform() < p_incubation_end:
                    record.state = HealthState.INFECTIOUS
                    record.days_in_state = 0
            elif record.state is HealthState.INFECTIOUS:
                record.days_in_state += 1
                if self.rng.uniform() < p_recovery:
                    record.state = HealthState.RECOVERED
                    record.days_in_state = 0

        for pid in new_exposed:
            record = self.health[pid]
            record.state = HealthState.EXPOSED
            record.days_in_state = 0
            record.infected_on_day = self.day

        # Behavioral update: fear grows with infectious neighbors.
        if self.params.fear_growth > 0:
            for pid, record in self.health.items():
                sick_neighbors = sum(
                    1
                    for other, _ in active_neighbors(self.graph, pid)
                    if self.health[other].state is HealthState.INFECTIOUS
                )
                record.fear = min(
                    record.fear + self.params.fear_growth * sick_neighbors,
                    1.0,
                )
        self.day += 1

    # -- summaries ----------------------------------------------------------
    def count(self, state: HealthState) -> int:
        """Number of persons currently in ``state``."""
        return sum(1 for h in self.health.values() if h.state is state)

    def pids_in_state(self, state: HealthState) -> List[int]:
        """Pids currently in ``state``."""
        return [pid for pid, h in self.health.items() if h.state is state]

    def attack_rate(self) -> float:
        """Fraction of the population ever infected."""
        ever = sum(
            1 for h in self.health.values() if h.infected_on_day is not None
        )
        return ever / len(self.health)
