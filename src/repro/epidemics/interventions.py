"""Scripted intervention policies, including the paper's Algorithm 1.

Algorithm 1 ("Vaccinate preschoolers if more than 1% are sick") is the
paper's worked example of SQL-specified interventions.  The policy below
follows it line by line:

* ``CREATE TABLE preschool AS SELECT pid FROM person WHERE age BETWEEN
  0 AND 4`` — once, from demographic data;
* each day, count ``preschool ⋈ infected_person``;
* when the infected fraction exceeds the threshold, apply vaccines to the
  preschool subpopulation.

A school-closure policy exercising edge deactivation is also provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.epidemics.engine import IndemicsEngine
from repro.errors import SimulationError


@dataclass
class PolicyLogEntry:
    """One day's record of a policy's observation and action."""

    day: int
    observed: float
    triggered: bool
    action_size: int


class InterventionPolicy:
    """Base class: observe via SQL each day, maybe act."""

    def setup(self, engine: IndemicsEngine) -> None:
        """One-time preparation (e.g. creating helper tables)."""

    def apply(self, engine: IndemicsEngine, day: int) -> PolicyLogEntry:
        """Observe and (conditionally) intervene; returns a log entry."""
        raise NotImplementedError


class VaccinatePreschoolersPolicy(InterventionPolicy):
    """Algorithm 1: vaccinate preschoolers when >threshold are sick."""

    def __init__(self, threshold: float = 0.01) -> None:
        if not 0.0 < threshold < 1.0:
            raise SimulationError("threshold must be in (0,1)")
        self.threshold = threshold
        self._n_preschool: Optional[int] = None
        self._already_triggered = False

    def setup(self, engine: IndemicsEngine) -> None:
        # CREATE TABLE Preschool(pid) AS
        #   (SELECT pid FROM Person WHERE 0 <= age <= 4)
        if "preschool" in engine.db:
            engine.db.drop_table("preschool")
        engine.query(
            "CREATE TABLE preschool AS "
            "SELECT pid FROM person WHERE age BETWEEN 0 AND 4"
        )
        # DEFINE nPreschool AS (SELECT COUNT(pid) FROM Preschool)
        self._n_preschool = int(
            engine.scalar("SELECT COUNT(pid) AS n FROM preschool")
        )

    def apply(self, engine: IndemicsEngine, day: int) -> PolicyLogEntry:
        if self._n_preschool is None:
            raise SimulationError("setup() was not called")
        if self._n_preschool == 0:
            return PolicyLogEntry(day, 0.0, False, 0)
        # Algorithm 1, line for line:
        #   WITH InfectedPreschool (pid) AS
        #     (SELECT pid FROM Preschool, InfectedPerson
        #      WHERE Preschool.pid = InfectedPerson.pid);
        #   DEFINE nInfectedPreschool AS
        #     (SELECT COUNT(pid) FROM InfectedPreschool);
        n_infected = int(
            engine.scalar(
                "WITH infectedpreschool (pid) AS "
                "(SELECT preschool.pid FROM preschool, infected_person "
                "WHERE preschool.pid = infected_person.pid) "
                "SELECT COUNT(pid) AS n FROM infectedpreschool"
            )
        )
        fraction = n_infected / self._n_preschool
        triggered = fraction > self.threshold and not self._already_triggered
        action_size = 0
        if triggered:
            # Apply vaccines to SELECT(pid FROM Preschool)
            pids = engine.select_pids("SELECT pid FROM preschool")
            action_size = engine.vaccinate(pids)
            self._already_triggered = True
        return PolicyLogEntry(day, fraction, triggered, action_size)


class SchoolClosurePolicy(InterventionPolicy):
    """Close schools (deactivate school edges) above an infection level."""

    def __init__(self, threshold: float = 0.05) -> None:
        if not 0.0 < threshold < 1.0:
            raise SimulationError("threshold must be in (0,1)")
        self.threshold = threshold
        self._population_size: Optional[int] = None
        self._closed = False

    def setup(self, engine: IndemicsEngine) -> None:
        self._population_size = int(
            engine.scalar("SELECT COUNT(pid) AS n FROM person")
        )

    def apply(self, engine: IndemicsEngine, day: int) -> PolicyLogEntry:
        if self._population_size is None:
            raise SimulationError("setup() was not called")
        n_infected = int(
            engine.scalar("SELECT COUNT(pid) AS n FROM infected_person")
        )
        fraction = n_infected / self._population_size
        triggered = fraction > self.threshold and not self._closed
        action_size = 0
        if triggered:
            students = engine.select_pids(
                "SELECT pid FROM person WHERE school_id >= 0"
            )
            action_size = engine.quarantine(students, {"school"})
            self._closed = True
        return PolicyLogEntry(day, fraction, triggered, action_size)


def run_with_policy(
    engine: IndemicsEngine,
    policy: Optional[InterventionPolicy],
    days: int,
) -> List[PolicyLogEntry]:
    """The Algorithm 1 driver loop: ``for day = 1 to N`` observe/act/step.

    With ``policy=None`` the epidemic runs uncontrolled (the baseline the
    benchmark compares against).
    """
    if days < 1:
        raise SimulationError("days must be >= 1")
    log: List[PolicyLogEntry] = []
    if policy is not None:
        policy.setup(engine)
    for day in range(1, days + 1):
        if policy is not None:
            log.append(policy.apply(engine, day))
        engine.advance(1)
    return log
