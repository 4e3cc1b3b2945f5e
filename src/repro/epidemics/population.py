"""Synthetic population generation for epidemic simulation.

Indemics (Section 2.4) simulates disease over a *synthetic population*:
individuals with demographic attributes embedded in a social contact
network.  The paper's substrate was the NDSSL synthetic population of
entire U.S. regions; we generate a statistically similar miniature —
households with realistic age structure, schools grouping children,
workplaces grouping adults — which exercises the same query and
intervention code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.engine.catalog import Database
from repro.engine.schema import Schema
from repro.errors import SimulationError


@dataclass(frozen=True)
class Person:
    """One individual of the synthetic population."""

    pid: int
    age: int
    household_id: int
    school_id: Optional[int]
    workplace_id: Optional[int]


@dataclass
class SyntheticPopulation:
    """A generated population with group structure."""

    persons: List[Person]
    num_households: int
    num_schools: int
    num_workplaces: int

    def __len__(self) -> int:
        return len(self.persons)

    def ages(self) -> np.ndarray:
        """Ages of all persons."""
        return np.array([p.age for p in self.persons])

    def preschoolers(self) -> List[int]:
        """Pids of persons aged 0-4 (Algorithm 1's target group)."""
        return [p.pid for p in self.persons if 0 <= p.age <= 4]

    def to_database(self, db: Optional[Database] = None) -> Database:
        """Load the population into a relational ``person`` table.

        This is the "demographic data" side of the Indemics split: the
        RDBMS holds static attributes that intervention queries join
        against.
        """
        db = db if db is not None else Database()
        table = db.create_table(
            "person",
            Schema.of(
                pid=int,
                age=int,
                household_id=int,
                school_id=int,
                workplace_id=int,
            ),
            replace=True,
        )
        for p in self.persons:
            table.insert(
                {
                    "pid": p.pid,
                    "age": p.age,
                    "household_id": p.household_id,
                    "school_id": -1 if p.school_id is None else p.school_id,
                    "workplace_id": (
                        -1 if p.workplace_id is None else p.workplace_id
                    ),
                }
            )
        return db


def generate_population(
    num_households: int,
    rng: np.random.Generator,
    mean_household_size: float = 3.0,
    school_size: int = 60,
    workplace_size: int = 20,
) -> SyntheticPopulation:
    """Generate a household/school/workplace-structured population.

    Household sizes are 1 + Poisson; ages follow a stylized pyramid
    (children more likely in larger households).  Children aged 5-17
    attend schools, a fraction of 0-4s attend preschool groups, and adults
    18-64 attend workplaces.
    """
    if num_households < 1:
        raise SimulationError("need at least one household")
    persons: List[Person] = []
    pid = 0
    for hid in range(num_households):
        size = 1 + int(rng.poisson(mean_household_size - 1.0))
        # First member is an adult; others mix adults/children.
        ages = [int(rng.integers(18, 80))]
        for _ in range(size - 1):
            if rng.uniform() < 0.45:
                ages.append(int(rng.integers(0, 18)))
            else:
                ages.append(int(rng.integers(18, 80)))
        for age in ages:
            persons.append(Person(pid, age, hid, None, None))
            pid += 1

    # Assign group memberships.
    schooled: List[Person] = []
    worked: List[Person] = []
    final: List[Person] = []
    school_counter = 0
    work_counter = 0
    school_fill = 0
    work_fill = 0
    for p in persons:
        school_id = None
        workplace_id = None
        if 0 <= p.age <= 4 and rng.uniform() < 0.6:
            school_id = school_counter
            school_fill += 1
        elif 5 <= p.age <= 17:
            school_id = school_counter
            school_fill += 1
        elif 18 <= p.age <= 64 and rng.uniform() < 0.7:
            workplace_id = work_counter
            work_fill += 1
        if school_fill >= school_size:
            school_counter += 1
            school_fill = 0
        if work_fill >= workplace_size:
            work_counter += 1
            work_fill = 0
        final.append(
            Person(p.pid, p.age, p.household_id, school_id, workplace_id)
        )
    return SyntheticPopulation(
        persons=final,
        num_households=num_households,
        num_schools=school_counter + 1,
        num_workplaces=work_counter + 1,
    )
