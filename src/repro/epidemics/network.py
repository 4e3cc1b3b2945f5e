"""Social contact networks for disease transmission.

Indemics "uses a network model of disease transmission, where nodes
represent individuals and edges represent social contacts ... the edges
have attributes that specify, e.g., contact duration and type".  We build
the network from the synthetic population's group structure: full mixing
within households, partial mixing within schools and workplaces, plus
sparse random community contacts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.epidemics.population import SyntheticPopulation
from repro.errors import SimulationError

#: Mean daily contact duration (hours) by contact type.
DEFAULT_DURATIONS = {
    "household": 8.0,
    "school": 5.0,
    "work": 6.0,
    "community": 1.0,
}


def build_contact_network(
    population: SyntheticPopulation,
    rng: np.random.Generator,
    group_contact_fraction: float = 0.3,
    community_contacts_per_person: float = 1.0,
    durations: Optional[Dict[str, float]] = None,
) -> nx.Graph:
    """Assemble the contact graph from group memberships.

    * households are cliques;
    * within a school or workplace, each pair is connected with
      probability ``group_contact_fraction`` (bounded-degree mixing);
    * each person receives ``~Poisson(community_contacts_per_person)``
      random community edges.

    Edge attributes: ``duration`` (hours/day, exponential around the
    type's mean), ``contact_type``, ``active`` (interventions may
    deactivate edges, e.g. quarantine).
    """
    durations = {**DEFAULT_DURATIONS, **(durations or {})}
    if not 0.0 <= group_contact_fraction <= 1.0:
        raise SimulationError("group_contact_fraction must be in [0,1]")
    graph = nx.Graph()
    for person in population.persons:
        graph.add_node(person.pid, age=person.age)

    def add_edge(a: int, b: int, contact_type: str) -> None:
        if a == b or graph.has_edge(a, b):
            return
        mean = durations[contact_type]
        duration = float(rng.exponential(mean))
        graph.add_edge(
            a, b, duration=duration, contact_type=contact_type, active=True
        )

    by_household: Dict[int, List[int]] = {}
    by_school: Dict[int, List[int]] = {}
    by_work: Dict[int, List[int]] = {}
    for p in population.persons:
        by_household.setdefault(p.household_id, []).append(p.pid)
        if p.school_id is not None:
            by_school.setdefault(p.school_id, []).append(p.pid)
        if p.workplace_id is not None:
            by_work.setdefault(p.workplace_id, []).append(p.pid)

    for members in by_household.values():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                add_edge(a, b, "household")

    for groups, contact_type in ((by_school, "school"), (by_work, "work")):
        for members in groups.values():
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if rng.uniform() < group_contact_fraction:
                        add_edge(a, b, contact_type)

    pids = [p.pid for p in population.persons]
    n_community = int(
        rng.poisson(community_contacts_per_person * len(pids) / 2.0)
    )
    for _ in range(n_community):
        a, b = rng.choice(pids, size=2, replace=False)
        add_edge(int(a), int(b), "community")
    return graph


def active_neighbors(graph: nx.Graph, pid: int) -> List[Tuple[int, float]]:
    """Neighbors over currently active edges, with contact durations."""
    out = []
    for other in graph.neighbors(pid):
        data = graph.edges[pid, other]
        if data.get("active", True):
            out.append((other, float(data["duration"])))
    return out


def deactivate_edges(
    graph: nx.Graph, pids: Iterable[int], contact_types: Optional[set] = None
) -> int:
    """Deactivate edges incident to ``pids`` (quarantine / closures).

    ``contact_types`` limits the deactivation (e.g. only ``{"school"}``
    for school closures).  Returns the number of edges deactivated.
    """
    count = 0
    pid_set = set(pids)
    for a, b, data in graph.edges(data=True):
        if not data.get("active", True):
            continue
        if a in pid_set or b in pid_set:
            if contact_types is None or data["contact_type"] in contact_types:
                data["active"] = False
                count += 1
    return count


def reactivate_all(graph: nx.Graph) -> None:
    """Reactivate every edge (end of quarantine)."""
    for _, _, data in graph.edges(data=True):
        data["active"] = True
