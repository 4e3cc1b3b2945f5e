"""Agent interaction steps as relational self-joins (Wang et al. [55]).

The paper's Section 2.1 recounts the observation that "a step in an
agent-based simulation can be viewed as a self-join": each row of a table is
an agent's state, and joining the table with itself on a proximity predicate
pairs every agent with the neighbors it interacts with.  Because "agents
typically interact only with a relatively small group of 'nearby' agents",
the join can be partitioned spatially and parallelized.

Two physical strategies are implemented over the same logical step:

* :func:`full_selfjoin_step` — the naive O(n^2) self-join, examining every
  agent pair;
* :func:`grid_selfjoin_step` — agents are bucketed into square cells of
  side >= the interaction radius, and only pairs within the same or
  adjacent cells are examined.

Both produce *identical* neighbor sets (the grid strategy examines a
superset of nothing and a subset of all pairs but filters with the same
predicate), which the tests verify; the benchmark ``bench_abs_selfjoin``
measures the pair-examination savings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

Row = Dict[str, Any]
#: Aggregates one agent's neighbor rows into its next state.
UpdateFn = Callable[[Row, List[Row]], Row]


@dataclass
class SelfJoinStats:
    """Cost accounting for one self-join step."""

    pairs_examined: int = 0
    pairs_matched: int = 0
    cells_used: int = 0


def _distance_sq(a: Row, b: Row) -> float:
    dx = a["x"] - b["x"]
    dy = a["y"] - b["y"]
    return dx * dx + dy * dy


def _validate(agents: Sequence[Row], radius: float) -> None:
    if radius <= 0:
        raise SimulationError(f"radius must be positive, got {radius}")
    if not agents:
        raise SimulationError("self-join step needs at least one agent")
    for required in ("x", "y"):
        if required not in agents[0]:
            raise SimulationError(
                f"agents need an {required!r} coordinate column"
            )


def full_selfjoin_step(
    agents: Sequence[Row],
    radius: float,
    update: UpdateFn,
    stats: Optional[SelfJoinStats] = None,
) -> List[Row]:
    """One interaction step via the naive all-pairs self-join."""
    _validate(agents, radius)
    stats = stats if stats is not None else SelfJoinStats()
    r_sq = radius * radius
    out: List[Row] = []
    for i, agent in enumerate(agents):
        neighbors: List[Row] = []
        for j, other in enumerate(agents):
            if i == j:
                continue
            stats.pairs_examined += 1
            if _distance_sq(agent, other) <= r_sq:
                stats.pairs_matched += 1
                neighbors.append(other)
        out.append(update(dict(agent), neighbors))
    return out


def grid_selfjoin_step(
    agents: Sequence[Row],
    radius: float,
    update: UpdateFn,
    stats: Optional[SelfJoinStats] = None,
    cell_size: Optional[float] = None,
) -> List[Row]:
    """One interaction step via the grid-partitioned self-join.

    ``cell_size`` defaults to ``radius``; it must be >= ``radius`` for
    correctness (otherwise neighbors could sit more than one cell away).
    """
    _validate(agents, radius)
    if cell_size is None:
        cell_size = radius
    if cell_size < radius:
        raise SimulationError(
            f"cell_size ({cell_size}) must be >= radius ({radius})"
        )
    stats = stats if stats is not None else SelfJoinStats()
    r_sq = radius * radius

    cells: Dict[Tuple[int, int], List[int]] = {}
    keys: List[Tuple[int, int]] = []
    for idx, agent in enumerate(agents):
        key = (
            int(math.floor(agent["x"] / cell_size)),
            int(math.floor(agent["y"] / cell_size)),
        )
        keys.append(key)
        cells.setdefault(key, []).append(idx)
    stats.cells_used = len(cells)

    out: List[Row] = []
    for idx, agent in enumerate(agents):
        cx, cy = keys[idx]
        neighbors: List[Row] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in cells.get((cx + dx, cy + dy), ()):
                    if j == idx:
                        continue
                    stats.pairs_examined += 1
                    if _distance_sq(agent, agents[j]) <= r_sq:
                        stats.pairs_matched += 1
                        neighbors.append(agents[j])
        out.append(update(dict(agent), neighbors))
    return out


def neighbor_sets(
    agents: Sequence[Row],
    radius: float,
    strategy: str = "grid",
) -> List[List[int]]:
    """Neighbor index lists per agent (for parity tests and analysis).

    ``strategy`` is ``"full"`` or ``"grid"``; both must agree.
    """
    collected: List[List[int]] = []
    by_identity = {id(a): i for i, a in enumerate(agents)}

    def capture(agent: Row, neighbors: List[Row]) -> Row:
        collected.append(sorted(by_identity[id(n)] for n in neighbors))
        return agent

    if strategy == "full":
        full_selfjoin_step(agents, radius, capture)
    elif strategy == "grid":
        grid_selfjoin_step(agents, radius, capture)
    else:
        raise SimulationError(f"unknown strategy {strategy!r}")
    return collected


def random_spatial_agents(
    n: int,
    extent: float,
    rng: np.random.Generator,
    extra_state: Optional[Callable[[int, np.random.Generator], Row]] = None,
) -> List[Row]:
    """Generate ``n`` agents uniformly placed in ``[0, extent)^2``."""
    if n < 1 or extent <= 0:
        raise SimulationError("need n >= 1 and extent > 0")
    agents = []
    for i in range(n):
        row: Row = {
            "agent_id": i,
            "x": float(rng.uniform(0, extent)),
            "y": float(rng.uniform(0, extent)),
        }
        if extra_state is not None:
            row.update(extra_state(i, rng))
        agents.append(row)
    return agents


def averaging_update(field: str) -> UpdateFn:
    """An update that moves ``field`` halfway toward the neighbor mean.

    A simple but representative interaction (opinion dynamics / flocking
    velocity matching) used by tests and the self-join benchmark.
    """

    def update(agent: Row, neighbors: List[Row]) -> Row:
        if neighbors:
            mean = sum(n[field] for n in neighbors) / len(neighbors)
            agent[field] = (agent[field] + mean) / 2.0
        return agent

    return update
