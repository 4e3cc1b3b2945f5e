"""A minimal agent-based simulation kernel.

Agent-based simulation (ABS) is the driver of the paper's data-intensive
simulation story: "an approach to modeling systems comprising individual,
autonomous, interacting agents".  The kernel here is deliberately small —
agents hold dict state, a model updates the population each tick through the
sense→think→respond cycle (the loop PDES-MAS distributes in Section 2.4),
and observers collect the time series of population snapshots that the
paper notes "can also be massive".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.errors import SimulationError


@dataclass
class Agent:
    """One agent: an identifier plus arbitrary mutable state."""

    agent_id: int
    state: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.state[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self.state[key] = value

    def snapshot(self) -> Dict[str, Any]:
        """An immutable copy of the agent's state, including its id."""
        return {"agent_id": self.agent_id, **self.state}


class AgentModel(ABC):
    """Behavior of a population of agents.

    Subclasses implement :meth:`step`, which advances every agent by one
    tick.  Models that follow the sense→think→respond structure can instead
    override the three phase methods and inherit the default :meth:`step`.
    """

    def step(
        self, agents: List[Agent], rng: np.random.Generator, tick: int
    ) -> None:
        """Advance the population by one tick (default: three phases)."""
        perceptions = [self.sense(a, agents, tick) for a in agents]
        intentions = [
            self.think(a, p, rng) for a, p in zip(agents, perceptions)
        ]
        for agent, intention in zip(agents, intentions):
            self.respond(agent, intention)

    def sense(self, agent: Agent, agents: List[Agent], tick: int) -> Any:
        """Gather the agent's view of the environment (default: nothing)."""
        return None

    def think(
        self, agent: Agent, perception: Any, rng: np.random.Generator
    ) -> Any:
        """Decide on an action given the perception (default: nothing)."""
        return None

    def respond(self, agent: Agent, intention: Any) -> None:
        """Apply the decided action to the agent's state (default: no-op)."""

    @abstractmethod
    def create_agents(self, rng: np.random.Generator) -> List[Agent]:
        """Build the initial population."""


@dataclass
class SimulationResult:
    """Output of an ABS run: per-tick snapshots and summary series."""

    snapshots: List[List[Dict[str, Any]]]
    metrics: Dict[str, List[float]]

    @property
    def ticks(self) -> int:
        """Number of recorded ticks."""
        return len(self.snapshots)

    def metric_array(self, name: str) -> np.ndarray:
        """One summary metric as a numpy array over ticks."""
        if name not in self.metrics:
            raise SimulationError(
                f"unknown metric {name!r}; have {sorted(self.metrics)}"
            )
        return np.asarray(self.metrics[name])


class Simulation:
    """Run an :class:`AgentModel` for a number of ticks.

    Parameters
    ----------
    model:
        The agent behavior.
    metrics:
        Named functions ``agents -> float`` evaluated every tick.
    record_snapshots:
        Whether to keep full per-tick population snapshots (can be large).
    """

    def __init__(
        self,
        model: AgentModel,
        metrics: Optional[Dict[str, Callable[[List[Agent]], float]]] = None,
        record_snapshots: bool = False,
    ) -> None:
        self.model = model
        self.metrics = dict(metrics or {})
        self.record_snapshots = record_snapshots

    def run(
        self, ticks: int, rng: np.random.Generator
    ) -> SimulationResult:
        """Simulate ``ticks`` steps and return collected output."""
        if ticks < 0:
            raise SimulationError("ticks must be >= 0")
        agents = self.model.create_agents(rng)
        if not agents:
            raise SimulationError("model created an empty population")
        snapshots: List[List[Dict[str, Any]]] = []
        metric_series: Dict[str, List[float]] = {
            name: [] for name in self.metrics
        }

        def record() -> None:
            if self.record_snapshots:
                snapshots.append([a.snapshot() for a in agents])
            for name, fn in self.metrics.items():
                metric_series[name].append(float(fn(agents)))

        record()
        for tick in range(ticks):
            self.model.step(agents, rng, tick)
            record()
        return SimulationResult(snapshots=snapshots, metrics=metric_series)
