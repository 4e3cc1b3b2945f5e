"""Agent logical processes advancing at heterogeneous rates.

"Parallel 'agent logical processes' (ALPs) simulate the simultaneous
behavior of massive numbers of agents.  Each agent operates in a
repeating cycle of 'sense-think-response'. ... Because the ALPs may
progress through simulated time at different rates, answering range
queries correctly becomes extremely challenging."

An :class:`ALP` owns a set of agents moving in 2-D; each cycle it
advances its local virtual time (LVT) by a process-specific increment,
moves its agents, and publishes their positions and attributes as SSV
writes through its leaf CLP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import SimulationError
from repro.pdesmas.clp import CLPTree
from repro.pdesmas.ssv import SSV


@dataclass
class SimAgent:
    """One agent's local (private) state inside an ALP."""

    agent_id: int
    x: float
    y: float
    age: int
    speed: float


class ALP:
    """One agent logical process.

    Parameters
    ----------
    alp_id:
        Index of this ALP; also its leaf position in the CLP tree.
    agents:
        The agents this process simulates.
    tree:
        The shared CLP tree.
    mean_time_increment:
        Mean LVT advance per cycle — *different per ALP*, which is what
        creates the skew that makes range queries hard.
    """

    def __init__(
        self,
        alp_id: int,
        agents: List[SimAgent],
        tree: CLPTree,
        mean_time_increment: float = 1.0,
        extent: float = 100.0,
    ) -> None:
        if not agents:
            raise SimulationError("an ALP needs at least one agent")
        if mean_time_increment <= 0:
            raise SimulationError("mean_time_increment must be positive")
        self.alp_id = alp_id
        self.agents = agents
        self.tree = tree
        self.mean_time_increment = mean_time_increment
        self.extent = extent
        self.lvt = 0.0
        # Publish initial positions.
        for agent in agents:
            ssv = SSV(
                ("agent", agent.agent_id),
                {"x": agent.x, "y": agent.y, "age": agent.age},
            )
            tree.register_ssv(ssv, leaf_index=alp_id % len(tree.leaves))

    def cycle(self, rng: np.random.Generator) -> float:
        """One sense-think-respond cycle: advance LVT, move, publish.

        Returns the new local virtual time.
        """
        self.lvt += float(rng.exponential(self.mean_time_increment))
        for agent in self.agents:
            # think: random-waypoint style motion
            heading = rng.uniform(0, 2 * np.pi)
            step = agent.speed * self.mean_time_increment
            agent.x = float(np.clip(agent.x + step * np.cos(heading), 0, self.extent))
            agent.y = float(np.clip(agent.y + step * np.sin(heading), 0, self.extent))
            # respond: publish externally viewable state through the tree
            ssv, _ = self.tree.access(
                ("agent", agent.agent_id), self.alp_id % len(self.tree.leaves)
            )
            ssv.write(
                self.lvt, {"x": agent.x, "y": agent.y, "age": agent.age}
            )
        return self.lvt


def make_alps(
    num_alps: int,
    agents_per_alp: int,
    tree: CLPTree,
    rng: np.random.Generator,
    extent: float = 100.0,
    rate_skew: float = 4.0,
) -> List[ALP]:
    """Create ALPs with geometrically skewed time-advance rates.

    ALP ``k`` advances with mean increment ``rate_skew^(k/(n-1))`` — the
    fastest process runs ``rate_skew`` times quicker through simulated
    time than the slowest, producing the LVT spread that stresses range
    queries.
    """
    if num_alps < 1 or agents_per_alp < 1:
        raise SimulationError("need >= 1 ALP and >= 1 agent per ALP")
    alps = []
    next_agent_id = 0
    for k in range(num_alps):
        agents = []
        for _ in range(agents_per_alp):
            agents.append(
                SimAgent(
                    agent_id=next_agent_id,
                    x=float(rng.uniform(0, extent)),
                    y=float(rng.uniform(0, extent)),
                    age=int(rng.integers(10, 80)),
                    speed=float(rng.uniform(0.5, 2.0)),
                )
            )
            next_agent_id += 1
        exponent = k / max(num_alps - 1, 1)
        alps.append(
            ALP(
                alp_id=k,
                agents=agents,
                tree=tree,
                mean_time_increment=rate_skew**exponent,
                extent=extent,
            )
        )
    return alps
