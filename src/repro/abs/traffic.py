"""Bonabeau's traffic-jam demonstration as a cellular ABS.

The paper's introduction retells Bonabeau's argument: a purely data-driven
analysis of traffic (correlating time-of-day with speed) misses the
behavioral rules that *create* jams — "we slow down at certain rates when
someone appears in front of us, we accelerate to a driver-dependent
'comfortable' speed when the road is clear, we may switch lanes if they are
open".  Simple agent-based simulations encoding those rules reproduce
observed jams.

We implement the classic Nagel–Schreckenberg single-lane model plus a
two-lane extension with lane changing.  The model exhibits the expected
phenomenology: free flow at low density, spontaneous phantom jams above a
critical density, and a flow-density ("fundamental") diagram with a peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import SimulationError


@dataclass
class TrafficState:
    """State of a ring road: per-lane arrays of car velocity by cell.

    ``lanes[k][i]`` is ``-1`` for an empty cell, else the velocity of the
    car in cell ``i`` of lane ``k``.
    """

    lanes: np.ndarray  # shape (num_lanes, length), int

    @property
    def num_lanes(self) -> int:
        return int(self.lanes.shape[0])

    @property
    def length(self) -> int:
        return int(self.lanes.shape[1])

    @property
    def num_cars(self) -> int:
        return int((self.lanes >= 0).sum())

    @property
    def density(self) -> float:
        """Cars per cell."""
        return self.num_cars / (self.num_lanes * self.length)

    def mean_speed(self) -> float:
        """Mean velocity over all cars (0.0 for an empty road)."""
        occupied = self.lanes[self.lanes >= 0]
        if occupied.size == 0:
            return 0.0
        return float(occupied.mean())

    def fraction_stopped(self) -> float:
        """Fraction of cars with velocity zero (a jam indicator)."""
        occupied = self.lanes[self.lanes >= 0]
        if occupied.size == 0:
            return 0.0
        return float((occupied == 0).mean())

    def flow(self) -> float:
        """Flow per lane-cell: density * mean speed."""
        return self.density * self.mean_speed()


class TrafficModel:
    """Nagel–Schreckenberg traffic on a ring road.

    Parameters
    ----------
    length:
        Number of cells per lane.
    density:
        Fraction of cells occupied by cars.
    v_max:
        The "comfortable" maximum speed (cells/tick).
    p_dawdle:
        Probability of spontaneous slowdown (driver imperfection).
    num_lanes:
        1 for the classic model; 2 enables lane changing.
    """

    def __init__(
        self,
        length: int = 200,
        density: float = 0.15,
        v_max: int = 5,
        p_dawdle: float = 0.25,
        num_lanes: int = 1,
    ) -> None:
        if length < 2:
            raise SimulationError("road length must be >= 2")
        if not 0.0 < density < 1.0:
            raise SimulationError(f"density must be in (0,1), got {density}")
        if v_max < 1:
            raise SimulationError("v_max must be >= 1")
        if not 0.0 <= p_dawdle < 1.0:
            raise SimulationError("p_dawdle must be in [0,1)")
        if num_lanes not in (1, 2):
            raise SimulationError("num_lanes must be 1 or 2")
        self.length = length
        self.density = density
        self.v_max = v_max
        self.p_dawdle = p_dawdle
        self.num_lanes = num_lanes

    def initial_state(self, rng: np.random.Generator) -> TrafficState:
        """Place cars uniformly at random with random initial speeds."""
        total_cells = self.num_lanes * self.length
        num_cars = max(1, int(round(self.density * total_cells)))
        lanes = np.full((self.num_lanes, self.length), -1, dtype=int)
        positions = rng.choice(total_cells, size=num_cars, replace=False)
        for pos in positions:
            lane, cell = divmod(int(pos), self.length)
            lanes[lane, cell] = int(rng.integers(0, self.v_max + 1))
        return TrafficState(lanes=lanes)

    # -- dynamics --------------------------------------------------------
    def _gap_ahead(self, lane: np.ndarray, cell: int) -> int:
        """Empty cells in front of ``cell`` (periodic boundary)."""
        length = lane.shape[0]
        for gap in range(1, length):
            if lane[(cell + gap) % length] >= 0:
                return gap - 1
        return length - 1

    def _lane_change_phase(
        self, state: TrafficState, rng: np.random.Generator
    ) -> None:
        """Move cars to the other lane when it offers more headroom."""
        if self.num_lanes != 2:
            return
        lanes = state.lanes
        for lane_idx in range(2):
            other_idx = 1 - lane_idx
            cells = np.flatnonzero(lanes[lane_idx] >= 0)
            for cell in cells:
                v = lanes[lane_idx, cell]
                if lanes[other_idx, cell] >= 0:
                    continue  # target cell occupied
                gap_here = self._gap_ahead(lanes[lane_idx], cell)
                gap_there = self._gap_ahead(lanes[other_idx], cell)
                # Incentive: blocked here, free there; also require safe
                # backward gap in the target lane.
                back_gap = self._gap_behind(lanes[other_idx], cell)
                if (
                    gap_here < v
                    and gap_there > gap_here
                    and back_gap >= self.v_max
                    and rng.uniform() < 0.8
                ):
                    lanes[other_idx, cell] = v
                    lanes[lane_idx, cell] = -1

    def _gap_behind(self, lane: np.ndarray, cell: int) -> int:
        length = lane.shape[0]
        for gap in range(1, length):
            if lane[(cell - gap) % length] >= 0:
                return gap - 1
        return length - 1

    def step(self, state: TrafficState, rng: np.random.Generator) -> TrafficState:
        """Advance one tick: lane changes, then NaSch velocity/move rules."""
        lanes = state.lanes.copy()
        working = TrafficState(lanes=lanes)
        self._lane_change_phase(working, rng)
        new_lanes = np.full_like(lanes, -1)
        for lane_idx in range(self.num_lanes):
            lane = working.lanes[lane_idx]
            cells = np.flatnonzero(lane >= 0)
            for cell in cells:
                v = int(lane[cell])
                # 1. accelerate toward comfortable speed
                v = min(v + 1, self.v_max)
                # 2. slow down to the gap when someone is in front
                gap = self._gap_ahead(lane, cell)
                v = min(v, gap)
                # 3. random dawdling
                if v > 0 and rng.uniform() < self.p_dawdle:
                    v -= 1
                # 4. move
                new_lanes[lane_idx, (cell + v) % self.length] = v
        return TrafficState(lanes=new_lanes)

    def run(
        self,
        ticks: int,
        rng: np.random.Generator,
        warmup: int = 0,
    ) -> "TrafficRun":
        """Simulate and collect per-tick flow/speed/jam series."""
        if ticks < 1:
            raise SimulationError("ticks must be >= 1")
        state = self.initial_state(rng)
        speeds: List[float] = []
        flows: List[float] = []
        stopped: List[float] = []
        for tick in range(warmup + ticks):
            state = self.step(state, rng)
            if tick >= warmup:
                speeds.append(state.mean_speed())
                flows.append(state.flow())
                stopped.append(state.fraction_stopped())
        return TrafficRun(
            model=self,
            mean_speeds=np.asarray(speeds),
            flows=np.asarray(flows),
            fraction_stopped=np.asarray(stopped),
            final_state=state,
        )


@dataclass
class TrafficRun:
    """Collected output of a traffic simulation."""

    model: TrafficModel
    mean_speeds: np.ndarray
    flows: np.ndarray
    fraction_stopped: np.ndarray
    final_state: TrafficState

    @property
    def average_flow(self) -> float:
        """Time-averaged flow (vehicles per cell per tick)."""
        return float(self.flows.mean())

    @property
    def average_speed(self) -> float:
        """Time-averaged mean speed."""
        return float(self.mean_speeds.mean())

    @property
    def jam_fraction(self) -> float:
        """Time-averaged fraction of stopped cars."""
        return float(self.fraction_stopped.mean())


def fundamental_diagram(
    densities: "np.ndarray",
    ticks: int = 300,
    warmup: int = 100,
    seed: int = 0,
    **model_kwargs,
) -> List[Tuple[float, float, float]]:
    """Sweep density and measure (density, flow, jam fraction).

    The resulting flow-density curve is the classic "fundamental diagram":
    flow rises linearly in the free-flow regime, peaks near the critical
    density, and falls as jams dominate — the emergent phenomenon Bonabeau
    argues pure data correlation cannot explain.
    """
    results = []
    for i, density in enumerate(densities):
        model = TrafficModel(density=float(density), **model_kwargs)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        )
        run = model.run(ticks, rng, warmup=warmup)
        results.append((float(density), run.average_flow, run.jam_fraction))
    return results
