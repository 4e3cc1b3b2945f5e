"""Schelling's dynamic model of segregation (cited root of ABS).

The paper traces agent-based simulation "back at least to the 1970's",
citing Schelling's segregation model [48].  Two types of agents occupy a
grid; an agent is unhappy when the fraction of like-typed neighbors falls
below its tolerance and relocates to a random empty cell.  Mild individual
preferences produce strong global segregation — the canonical emergent
phenomenon of the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import SimulationError

EMPTY = 0


@dataclass
class SchellingResult:
    """Output of a Schelling run."""

    grid: np.ndarray
    segregation_series: np.ndarray
    unhappy_series: np.ndarray
    ticks_run: int
    converged: bool

    @property
    def final_segregation(self) -> float:
        """Mean like-neighbor fraction at the end of the run."""
        return float(self.segregation_series[-1])


class SchellingModel:
    """Schelling segregation on a toroidal grid.

    Parameters
    ----------
    size:
        Grid side length.
    occupancy:
        Fraction of cells occupied by agents.
    tolerance:
        Minimum acceptable like-neighbor fraction (an agent with fewer
        like neighbors than this relocates).
    """

    def __init__(
        self,
        size: int = 40,
        occupancy: float = 0.9,
        tolerance: float = 0.3,
    ) -> None:
        if size < 3:
            raise SimulationError("grid size must be >= 3")
        if not 0.0 < occupancy < 1.0:
            raise SimulationError("occupancy must be in (0,1)")
        if not 0.0 <= tolerance <= 1.0:
            raise SimulationError("tolerance must be in [0,1]")
        self.size = size
        self.occupancy = occupancy
        self.tolerance = tolerance

    def initial_grid(self, rng: np.random.Generator) -> np.ndarray:
        """Random mix of type-1 and type-2 agents plus empty cells."""
        cells = self.size * self.size
        n_agents = int(cells * self.occupancy)
        values = np.concatenate(
            [
                np.ones(n_agents // 2, dtype=int),
                np.full(n_agents - n_agents // 2, 2, dtype=int),
                np.zeros(cells - n_agents, dtype=int),
            ]
        )
        rng.shuffle(values)
        return values.reshape(self.size, self.size)

    def _neighbor_counts(
        self, grid: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(like_count, occupied_count) over the 8-cell Moore neighborhood."""
        like = np.zeros_like(grid, dtype=float)
        occupied = np.zeros_like(grid, dtype=float)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                shifted = np.roll(np.roll(grid, dx, axis=0), dy, axis=1)
                occupied += shifted != EMPTY
                like += (shifted == grid) & (grid != EMPTY) & (shifted != EMPTY)
        return like, occupied

    def unhappy_mask(self, grid: np.ndarray) -> np.ndarray:
        """Boolean mask of agents below their tolerance."""
        like, occupied = self._neighbor_counts(grid)
        with np.errstate(invalid="ignore", divide="ignore"):
            fraction = np.where(occupied > 0, like / occupied, 1.0)
        return (grid != EMPTY) & (fraction < self.tolerance)

    def segregation_index(self, grid: np.ndarray) -> float:
        """Mean like-neighbor fraction over agents with any neighbors."""
        like, occupied = self._neighbor_counts(grid)
        mask = (grid != EMPTY) & (occupied > 0)
        if not mask.any():
            return 1.0
        return float((like[mask] / occupied[mask]).mean())

    def step(self, grid: np.ndarray, rng: np.random.Generator) -> int:
        """Relocate every unhappy agent to a random empty cell.

        Returns the number of agents that moved.
        """
        unhappy = np.argwhere(self.unhappy_mask(grid))
        if unhappy.size == 0:
            return 0
        rng.shuffle(unhappy)
        moved = 0
        for x, y in unhappy:
            empties = np.argwhere(grid == EMPTY)
            if empties.size == 0:
                break
            tx, ty = empties[rng.integers(len(empties))]
            grid[tx, ty] = grid[x, y]
            grid[x, y] = EMPTY
            moved += 1
        return moved

    def run(
        self,
        max_ticks: int,
        rng: np.random.Generator,
    ) -> SchellingResult:
        """Simulate until no agent is unhappy or ``max_ticks`` elapse."""
        if max_ticks < 1:
            raise SimulationError("max_ticks must be >= 1")
        grid = self.initial_grid(rng)
        segregation = [self.segregation_index(grid)]
        unhappy_counts = [int(self.unhappy_mask(grid).sum())]
        converged = False
        ticks = 0
        for ticks in range(1, max_ticks + 1):
            moved = self.step(grid, rng)
            segregation.append(self.segregation_index(grid))
            unhappy_counts.append(int(self.unhappy_mask(grid).sum()))
            if moved == 0:
                converged = True
                break
        return SchellingResult(
            grid=grid,
            segregation_series=np.asarray(segregation),
            unhappy_series=np.asarray(unhappy_counts, dtype=float),
            ticks_run=ticks,
            converged=converged,
        )
