"""Wildfire spread simulation with sensor data assimilation (Xue et al.).

Section 3.2's running application: a DEVS-FIRE-style model "simulates the
stochastic progression of a wildfire over a gridded representation of
terrain, where the current fire state records for each cell whether the
cell is unburned, burning, or burned"; sensors stream noisy temperature
readings; particle filtering fuses the two.

The model here: a toroidal-free H x W grid, per-cell states
UNBURNED/BURNING/BURNED.  Each step a burning cell ignites each unburned
4-neighbor with a wind-tilted probability and burns out geometrically.
Sensors sit on a subset of cells and report temperature = state-dependent
mean + Gaussian noise (the paper's "Gaussian model of sensor behavior",
which yields the closed-form observation density the weights need).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import FilteringError

UNBURNED, BURNING, BURNED = 0, 1, 2

#: Mean sensor temperature by cell state (degrees).
STATE_TEMPERATURES = np.array([20.0, 100.0, 40.0])


@dataclass(frozen=True)
class WildfireParameters:
    """Parameters of the fire-spread and sensor models."""

    height: int = 12
    width: int = 12
    spread_probability: float = 0.3
    burnout_probability: float = 0.25
    wind: Tuple[float, float] = (0.1, 0.0)  # (toward +row, toward +col)
    sensor_noise_sd: float = 8.0
    sensor_fraction: float = 0.5

    def __post_init__(self):
        if self.height < 3 or self.width < 3:
            raise FilteringError("grid must be at least 3x3")
        if not 0.0 < self.spread_probability < 1.0:
            raise FilteringError("spread_probability must be in (0,1)")
        if not 0.0 < self.burnout_probability < 1.0:
            raise FilteringError("burnout_probability must be in (0,1)")
        if self.sensor_noise_sd <= 0:
            raise FilteringError("sensor_noise_sd must be positive")
        if not 0.0 < self.sensor_fraction <= 1.0:
            raise FilteringError("sensor_fraction must be in (0,1]")


class WildfireModel:
    """Fire dynamics + Gaussian sensors on a grid."""

    _NEIGHBOR_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))

    def __init__(self, params: WildfireParameters, seed: int = 0) -> None:
        self.params = params
        rng = np.random.default_rng(seed)
        n_cells = params.height * params.width
        n_sensors = max(int(params.sensor_fraction * n_cells), 1)
        flat = rng.choice(n_cells, size=n_sensors, replace=False)
        self.sensor_rows, self.sensor_cols = np.divmod(
            flat, params.width
        )

    # -- state helpers ------------------------------------------------------
    def initial_state(self, ignition: Tuple[int, int]) -> np.ndarray:
        """A grid with a single burning ignition cell."""
        grid = np.zeros(
            (self.params.height, self.params.width), dtype=np.int8
        )
        grid[ignition] = BURNING
        return grid

    def burning_count(self, state: np.ndarray) -> int:
        """Number of burning cells."""
        return int((state == BURNING).sum())

    def burned_area(self, state: np.ndarray) -> int:
        """Number of cells ever burned (burning + burned)."""
        return int((state != UNBURNED).sum())

    def _spread_probability(self, dr: int, dc: int) -> float:
        wind_r, wind_c = self.params.wind
        tilt = wind_r * dr + wind_c * dc
        return float(
            np.clip(self.params.spread_probability * (1.0 + tilt), 0.01, 0.99)
        )

    def step(
        self, state: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One stochastic fire-spread transition."""
        h, w = state.shape
        out = state.copy()
        burning = np.argwhere(state == BURNING)
        for r, c in burning:
            for dr, dc in self._NEIGHBOR_OFFSETS:
                nr, nc = r + dr, c + dc
                if 0 <= nr < h and 0 <= nc < w and state[nr, nc] == UNBURNED:
                    if rng.uniform() < self._spread_probability(dr, dc):
                        out[nr, nc] = BURNING
            if rng.uniform() < self.params.burnout_probability:
                out[r, c] = BURNED
        return out

    def simulate(
        self,
        steps: int,
        rng: np.random.Generator,
        ignition: Optional[Tuple[int, int]] = None,
    ) -> List[np.ndarray]:
        """A true fire trajectory of ``steps + 1`` states."""
        if ignition is None:
            ignition = (self.params.height // 2, self.params.width // 2)
        states = [self.initial_state(ignition)]
        for _ in range(steps):
            states.append(self.step(states[-1], rng))
        return states

    # -- sensors ------------------------------------------------------------
    def observe(
        self, state: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Noisy temperature readings at the sensor cells."""
        means = STATE_TEMPERATURES[
            state[self.sensor_rows, self.sensor_cols]
        ]
        return means + rng.normal(
            0.0, self.params.sensor_noise_sd, size=means.shape
        )

    def observation_log_density(
        self, states: np.ndarray, observation: np.ndarray
    ) -> np.ndarray:
        """Per-particle log-likelihood of a sensor vector.

        ``states`` has shape ``(n_particles, H, W)``.
        """
        readings = STATE_TEMPERATURES[
            states[:, self.sensor_rows, self.sensor_cols]
        ]
        resid = observation[None, :] - readings
        var = self.params.sensor_noise_sd**2
        return (
            -0.5 * np.sum(resid**2, axis=1) / var
            - 0.5 * readings.shape[1] * math.log(2 * math.pi * var)
        )

    def step_particles(
        self, particles: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Transition every particle independently."""
        return np.stack([self.step(p, rng) for p in particles])

    def state_error(self, estimate: np.ndarray, truth: np.ndarray) -> float:
        """Fraction of cells whose state is misclassified."""
        return float((estimate != truth).mean())
