"""Component models for composite simulation (Figure 2 of the paper).

A composite model couples component models in series: an execution of
``M = M2 ∘ M1`` runs ``M1``, transforms its output, and feeds it to
``M2``.  Components here are :class:`ComponentModel` objects with an
explicit *cost* per run (simulated cost units, so experiments are
deterministic and fast) and a declared determinism flag the result-caching
optimizer exploits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import SimulationError


class ComponentModel(ABC):
    """One component of a composite model.

    Parameters
    ----------
    name:
        Identifier used in metadata and reports.
    cost:
        Expected computational cost of one run, in abstract cost units
        (the paper's ``c_i``).
    deterministic:
        Whether the model's output is a pure function of its input.
    """

    def __init__(
        self, name: str, cost: float = 1.0, deterministic: bool = False
    ) -> None:
        if cost <= 0:
            raise SimulationError(f"cost must be positive, got {cost}")
        self.name = name
        self.cost = float(cost)
        self.deterministic = deterministic
        self.run_count = 0

    def run(self, input_value: Any, rng: np.random.Generator) -> Any:
        """Execute the model once (bookkeeping + :meth:`execute`)."""
        self.run_count += 1
        return self.execute(input_value, rng)

    @abstractmethod
    def execute(self, input_value: Any, rng: np.random.Generator) -> Any:
        """The model's actual behavior."""


class CallableModel(ComponentModel):
    """Wrap a plain function ``(input, rng) -> output`` as a component."""

    def __init__(
        self,
        name: str,
        fn: Callable[[Any, np.random.Generator], Any],
        cost: float = 1.0,
        deterministic: bool = False,
    ) -> None:
        super().__init__(name, cost, deterministic)
        self._fn = fn

    def execute(self, input_value, rng):
        return self._fn(input_value, rng)


class ArrivalProcessModel(ComponentModel):
    """An upstream demand model: a sequence of customer arrival times.

    The paper's running example: "M1 might be a demand model that
    generates a sequence Y1 of customer arrival times".  Arrivals follow a
    Poisson process whose rate is itself random (gamma-distributed), so
    different ``M1`` outputs induce genuinely different downstream
    conditions — giving a nonzero ``V2``.
    """

    def __init__(
        self,
        name: str = "demand",
        num_customers: int = 100,
        rate_shape: float = 20.0,
        rate_scale: float = 0.05,
        cost: float = 1.0,
    ) -> None:
        super().__init__(name, cost, deterministic=False)
        if num_customers < 1:
            raise SimulationError("num_customers must be >= 1")
        self.num_customers = num_customers
        self.rate_shape = rate_shape
        self.rate_scale = rate_scale

    def execute(self, input_value, rng):
        rate = float(rng.gamma(self.rate_shape, self.rate_scale))
        gaps = rng.exponential(1.0 / rate, size=self.num_customers)
        return np.cumsum(gaps)


class QueueModel(ComponentModel):
    """A downstream single-server FIFO queue.

    "The data in Y1 might then be fed into a queuing model M2, which in
    turn produces an output Y2, which might correspond to the average
    waiting time of the first 100 customers."
    """

    def __init__(
        self,
        name: str = "queue",
        service_mean: float = 0.8,
        measured_customers: int = 100,
        cost: float = 0.2,
        service_noise: bool = True,
    ) -> None:
        super().__init__(name, cost, deterministic=not service_noise)
        if service_mean <= 0:
            raise SimulationError("service_mean must be positive")
        self.service_mean = service_mean
        self.measured_customers = measured_customers
        self.service_noise = service_noise

    def execute(self, input_value, rng):
        arrivals = np.asarray(input_value, dtype=float)
        if arrivals.ndim != 1 or arrivals.size == 0:
            raise SimulationError("queue input must be a 1-D arrival array")
        n = min(self.measured_customers, arrivals.size)
        if self.service_noise:
            services = rng.exponential(self.service_mean, size=n)
        else:
            services = np.full(n, self.service_mean)
        start = 0.0
        total_wait = 0.0
        departure = 0.0
        for i in range(n):
            start = max(arrivals[i], departure)
            total_wait += start - arrivals[i]
            departure = start + services[i]
        return total_wait / n


@dataclass(frozen=True)
class RunRecord:
    """Cost/output bookkeeping for one composite execution."""

    output: float
    cost: float
    m1_runs: int
    m2_runs: int
