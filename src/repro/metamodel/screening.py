"""Factor screening: sequential bifurcation and GP-based ranking (§4.3).

Sequential bifurcation (Shen & Wan [50], as summarized by the paper):
when a linear metamodel with *positive* main effects and Gaussian noise
suffices, important factors can be found by group testing — "this type of
procedure starts by dividing the set of parameters into two groups, and
testing each group to decide if it contains at least one important
parameter ... If a group contains no important parameters, then it is
discarded; otherwise, the group is again divided in two".

The group-effect estimator uses *cumulative* level settings: let
``y(k)`` be the (replicated) response with factors ``1..k`` high and the
rest low; the summed effect of factors ``i..j`` is ``(y(j) - y(i-1))/2``
under the linear model.  Evaluations of ``y(k)`` are cached, so the run
count grows with the number of groups actually probed — logarithmic in
the factor count when few factors matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DesignError

#: A simulator maps a ±1 level vector to a noisy scalar response.
Simulator = Callable[[np.ndarray, np.random.Generator], float]


@dataclass
class ScreeningResult:
    """Outcome of a screening procedure."""

    important: List[int]
    runs_used: int
    probes: int


class SequentialBifurcation:
    """Group-testing factor screening for positive linear effects.

    Parameters
    ----------
    simulator:
        ``f(levels, rng) -> response`` with ``levels`` a ±1 vector.
    num_factors:
        Total number of factors.
    threshold:
        A group whose estimated summed effect exceeds this is split;
        a singleton exceeding it is declared important.
    replications:
        Runs averaged per distinct level setting (noise control).
    """

    def __init__(
        self,
        simulator: Simulator,
        num_factors: int,
        threshold: float,
        replications: int = 2,
        seed: int = 0,
    ) -> None:
        if num_factors < 1:
            raise DesignError("need at least one factor")
        if threshold <= 0:
            raise DesignError("threshold must be positive")
        if replications < 1:
            raise DesignError("replications must be >= 1")
        self.simulator = simulator
        self.num_factors = num_factors
        self.threshold = threshold
        self.replications = replications
        self.rng = np.random.default_rng(seed)
        self._cache: Dict[int, float] = {}
        self.runs_used = 0
        self.probes = 0

    def _cumulative_response(self, k: int) -> float:
        """Mean response with factors ``0..k-1`` high, the rest low."""
        if k not in self._cache:
            levels = np.full(self.num_factors, -1.0)
            levels[:k] = 1.0
            total = 0.0
            for _ in range(self.replications):
                total += float(self.simulator(levels, self.rng))
                self.runs_used += 1
            self._cache[k] = total / self.replications
        return self._cache[k]

    def _group_effect(self, lo: int, hi: int) -> float:
        """Estimated summed main effect of factors ``lo..hi`` (0-based,
        inclusive)."""
        self.probes += 1
        return (
            self._cumulative_response(hi + 1)
            - self._cumulative_response(lo)
        ) / 2.0

    def run(self) -> ScreeningResult:
        """Execute the bifurcation; returns the classified factors."""
        important: List[int] = []
        stack: List[Tuple[int, int]] = [(0, self.num_factors - 1)]
        while stack:
            lo, hi = stack.pop()
            effect = self._group_effect(lo, hi)
            if effect <= self.threshold:
                continue
            if lo == hi:
                important.append(lo)
                continue
            mid = (lo + hi) // 2
            # Probe the right half first so the stack explores left-first.
            stack.append((mid + 1, hi))
            stack.append((lo, mid))
        important.sort()
        return ScreeningResult(
            important=important, runs_used=self.runs_used, probes=self.probes
        )


def one_at_a_time_screening(
    simulator: Simulator,
    num_factors: int,
    threshold: float,
    replications: int = 2,
    seed: int = 0,
) -> ScreeningResult:
    """The naive baseline: probe every factor individually.

    Estimates each main effect by toggling one factor from the all-low
    base; costs ``(num_factors + 1) * replications`` runs regardless of
    how few factors matter — the comparison point for the AN-SB bench.
    """
    rng = np.random.default_rng(seed)
    runs = 0

    def response(levels: np.ndarray) -> float:
        nonlocal runs
        total = 0.0
        for _ in range(replications):
            total += float(simulator(levels, rng))
            runs += 1
        return total / replications

    base_levels = np.full(num_factors, -1.0)
    base = response(base_levels)
    important = []
    for j in range(num_factors):
        levels = base_levels.copy()
        levels[j] = 1.0
        effect = (response(levels) - base) / 2.0
        if effect > threshold:
            important.append(j)
    return ScreeningResult(
        important=important, runs_used=runs, probes=num_factors
    )


def gp_screening(
    inputs: np.ndarray,
    responses: Sequence[float],
    top_k: Optional[int] = None,
    relative_threshold: float = 0.1,
) -> List[int]:
    """Screen via the fitted GP correlation parameters (Section 4.3).

    "A very low value for theta_j implies a correlation function that
    approximately equals 1, so that there is no variability in model
    response as the value of the j-th parameter changes."  Factors are
    declared important when their theta exceeds ``relative_threshold``
    times the maximum (or the ``top_k`` largest are returned).
    """
    from repro.metamodel.gp import GaussianProcessMetamodel

    model = GaussianProcessMetamodel().fit(inputs, responses)
    theta = model.factor_importances()
    if top_k is not None:
        order = np.argsort(theta)[::-1]
        return sorted(int(i) for i in order[:top_k])
    cutoff = relative_threshold * float(theta.max())
    return [int(i) for i in np.flatnonzero(theta >= cutoff)]
