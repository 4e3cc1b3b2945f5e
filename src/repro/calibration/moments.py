"""Method of moments and the method of simulated moments (MSM).

Section 3.1: the method of moments solves ``Ybar_n - m(theta) = 0`` for
a vector of observed statistics; when ``m(theta)`` "is usually too
complex to be calculated analytically", the MSM (McFadden [41])
approximates it by a simulation-based estimate ``m_hat(theta)`` and
relaxes root finding to minimizing the generalized distance

``J(theta) = G_n^T W G_n``,  ``G_n = Ybar_n - m_hat(theta)``,

with ``W`` "an estimate of the inverse of the variance-covariance matrix"
of ``G_n`` for statistical efficiency (Hansen's GMM weighting [30]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CalibrationError

#: A simulator maps (theta, rng) to one vector of summary statistics.
MomentSimulator = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def exponential_mm(data: Sequence[float]) -> float:
    """Method of moments for the exponential rate: solve ``E[X] = 1/theta``.

    Coincides with the MLE (the paper's observation).
    """
    x = np.asarray(data, dtype=float)
    mean = float(x.mean())
    if mean <= 0:
        raise CalibrationError("sample mean must be positive")
    return 1.0 / mean


def normal_mm(data: Sequence[float]) -> Tuple[float, float]:
    """Method of moments for the normal: equate first two moments."""
    x = np.asarray(data, dtype=float)
    if x.size < 2:
        raise CalibrationError("need at least two observations")
    return float(x.mean()), float(x.std(ddof=0))


@dataclass
class MSMProblem:
    """An MSM calibration problem.

    Parameters
    ----------
    simulator:
        Produces one simulated statistics vector per call.
    observed_statistics:
        The empirical target ``Ybar_n``.
    simulations_per_theta:
        Replications averaged into ``m_hat(theta)``.
    weight_matrix:
        ``W``; identity when omitted (use
        :meth:`estimate_weight_matrix` for the efficient choice).
    seed:
        Root seed; every ``J`` evaluation at the same ``theta`` reuses
        the same streams (common random numbers), which smooths the
        objective for the optimizers.
    """

    simulator: MomentSimulator
    observed_statistics: np.ndarray
    simulations_per_theta: int = 10
    weight_matrix: Optional[np.ndarray] = None
    seed: int = 0
    evaluations: int = field(default=0, init=False)
    simulation_calls: int = field(default=0, init=False)

    def __post_init__(self):
        self.observed_statistics = np.asarray(
            self.observed_statistics, dtype=float
        )
        if self.observed_statistics.ndim != 1:
            raise CalibrationError("observed statistics must be a vector")
        if self.simulations_per_theta < 1:
            raise CalibrationError("simulations_per_theta must be >= 1")
        if self.weight_matrix is not None:
            w = np.asarray(self.weight_matrix, dtype=float)
            k = self.observed_statistics.size
            if w.shape != (k, k):
                raise CalibrationError(
                    f"weight matrix must be {k}x{k}, got {w.shape}"
                )
            self.weight_matrix = w

    # -- simulation ------------------------------------------------------
    def simulated_moments(self, theta: np.ndarray) -> np.ndarray:
        """``m_hat(theta)``: averaged simulated statistics (CRN streams)."""
        theta = np.asarray(theta, dtype=float)
        total = np.zeros_like(self.observed_statistics)
        for r in range(self.simulations_per_theta):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(r,))
            )
            stats = np.asarray(self.simulator(theta, rng), dtype=float)
            if stats.shape != self.observed_statistics.shape:
                raise CalibrationError(
                    f"simulator returned shape {stats.shape}, expected "
                    f"{self.observed_statistics.shape}"
                )
            total += stats
            self.simulation_calls += 1
        return total / self.simulations_per_theta

    def objective(self, theta: np.ndarray) -> float:
        """The generalized distance ``J(theta)``."""
        self.evaluations += 1
        g = self.observed_statistics - self.simulated_moments(theta)
        if self.weight_matrix is None:
            return float(g @ g)
        return float(g @ self.weight_matrix @ g)

    def estimate_weight_matrix(
        self, theta: np.ndarray, replications: int = 30
    ) -> np.ndarray:
        """Estimate ``W`` as the inverse covariance of simulated statistics.

        Run the simulator ``replications`` times at ``theta`` (typically a
        preliminary estimate), compute the statistics' covariance, invert
        (with ridge regularization for near-singular cases), and install
        the result as this problem's weight matrix.
        """
        if replications < max(3, self.observed_statistics.size + 1):
            raise CalibrationError("too few replications to estimate W")
        samples = np.empty(
            (replications, self.observed_statistics.size)
        )
        for r in range(replications):
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=self.seed, spawn_key=(10_000 + r,)
                )
            )
            samples[r] = np.asarray(self.simulator(theta, rng), dtype=float)
            self.simulation_calls += 1
        cov = np.cov(samples, rowvar=False)
        cov = np.atleast_2d(cov)
        ridge = 1e-8 * float(np.trace(cov)) / cov.shape[0] + 1e-12
        w = np.linalg.inv(cov + ridge * np.eye(cov.shape[0]))
        self.weight_matrix = w
        return w

    def with_regularization(
        self, penalty: float, reference: np.ndarray
    ) -> Callable[[np.ndarray], float]:
        """A ridge-regularized objective ``J + penalty ||theta - ref||^2``.

        The paper notes that "regularization terms can potentially be
        incorporated into the objective function J to avoid overfitting".
        """
        reference = np.asarray(reference, dtype=float)
        if penalty < 0:
            raise CalibrationError("penalty must be nonnegative")

        def objective(theta: np.ndarray) -> float:
            theta = np.asarray(theta, dtype=float)
            return self.objective(theta) + penalty * float(
                (theta - reference) @ (theta - reference)
            )

        return objective


def standard_market_moments(returns: np.ndarray) -> np.ndarray:
    """The moment vector used for asset-market calibration.

    Variance, kurtosis, and absolute-return autocorrelations at lags 1
    and 5 — the stylized facts (fat tails, volatility clustering) that
    structural-volatility calibrations target (Franke & Westerhoff [20]).
    """
    r = np.asarray(returns, dtype=float)
    if r.size < 20:
        raise CalibrationError("need at least 20 return observations")
    var = float(r.var())
    sd = math.sqrt(var) if var > 0 else 1.0
    centered = r - r.mean()
    kurt = float(np.mean(centered**4) / (var**2 + 1e-300))
    abs_r = np.abs(r)

    def autocorr(series: np.ndarray, lag: int) -> float:
        a = series - series.mean()
        denom = float(a @ a)
        if denom == 0:
            return 0.0
        return float(a[:-lag] @ a[lag:]) / denom

    return np.array([var, kurt, autocorr(abs_r, 1), autocorr(abs_r, 5)])
