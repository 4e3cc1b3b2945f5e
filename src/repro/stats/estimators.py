"""Point and interval estimators for Monte Carlo output analysis.

These routines implement the output-analysis toolkit the paper leans on
throughout: sample moments and quantiles of query-result distributions
(Section 2.1), asymptotic-normal confidence intervals for budget-constrained
estimators (Section 2.3), and the cost-times-variance *efficiency* measure of
Hammersley & Handscomb used to compare simulation strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a point estimate."""

    estimate: float
    lower: float
    upper: float
    level: float

    @property
    def half_width(self) -> float:
        """Half-width of the interval."""
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        """Return ``True`` when ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper


def _z_quantile(p: float) -> float:
    """Standard normal quantile via scipy (kept in one place)."""
    from scipy.stats import norm

    return float(norm.ppf(p))


def sample_mean(samples: Sequence[float]) -> float:
    """Sample mean of Monte Carlo outputs."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise SimulationError("cannot estimate from zero samples")
    return float(arr.mean())


def sample_variance(samples: Sequence[float], ddof: int = 1) -> float:
    """Unbiased sample variance (``ddof=1``)."""
    arr = np.asarray(samples, dtype=float)
    if arr.size <= ddof:
        raise SimulationError(
            f"need more than {ddof} samples for variance, got {arr.size}"
        )
    return float(arr.var(ddof=ddof))


def sample_quantile(samples: Sequence[float], q: float) -> float:
    """Empirical ``q``-quantile of Monte Carlo outputs."""
    if not 0.0 <= q <= 1.0:
        raise SimulationError(f"quantile level must be in [0,1], got {q}")
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise SimulationError("cannot estimate from zero samples")
    return float(np.quantile(arr, q))


def mean_confidence_interval(
    samples: Sequence[float], level: float = 0.95
) -> ConfidenceInterval:
    """Normal-approximation confidence interval for the mean."""
    arr = np.asarray(samples, dtype=float)
    m = sample_mean(arr)
    if arr.size < 2:
        return ConfidenceInterval(m, m, m, level)
    se = math.sqrt(sample_variance(arr) / arr.size)
    z = _z_quantile(0.5 + level / 2.0)
    return ConfidenceInterval(m, m - z * se, m + z * se, level)


def quantile_confidence_interval(
    samples: Sequence[float], q: float, level: float = 0.95
) -> ConfidenceInterval:
    """Distribution-free (order statistic) CI for the ``q``-quantile.

    Uses the binomial normal approximation to pick order-statistic indices;
    this is the standard nonparametric interval used when MCDB-style systems
    report quantiles of a query-result distribution.
    """
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    if n == 0:
        raise SimulationError("cannot estimate from zero samples")
    point = sample_quantile(arr, q)
    if n < 2:
        return ConfidenceInterval(point, point, point, level)
    z = _z_quantile(0.5 + level / 2.0)
    se = math.sqrt(n * q * (1.0 - q))
    lo_idx = int(np.clip(math.floor(n * q - z * se), 0, n - 1))
    hi_idx = int(np.clip(math.ceil(n * q + z * se), 0, n - 1))
    return ConfidenceInterval(point, float(arr[lo_idx]), float(arr[hi_idx]), level)


def batch_means(
    samples: Sequence[float], batches: int
) -> Tuple[float, float]:
    """Batch-means estimate ``(mean, se)`` for correlated output sequences.

    Splits the series into ``batches`` contiguous batches and treats batch
    means as approximately i.i.d. — the standard method for steady-state
    simulation output.
    """
    arr = np.asarray(samples, dtype=float)
    if batches < 2:
        raise SimulationError("need at least 2 batches")
    if arr.size < batches:
        raise SimulationError(
            f"need at least {batches} samples, got {arr.size}"
        )
    usable = (arr.size // batches) * batches
    means = arr[:usable].reshape(batches, -1).mean(axis=1)
    se = math.sqrt(means.var(ddof=1) / batches)
    return float(means.mean()), se


def efficiency(cost_per_output: float, variance_per_output: float) -> float:
    """Hammersley–Handscomb efficiency ``1 / (cost * variance)``.

    The paper (Section 2.3) justifies this product-form criterion via the
    asymptotics of budget-constrained estimators: for budget ``c`` the error
    is ``~ sqrt(g/c) N(0,1)`` with ``g = cost * variance``, so minimizing
    ``g`` maximizes asymptotic efficiency.
    """
    if cost_per_output <= 0 or variance_per_output < 0:
        raise SimulationError("cost must be > 0 and variance >= 0")
    if variance_per_output == 0:
        return math.inf
    return 1.0 / (cost_per_output * variance_per_output)


@dataclass
class RunningStatistics:
    """Welford-style streaming mean/variance accumulator.

    Component models in a composite system are profiled continually as they
    run (Section 2.3's analogy to RDBMS catalog statistics); this accumulator
    is the primitive those metadata statistics are built from.
    """

    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0

    def update(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    def update_many(self, values: Sequence[float]) -> None:
        """Fold a batch of observations into the running statistics."""
        for v in values:
            self.update(float(v))

    @property
    def mean(self) -> float:
        """Running sample mean (0.0 before any observation)."""
        return self._mean

    @property
    def variance(self) -> float:
        """Running unbiased sample variance (0.0 with < 2 observations)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Running sample standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStatistics") -> "RunningStatistics":
        """Return the statistics of the union of both observation sets."""
        if other.count == 0:
            return RunningStatistics(self.count, self._mean, self._m2)
        if self.count == 0:
            return RunningStatistics(other.count, other._mean, other._m2)
        total = self.count + other.count
        delta = other._mean - self._mean
        mean = self._mean + delta * other.count / total
        m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / total
        )
        return RunningStatistics(total, mean, m2)


def covariance(x: Sequence[float], y: Sequence[float]) -> float:
    """Unbiased sample covariance of paired observations."""
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.shape != ay.shape or ax.ndim != 1:
        raise SimulationError("covariance needs equal-length 1-D samples")
    if ax.size < 2:
        raise SimulationError("covariance needs at least 2 pairs")
    return float(np.cov(ax, ay, ddof=1)[0, 1])
