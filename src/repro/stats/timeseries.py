"""Trend models and the "dangers of extrapolation" demonstration (Figure 1).

Figure 1 of the paper fits a simple time-series model to 1970–2006 median
U.S. housing prices and extrapolates to 2011; the extrapolation fails
spectacularly because the underlying data-generating mechanism changed in
2006.  We reproduce the demonstration with a synthetic series shaped like the
historical one (steady growth, a bubble, then a collapse) — the qualitative
point is regime change, which any such series exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class TrendModel:
    """A fitted polynomial trend ``y ~ sum_k beta_k t^k``."""

    coefficients: np.ndarray
    origin: float

    @property
    def degree(self) -> int:
        """Polynomial degree of the trend."""
        return int(self.coefficients.shape[0]) - 1

    def predict(self, times: Sequence[float]) -> np.ndarray:
        """Evaluate the trend at ``times``."""
        t = np.asarray(times, dtype=float) - self.origin
        return np.polyval(self.coefficients[::-1], t)


def fit_polynomial_trend(
    times: Sequence[float], values: Sequence[float], degree: int = 2
) -> TrendModel:
    """Least-squares polynomial trend fit.

    ``times`` are shifted to start at zero before fitting for numerical
    stability; the returned model accounts for the shift.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise SimulationError("times/values must be equal-length 1-D arrays")
    if t.size <= degree:
        raise SimulationError(
            f"need more than {degree} points to fit degree {degree}"
        )
    origin = float(t[0])
    coeffs = np.polyfit(t - origin, y, deg=degree)[::-1]
    return TrendModel(coefficients=coeffs, origin=origin)


@dataclass(frozen=True)
class ExtrapolationReport:
    """Outcome of an extrapolation experiment against held-out data."""

    horizon_times: np.ndarray
    predicted: np.ndarray
    actual: np.ndarray

    @property
    def errors(self) -> np.ndarray:
        """Prediction minus actual at each horizon point."""
        return self.predicted - self.actual

    @property
    def relative_errors(self) -> np.ndarray:
        """Relative errors ``(pred - actual) / actual``."""
        return self.errors / self.actual

    @property
    def max_relative_error(self) -> float:
        """Largest absolute relative error over the horizon."""
        return float(np.max(np.abs(self.relative_errors)))

    @property
    def terminal_gap(self) -> float:
        """Relative over-prediction at the final horizon point."""
        return float(self.relative_errors[-1])


def extrapolate_and_score(
    times: Sequence[float],
    values: Sequence[float],
    fit_through: float,
    degree: int = 2,
) -> ExtrapolationReport:
    """Fit a trend on data up to ``fit_through`` and score the remainder.

    This is the Figure 1 experiment in one call: the model is fit only on the
    prefix (e.g. 1970–2006) and evaluated on the suffix (2007–2011).
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    mask = t <= fit_through
    if mask.all():
        raise SimulationError("no held-out points beyond fit_through")
    if mask.sum() <= degree:
        raise SimulationError("too few points before fit_through to fit")
    model = fit_polynomial_trend(t[mask], y[mask], degree=degree)
    horizon = t[~mask]
    return ExtrapolationReport(
        horizon_times=horizon,
        predicted=model.predict(horizon),
        actual=y[~mask],
    )


def synthetic_housing_prices(
    start_year: int = 1970,
    end_year: int = 2011,
    collapse_year: int = 2006,
    base_price: float = 25.0,
    growth_rate: float = 0.055,
    bubble_boost: float = 0.06,
    bubble_start: int = 1998,
    collapse_rate: float = 0.11,
    noise_sd: float = 0.01,
    seed: Optional[int] = 7,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a synthetic median-housing-price series with a 2006 collapse.

    The series grows exponentially at ``growth_rate``, accelerates by
    ``bubble_boost`` from ``bubble_start`` through ``collapse_year`` (the
    bubble), then declines at ``collapse_rate`` — mimicking the qualitative
    shape of U.S. median prices 1970–2011 (in thousands of dollars).

    Returns
    -------
    (years, prices):
        Integer years and the price level for each year.
    """
    if not start_year < collapse_year < end_year:
        raise SimulationError(
            "need start_year < collapse_year < end_year"
        )
    rng = np.random.default_rng(seed)
    years = np.arange(start_year, end_year + 1)
    log_price = np.empty(years.shape, dtype=float)
    log_price[0] = np.log(base_price)
    for i in range(1, years.size):
        year = years[i]
        rate = growth_rate
        if bubble_start <= year <= collapse_year:
            rate += bubble_boost
        elif year > collapse_year:
            rate = -collapse_rate
        log_price[i] = log_price[i - 1] + rate + rng.normal(0.0, noise_sd)
    return years, np.exp(log_price)


def autocorrelation(values: Sequence[float], lag: int = 1) -> float:
    """Sample autocorrelation at ``lag`` (diagnostic for residual structure)."""
    y = np.asarray(values, dtype=float)
    if lag < 1 or lag >= y.size:
        raise SimulationError(f"lag must be in [1, {y.size - 1}], got {lag}")
    centered = y - y.mean()
    denom = float(centered @ centered)
    if denom == 0:
        return 0.0
    return float(centered[:-lag] @ centered[lag:]) / denom


def fit_ar1(values: Sequence[float]) -> Tuple[float, float, float]:
    """Fit an AR(1) model ``y_t = c + phi y_{t-1} + eps`` by least squares.

    Returns ``(c, phi, residual_sd)``.  Used as the "simple time series
    model" alternative to polynomial trends in the Figure 1 experiment.
    """
    y = np.asarray(values, dtype=float)
    if y.size < 3:
        raise SimulationError("AR(1) fit needs at least 3 points")
    x = y[:-1]
    target = y[1:]
    design = np.column_stack([np.ones(x.size), x])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    residuals = target - design @ coef
    sd = float(np.sqrt(residuals.var(ddof=2))) if x.size > 2 else 0.0
    return float(coef[0]), float(coef[1]), sd


def forecast_ar1(
    c: float, phi: float, last_value: float, steps: int
) -> np.ndarray:
    """Deterministic (mean) AR(1) forecast for ``steps`` periods ahead."""
    if steps < 1:
        raise SimulationError("steps must be >= 1")
    out = np.empty(steps)
    prev = last_value
    for i in range(steps):
        prev = c + phi * prev
        out[i] = prev
    return out
