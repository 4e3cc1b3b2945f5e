"""Risk analysis extensions (MCDB-R) and probabilistic threshold queries.

Follow-on work to MCDB ([5, 42] in the paper) extends the system with (i)
risk analysis via efficient estimation of *extreme* quantiles and (ii)
*threshold* queries of the form "Which regions will see more than a 2%
decline in sales with at least 50% probability?".  This module implements
both on top of query-result samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.mcdb.executor import QueryDistribution


@dataclass(frozen=True)
class TailQuantileEstimate:
    """An extreme-quantile estimate with its estimation method."""

    level: float
    empirical: float
    tail_extrapolated: float
    tail_index: float


def extreme_quantile(
    samples: Sequence[float], level: float, tail_fraction: float = 0.1
) -> TailQuantileEstimate:
    """Estimate an extreme upper quantile with tail extrapolation.

    For levels beyond the reach of the sample (e.g. the 0.999 quantile from
    1000 samples), the empirical quantile is badly biased.  We fit a Pareto
    tail to the top ``tail_fraction`` of the data via the Hill estimator
    and extrapolate — the standard semi-parametric approach used for
    risk-style queries.

    Returns both the empirical and tail-extrapolated estimates so callers
    can see the correction.
    """
    data = np.sort(np.asarray(samples, dtype=float))
    n = data.size
    if n < 20:
        raise SimulationError("tail estimation needs at least 20 samples")
    if not 0.5 < level < 1.0:
        raise SimulationError(f"level must be in (0.5, 1), got {level}")
    empirical = float(np.quantile(data, level))
    k = max(int(n * tail_fraction), 5)
    tail = data[-k:]
    threshold = data[-k - 1]
    if threshold <= 0:
        # Shift to positive support for the Hill estimator.
        shift = 1.0 - float(data.min())
        tail = tail + shift
        threshold = threshold + shift
        shifted = True
    else:
        shift = 0.0
        shifted = False
    hill = float(np.mean(np.log(tail / threshold)))
    if hill <= 0:
        return TailQuantileEstimate(level, empirical, empirical, math.inf)
    alpha = 1.0 / hill  # Pareto tail index
    exceed_prob = k / n
    target_prob = 1.0 - level
    quantile = threshold * (exceed_prob / target_prob) ** hill
    if shifted:
        quantile -= shift
    return TailQuantileEstimate(level, empirical, float(quantile), alpha)


def value_at_risk(
    distribution: QueryDistribution, level: float = 0.95
) -> float:
    """Value-at-risk: the ``level``-quantile of loss (upper tail)."""
    return distribution.quantile(level)


def conditional_value_at_risk(
    distribution: QueryDistribution, level: float = 0.95
) -> float:
    """Expected loss beyond the VaR level (CVaR / expected shortfall)."""
    var = value_at_risk(distribution, level)
    tail = distribution.samples[distribution.samples >= var]
    if tail.size == 0:
        return var
    return float(tail.mean())


@dataclass(frozen=True)
class ThresholdResult:
    """One group's verdict for a probabilistic threshold query."""

    group: Any
    probability: float
    qualifies: bool


def threshold_query(
    group_samples: Mapping[Any, np.ndarray],
    condition: "Any",
    min_probability: float,
) -> List[ThresholdResult]:
    """Answer "which groups satisfy ``condition`` with probability >= p?".

    Parameters
    ----------
    group_samples:
        Per-group arrays of query-result samples (e.g. per-region sales
        decline), as produced by
        :meth:`repro.mcdb.tuple_bundle.BundledTable.grouped_aggregate_sum`.
    condition:
        A callable mapping a sample array to a boolean array — e.g.
        ``lambda decline: decline > 0.02``.
    min_probability:
        The probability threshold (e.g. ``0.5``).

    Returns
    -------
    One :class:`ThresholdResult` per group, sorted by descending
    probability.
    """
    if not 0.0 < min_probability <= 1.0:
        raise SimulationError(
            f"min_probability must be in (0, 1], got {min_probability}"
        )
    results = []
    for group, samples in group_samples.items():
        indicator = np.asarray(condition(np.asarray(samples, dtype=float)))
        probability = float(indicator.mean())
        results.append(
            ThresholdResult(group, probability, probability >= min_probability)
        )
    results.sort(key=lambda r: -r.probability)
    return results
