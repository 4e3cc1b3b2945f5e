"""Time alignment between composite-model components (Splash, Section 2.2).

Splash's time aligner "determines the class of time alignment needed —
e.g. aggregation if the target model has coarser time granularity than the
source model or interpolation if the target has finer granularity" and
compiles the chosen method to Hadoop.  This module implements:

* alignment classification from source/target granularities;
* window aggregation (mean / sum / last) for coarsening;
* linear and natural-cubic-spline interpolation for refinement, both
  sequentially and as a MapReduce job over per-window work units
  (the parallelization scheme described in the paper: each window
  ``(s_j, s_{j+1})`` computes the target points falling inside it, and the
  target series is assembled by a parallel sort).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AlignmentError
from repro.harmonize.spline import (
    NaturalCubicSpline,
    evaluate_window,
    linear_interpolate,
)
from repro.harmonize.timeseries import TimeSeries
from repro.mapreduce.counters import JobCounters
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import Cluster
from repro.stats.linalg import spline_system, thomas_solve


class AlignmentClass(enum.Enum):
    """The kind of transformation a source→target pair needs."""

    IDENTITY = "identity"
    AGGREGATION = "aggregation"
    INTERPOLATION = "interpolation"


def classify_alignment(
    source_spacing: float, target_spacing: float, tolerance: float = 1e-9
) -> AlignmentClass:
    """Coarser target → aggregation; finer target → interpolation."""
    if source_spacing <= 0 or target_spacing <= 0:
        raise AlignmentError("spacings must be positive")
    if abs(source_spacing - target_spacing) <= tolerance:
        return AlignmentClass.IDENTITY
    if target_spacing > source_spacing:
        return AlignmentClass.AGGREGATION
    return AlignmentClass.INTERPOLATION


def aggregate_series(
    series: TimeSeries,
    target_times: Sequence[float],
    method: str = "mean",
) -> TimeSeries:
    """Aggregate source observations into target windows.

    Target time ``t_i`` receives the aggregate of source observations in
    ``[t_i, t_{i+1})`` (the last window extends to infinity).  ``method``
    is ``"mean"``, ``"sum"`` or ``"last"``.
    """
    if method not in ("mean", "sum", "last"):
        raise AlignmentError(f"unknown aggregation method {method!r}")
    targets = np.asarray(target_times, dtype=float)
    if targets.ndim != 1 or targets.size == 0:
        raise AlignmentError("target_times must be non-empty 1-D")
    if np.any(np.diff(targets) <= 0):
        raise AlignmentError("target_times must be strictly increasing")
    edges = np.concatenate([targets, [np.inf]])
    assignment = np.searchsorted(edges, series.times, side="right") - 1
    out_channels: Dict[str, np.ndarray] = {}
    for name, values in series.channels.items():
        out = np.full(targets.size, np.nan)
        for i in range(targets.size):
            mask = assignment == i
            if not mask.any():
                continue
            window = values[mask]
            if method == "mean":
                out[i] = window.mean()
            elif method == "sum":
                out[i] = window.sum()
            else:
                out[i] = window[-1]
        out_channels[name] = out
    return TimeSeries(
        times=targets,
        channels=out_channels,
        units=dict(series.units),
        time_unit=series.time_unit,
    )


def interpolate_series(
    series: TimeSeries,
    target_times: Sequence[float],
    method: str = "cubic",
) -> TimeSeries:
    """Sequential interpolation of every channel onto ``target_times``."""
    targets = np.asarray(target_times, dtype=float)
    out_channels: Dict[str, np.ndarray] = {}
    for name, values in series.channels.items():
        if method == "linear":
            out_channels[name] = linear_interpolate(
                series.times, values, targets
            )
        elif method == "cubic":
            spline = NaturalCubicSpline.fit(series.times, values)
            out_channels[name] = spline.evaluate(targets)
        else:
            raise AlignmentError(f"unknown interpolation method {method!r}")
    return TimeSeries(
        times=targets,
        channels=out_channels,
        units=dict(series.units),
        time_unit=series.time_unit,
    )


# ---------------------------------------------------------------------------
# MapReduce interpolation over windows
# ---------------------------------------------------------------------------


def _window_work_units(
    times: np.ndarray,
    values: np.ndarray,
    sigma: np.ndarray,
    targets: np.ndarray,
) -> List[Tuple[int, dict]]:
    """One work unit per source window containing >= 1 target point.

    Each unit is self-contained: window endpoints, endpoint data values,
    and the two spline constants — everything the paper's formula needs.
    """
    j = np.clip(
        np.searchsorted(times, targets, side="right") - 1, 0, times.size - 2
    )
    units: Dict[int, dict] = {}
    for target_index, (t, window) in enumerate(zip(targets, j)):
        unit = units.setdefault(
            int(window),
            {
                "s_j": float(times[window]),
                "s_j1": float(times[window + 1]),
                "d_j": float(values[window]),
                "d_j1": float(values[window + 1]),
                "sigma_j": float(sigma[window]),
                "sigma_j1": float(sigma[window + 1]),
                "targets": [],
            },
        )
        unit["targets"].append((int(target_index), float(t)))
    return list(units.items())


def interpolate_on_cluster(
    cluster: Cluster,
    series: TimeSeries,
    target_times: Sequence[float],
    method: str = "cubic",
    counters: Optional[JobCounters] = None,
) -> TimeSeries:
    """Distributed interpolation: windows in parallel, then a merge.

    The spline constants are computed once up front (by the exact
    tridiagonal solve here; :func:`repro.harmonize.dsgd.dsgd_solve` offers
    the distributed alternative) and shipped with their windows; map tasks
    evaluate the interpolation formula per window, and reducers assemble
    the target series — the "processed in parallel and then ... assembled
    via a parallel sort" scheme of the paper.
    """
    if method not in ("linear", "cubic"):
        raise AlignmentError(f"unknown interpolation method {method!r}")
    targets = np.asarray(target_times, dtype=float)
    if np.any(targets < series.times[0]) or np.any(targets > series.times[-1]):
        raise AlignmentError("target times outside the source range")
    counters = counters if counters is not None else JobCounters()
    out_channels: Dict[str, np.ndarray] = {}
    for name, values in series.channels.items():
        if method == "cubic":
            sigma_interior = thomas_solve(spline_system(series.times, values))
            sigma = np.concatenate([[0.0], sigma_interior, [0.0]])
        else:
            sigma = np.zeros(series.times.size)
        units = _window_work_units(series.times, values, sigma, targets)

        def mapper(window_id, unit):
            for target_index, t in unit["targets"]:
                if method == "cubic":
                    value = float(
                        evaluate_window(
                            unit["s_j"],
                            unit["s_j1"],
                            unit["d_j"],
                            unit["d_j1"],
                            unit["sigma_j"],
                            unit["sigma_j1"],
                            np.asarray(t),
                        )
                    )
                else:
                    span = unit["s_j1"] - unit["s_j"]
                    frac = (t - unit["s_j"]) / span
                    value = unit["d_j"] * (1 - frac) + unit["d_j1"] * frac
                yield target_index, value

        def reducer(target_index, values_for_index):
            for v in values_for_index:
                yield target_index, v

        job = MapReduceJob(f"interpolate-{name}", mapper, reducer)
        stage = JobCounters()
        output = cluster.run(job, units, stage)
        counters.records_read += stage.records_read
        counters.records_mapped += stage.records_mapped
        counters.records_shuffled += stage.records_shuffled
        counters.shuffle_bytes += stage.shuffle_bytes
        counters.records_reduced += stage.records_reduced
        counters.records_written += stage.records_written
        result = np.full(targets.size, np.nan)
        for target_index, value in output:
            result[target_index] = value
        out_channels[name] = result
    return TimeSeries(
        times=targets,
        channels=out_channels,
        units=dict(series.units),
        time_unit=series.time_unit,
    )


@dataclass
class TimeAligner:
    """End-to-end aligner: classify, pick a method, transform.

    Mirrors Splash's time-aligner tool: given source and target
    granularities it selects aggregation vs interpolation and applies the
    configured method for that class.
    """

    aggregation_method: str = "mean"
    interpolation_method: str = "cubic"
    cluster: Optional[Cluster] = None

    def align(
        self, series: TimeSeries, target_times: Sequence[float]
    ) -> TimeSeries:
        """Align ``series`` onto ``target_times``."""
        targets = np.asarray(target_times, dtype=float)
        if targets.size < 2:
            raise AlignmentError("need at least 2 target times")
        klass = classify_alignment(
            series.median_spacing, float(np.median(np.diff(targets)))
        )
        if klass is AlignmentClass.AGGREGATION:
            return aggregate_series(series, targets, self.aggregation_method)
        if klass is AlignmentClass.IDENTITY:
            return interpolate_series(series, targets, "linear")
        if self.cluster is not None:
            return interpolate_on_cluster(
                self.cluster, series, targets, self.interpolation_method
            )
        return interpolate_series(series, targets, self.interpolation_method)
