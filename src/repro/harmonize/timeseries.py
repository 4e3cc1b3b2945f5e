"""Time-series containers for model-to-model data exchange.

Splash-style composite modeling (Section 2.2) couples models loosely "via
data exchange": an upstream model writes a time series, a downstream model
reads one — usually with different schemas and time scales.  A
:class:`TimeSeries` here is a strictly increasing time axis with one or
more named, typed data channels per tick, plus the metadata (units, time
granularity) the alignment tools use to detect mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import AlignmentError


@dataclass
class TimeSeries:
    """A multi-channel time series.

    Parameters
    ----------
    times:
        Strictly increasing observation times.
    channels:
        Mapping from channel name to a value array (same length as
        ``times``).
    units:
        Optional per-channel unit labels (used by schema alignment).
    time_unit:
        Label of the time axis unit (e.g. ``"day"``).
    """

    times: np.ndarray
    channels: Dict[str, np.ndarray]
    units: Dict[str, str] = field(default_factory=dict)
    time_unit: str = "tick"

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size == 0:
            raise AlignmentError("times must be a non-empty 1-D array")
        if np.any(np.diff(self.times) <= 0):
            raise AlignmentError("times must be strictly increasing")
        if not self.channels:
            raise AlignmentError("a time series needs at least one channel")
        normalized = {}
        for name, values in self.channels.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != self.times.shape:
                raise AlignmentError(
                    f"channel {name!r} has shape {arr.shape}, "
                    f"expected {self.times.shape}"
                )
            normalized[name] = arr
        self.channels = normalized

    # -- accessors -------------------------------------------------------
    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def channel_names(self) -> Tuple[str, ...]:
        """Channel names in insertion order."""
        return tuple(self.channels)

    def channel(self, name: str) -> np.ndarray:
        """One channel's values."""
        try:
            return self.channels[name]
        except KeyError:
            raise AlignmentError(
                f"no channel {name!r}; have {list(self.channels)}"
            ) from None

    @property
    def median_spacing(self) -> float:
        """Median inter-observation spacing (the series' granularity)."""
        if len(self) < 2:
            return float("nan")
        return float(np.median(np.diff(self.times)))

    # -- construction ----------------------------------------------------
    @classmethod
    def regular(
        cls,
        start: float,
        step: float,
        channels: Mapping[str, Sequence[float]],
        **kwargs,
    ) -> "TimeSeries":
        """Build a series on a regular grid ``start, start+step, ...``."""
        if step <= 0:
            raise AlignmentError("step must be positive")
        lengths = {len(v) for v in channels.values()}
        if len(lengths) != 1:
            raise AlignmentError("all channels must have the same length")
        n = lengths.pop()
        times = start + step * np.arange(n)
        return cls(times=times, channels={k: np.asarray(v, dtype=float) for k, v in channels.items()}, **kwargs)

    def with_channels(self, channels: Mapping[str, np.ndarray]) -> "TimeSeries":
        """A new series on the same time axis with different channels."""
        return TimeSeries(
            times=self.times.copy(),
            channels={k: np.asarray(v, dtype=float) for k, v in channels.items()},
            units=dict(self.units),
            time_unit=self.time_unit,
        )

    def slice_time(self, start: float, end: float) -> "TimeSeries":
        """The sub-series with ``start <= t <= end``."""
        mask = (self.times >= start) & (self.times <= end)
        if not mask.any():
            raise AlignmentError(
                f"no observations in [{start}, {end}]"
            )
        return TimeSeries(
            times=self.times[mask],
            channels={k: v[mask] for k, v in self.channels.items()},
            units=dict(self.units),
            time_unit=self.time_unit,
        )

    def to_records(self) -> List[Dict[str, float]]:
        """Row-oriented view: one dict per tick including ``time``."""
        out = []
        for i, t in enumerate(self.times):
            row = {"time": float(t)}
            for name, values in self.channels.items():
                row[name] = float(values[i])
            out.append(row)
        return out

    @classmethod
    def from_records(
        cls, records: Sequence[Mapping[str, float]], **kwargs
    ) -> "TimeSeries":
        """Build from row dicts containing a ``time`` key."""
        if not records:
            raise AlignmentError("cannot build a series from zero records")
        ordered = sorted(records, key=lambda r: r["time"])
        times = np.array([r["time"] for r in ordered], dtype=float)
        names = [k for k in ordered[0] if k != "time"]
        channels = {
            name: np.array([r[name] for r in ordered], dtype=float)
            for name in names
        }
        return cls(times=times, channels=channels, **kwargs)
