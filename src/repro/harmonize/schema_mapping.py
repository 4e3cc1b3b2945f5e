"""Clio++-style schema alignment between model outputs and inputs.

Splash detects "data mismatches between upstream 'source' and downstream
'target' models" at registration time and compiles graphical mapping
specifications into runtime transformation code.  Here a
:class:`SchemaMapping` is a set of :class:`FieldMapping` rules — rename,
unit-convert, or compute a target channel from source channels — that is
validated against the source/target schemas (mismatch detection) and then
compiled into a function over :class:`~repro.harmonize.timeseries.TimeSeries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AlignmentError
from repro.harmonize.timeseries import TimeSeries

#: Known multiplicative unit conversions, keyed by (from, to).
UNIT_CONVERSIONS: Dict[Tuple[str, str], float] = {
    ("kg", "lb"): 2.2046226218,
    ("lb", "kg"): 1.0 / 2.2046226218,
    ("km", "mi"): 0.6213711922,
    ("mi", "km"): 1.0 / 0.6213711922,
    ("m", "ft"): 3.280839895,
    ("ft", "m"): 1.0 / 3.280839895,
    ("celsius", "fahrenheit"): float("nan"),  # affine, handled specially
    ("fahrenheit", "celsius"): float("nan"),
    ("per_day", "per_week"): 7.0,
    ("per_week", "per_day"): 1.0 / 7.0,
    ("count", "thousands"): 1e-3,
    ("thousands", "count"): 1e3,
}


def convert_units(values: np.ndarray, source: str, target: str) -> np.ndarray:
    """Convert an array between two known units."""
    if source == target:
        return values
    if (source, target) == ("celsius", "fahrenheit"):
        return values * 9.0 / 5.0 + 32.0
    if (source, target) == ("fahrenheit", "celsius"):
        return (values - 32.0) * 5.0 / 9.0
    factor = UNIT_CONVERSIONS.get((source, target))
    if factor is None or not np.isfinite(factor):
        raise AlignmentError(
            f"no known conversion from {source!r} to {target!r}"
        )
    return values * factor


@dataclass(frozen=True)
class FieldMapping:
    """One target channel's derivation from source channels.

    Parameters
    ----------
    target:
        Name of the produced channel.
    sources:
        Source channel names consumed.
    transform:
        ``f(*source_arrays) -> array``; identity when omitted (requires
        exactly one source).
    source_unit / target_unit:
        When both are given, a unit conversion is applied after
        ``transform``.
    """

    target: str
    sources: Tuple[str, ...]
    transform: Optional[Callable[..., np.ndarray]] = None
    source_unit: Optional[str] = None
    target_unit: Optional[str] = None

    def __post_init__(self):
        if not self.sources:
            raise AlignmentError(
                f"mapping for {self.target!r} needs at least one source"
            )
        if self.transform is None and len(self.sources) != 1:
            raise AlignmentError(
                f"mapping for {self.target!r} has {len(self.sources)} "
                "sources but no transform"
            )

    def apply(self, series: TimeSeries) -> np.ndarray:
        """Evaluate this mapping against a source series."""
        arrays = [series.channel(s) for s in self.sources]
        out = (
            arrays[0].copy()
            if self.transform is None
            else np.asarray(self.transform(*arrays), dtype=float)
        )
        if out.shape != series.times.shape:
            raise AlignmentError(
                f"transform for {self.target!r} returned shape {out.shape}"
            )
        if self.source_unit and self.target_unit:
            out = convert_units(out, self.source_unit, self.target_unit)
        return out


@dataclass(frozen=True)
class MismatchReport:
    """Result of validating a mapping against source/target schemas."""

    missing_sources: Tuple[str, ...]
    unmapped_targets: Tuple[str, ...]
    unit_conflicts: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when the mapping fully covers the target schema."""
        return not (
            self.missing_sources or self.unmapped_targets or self.unit_conflicts
        )


class SchemaMapping:
    """A compiled set of field mappings from one schema to another."""

    def __init__(self, mappings: Sequence[FieldMapping]) -> None:
        if not mappings:
            raise AlignmentError("schema mapping needs at least one field")
        targets = [m.target for m in mappings]
        if len(set(targets)) != len(targets):
            raise AlignmentError(f"duplicate target channels in {targets}")
        self.mappings = list(mappings)

    @classmethod
    def identity(cls, channel_names: Sequence[str]) -> "SchemaMapping":
        """The trivial mapping copying each channel unchanged."""
        return cls([FieldMapping(n, (n,)) for n in channel_names])

    @classmethod
    def renames(cls, pairs: Mapping[str, str]) -> "SchemaMapping":
        """A pure renaming mapping ``{target: source}``."""
        return cls([FieldMapping(t, (s,)) for t, s in pairs.items()])

    def detect_mismatches(
        self,
        source_channels: Sequence[str],
        target_channels: Sequence[str],
        source_units: Optional[Mapping[str, str]] = None,
    ) -> MismatchReport:
        """Validate the mapping against declared schemas.

        This is Splash's registration-time mismatch detection: source
        channels a mapping consumes must exist, every target channel must
        be produced, and declared source units must match the mapping's
        expectation.
        """
        available = set(source_channels)
        missing = []
        unit_conflicts = []
        for m in self.mappings:
            for s in m.sources:
                if s not in available:
                    missing.append(s)
                elif (
                    m.source_unit is not None
                    and source_units is not None
                    and source_units.get(s, m.source_unit) != m.source_unit
                ):
                    unit_conflicts.append(s)
        produced = {m.target for m in self.mappings}
        unmapped = [t for t in target_channels if t not in produced]
        return MismatchReport(
            missing_sources=tuple(sorted(set(missing))),
            unmapped_targets=tuple(unmapped),
            unit_conflicts=tuple(sorted(set(unit_conflicts))),
        )

    def apply(self, series: TimeSeries) -> TimeSeries:
        """Transform a source series into the target schema."""
        channels = {m.target: m.apply(series) for m in self.mappings}
        units = {
            m.target: m.target_unit
            for m in self.mappings
            if m.target_unit is not None
        }
        return TimeSeries(
            times=series.times.copy(),
            channels=channels,
            units=units,
            time_unit=series.time_unit,
        )

    def compile(self) -> Callable[[TimeSeries], TimeSeries]:
        """Return the runtime transformation function (Splash 'compiles'
        graphical specifications into runtime code)."""
        return self.apply
