"""Process-wide metrics: labeled counters, gauges, histograms, timers.

The registry is the single place where the paper's quantitative claims
become numbers — shuffle volume (Section 2.2) lands in
``mapreduce.shuffle_bytes``, tuple-bundle instantiation cost (Section
2.1) in ``mcdb.bundle.seconds``, per-step resampling cost in
``assimilation.ess`` / ``assimilation.resample.seconds``, and so on.

Instruments split into two determinism classes, and the snapshot keeps
them apart:

* **values** — counters, gauges, and histograms record quantities that
  are pure functions of the workload (record counts, ESS series,
  evaluation budgets).  Instrumented hot paths only ever update them
  from the driver, so a values snapshot is byte-identical across the
  ``serial`` and ``process`` execution backends.
* **timing** — timers accumulate wall-clock seconds.  They are real
  measurements and therefore differ run to run and backend to backend;
  consumers comparing snapshots must compare the ``values`` section
  only.

Metric identity is the *stable key* ``name{label=value,...}`` with
labels sorted by label name, so snapshots serialize deterministically
(``json.dumps(..., sort_keys=True)`` of a snapshot is reproducible).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Mapping, Optional


def metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """The stable identity of an instrument: ``name{k=v,...}``, k sorted."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (records, tasks, evaluations)."""

    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0

    def inc(self) -> None:
        """Add one."""
        self.value += 1

    def add(self, amount: int) -> None:
        """Add ``amount`` (must be >= 0 to keep the counter monotone)."""
        self.value += amount


class Gauge:
    """A last-write-wins scalar (a size, a final log-likelihood)."""

    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value: Any = None

    def set(self, value: Any) -> None:
        """Record the current value, replacing the previous one."""
        self.value = value


class Histogram:
    """Streaming summary of an observed series: count/sum/min/max.

    Observations arrive in a deterministic (driver-side) order, so the
    floating-point ``sum`` is reproducible bit for bit.
    """

    __slots__ = ("key", "count", "total", "minimum", "maximum")

    def __init__(self, key: str) -> None:
        self.key = key
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def summary(self) -> Dict[str, Any]:
        """The exported representation (mean derived, not stored)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": (self.total / self.count) if self.count else None,
        }


class Timer:
    """Accumulated wall-clock seconds over ``count`` timed regions.

    Timers live in the snapshot's ``timing`` section and are excluded
    from the cross-backend determinism contract.
    """

    __slots__ = ("key", "count", "seconds")

    def __init__(self, key: str) -> None:
        self.key = key
        self.count = 0
        self.seconds = 0.0

    def add(self, seconds: float) -> None:
        """Account one timed region of ``seconds`` wall-clock duration."""
        self.count += 1
        self.seconds += float(seconds)


class MetricsRegistry:
    """Process-wide instrument store with stable-keyed JSON snapshots.

    ``counter``/``gauge``/``histogram``/``timer`` are get-or-create under
    a lock; the returned instrument objects update lock-free (the hot
    paths only touch them from the driver thread, and CPython attribute
    stores on ints/floats are safe under concurrent readers).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}

    def _get(self, store: Dict[str, Any], cls, name: str, labels) -> Any:
        key = metric_key(name, labels)
        instrument = store.get(key)
        if instrument is None:
            with self._lock:
                instrument = store.setdefault(key, cls(key))
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create the counter identified by ``name`` + ``labels``."""
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create the gauge identified by ``name`` + ``labels``."""
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Get or create the histogram identified by ``name`` + ``labels``."""
        return self._get(self._histograms, Histogram, name, labels)

    def timer(self, name: str, **labels: Any) -> Timer:
        """Get or create the timer identified by ``name`` + ``labels``."""
        return self._get(self._timers, Timer, name, labels)

    def reset(self) -> None:
        """Drop every instrument (tests and repeated reports)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._timers.clear()

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict export, deterministic ``values`` first.

        ``snapshot()["values"]`` is the cross-backend comparable part;
        ``snapshot()["timing"]`` carries wall-clock measurements.
        """
        with self._lock:
            return {
                "values": {
                    "counters": {
                        k: c.value for k, c in sorted(self._counters.items())
                    },
                    "gauges": {
                        k: g.value for k, g in sorted(self._gauges.items())
                    },
                    "histograms": {
                        k: h.summary()
                        for k, h in sorted(self._histograms.items())
                    },
                },
                "timing": {
                    k: {"count": t.count, "seconds": t.seconds}
                    for k, t in sorted(self._timers.items())
                },
            }

    def values_json(self) -> str:
        """The deterministic section serialized with sorted keys."""
        return json.dumps(self.snapshot()["values"], sort_keys=True)

    def to_json(self, indent: int = 2) -> str:
        """The full snapshot serialized with sorted keys."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)

    def render(self) -> str:
        """Human-readable rendering, one instrument per line."""
        snap = self.snapshot()
        lines = []
        for key, value in snap["values"]["counters"].items():
            lines.append(f"counter    {key} = {value}")
        for key, value in snap["values"]["gauges"].items():
            lines.append(f"gauge      {key} = {value}")
        for key, summary in snap["values"]["histograms"].items():
            mean = summary["mean"]
            mean_text = "n/a" if mean is None else f"{mean:.4g}"
            lines.append(
                f"histogram  {key}: n={summary['count']} "
                f"mean={mean_text} min={summary['min']} max={summary['max']}"
            )
        for key, timing in snap["timing"].items():
            lines.append(
                f"timer      {key}: n={timing['count']} "
                f"total={timing['seconds'] * 1e3:.3f}ms"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"
