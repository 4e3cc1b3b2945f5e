"""repro.obs — tracing, metrics, and profiling for every hot path.

The paper's arguments are quantitative claims about *where work
happens*: shuffle volume in DSGD vs direct solvers (Section 2.2),
tuple-bundle instantiation cost in MCDB (Section 2.1), per-step
resampling cost in particle filtering (Section 3).  This subsystem
records those quantities uniformly — a process-wide
:class:`~repro.obs.metrics.MetricsRegistry` plus a hierarchical
:class:`~repro.obs.tracing.Tracer` — behind a module-level switch.

Usage in instrumented code::

    from repro.obs import get_observer

    observer = get_observer()
    with observer.span("mapreduce.map", tasks=len(splits)):
        ...
    observer.counter("mapreduce.shuffle_bytes").add(n)

Observability is **off by default**: unless the ``REPRO_OBS``
environment variable is set to a truthy value, :func:`get_observer`
returns a shared :class:`NullObserver` whose instruments and spans are
reusable singleton no-ops, so instrumented hot paths pay only a
function call and an attribute check.  The repository benchmark
(``perfbench/``) runs with ``REPRO_OBS`` unset, so every figure it
reports includes the disabled path's cost.

Determinism contract
--------------------
The ``values`` section of a metrics snapshot is byte-identical across
the ``serial`` and ``process`` execution backends; only the ``timing``
section and the trace (both wall-clock) may differ.  Two rules make
this hold:

* instrumented code records deterministic quantities from the *driver*,
  folding in worker results the same way :class:`JobCounters` are
  absorbed in task order;
* task interiors are never observed: every backend (including serial)
  executes tasks under :func:`suppressed`, so a metric emitted inside a
  task body is dropped identically no matter where the task ran.  (The
  process backend could not propagate worker-side metrics anyway; the
  suppression makes the serial backend agree with it.)
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Optional, Union

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    metric_key,
)
from repro.obs.tracing import Span, Tracer

#: Environment variable enabling observability for the process.
OBS_ENV_VAR = "REPRO_OBS"

_FALSEY = ("", "0", "false", "no", "off")


def env_enabled(environ=os.environ) -> bool:
    """Whether ``REPRO_OBS`` asks for a live observer."""
    return environ.get(OBS_ENV_VAR, "").strip().lower() not in _FALSEY


class _NullInstrument:
    """Absorbs every instrument method as a no-op (shared singleton)."""

    __slots__ = ()

    def inc(self) -> None:
        pass

    def add(self, amount: Any) -> None:
        pass

    def set(self, value: Any = None, **attrs: Any) -> None:
        pass

    def observe(self, value: Any) -> None:
        pass


class _NullSpanContext:
    """Reusable no-op span context (shared singleton, reentrant)."""

    __slots__ = ()

    def __enter__(self) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = _NullSpanContext()


class NullObserver:
    """The disabled path: every call returns a shared no-op object."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def timer(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN

    def reset(self) -> None:
        pass


class Observer:
    """The live path: a metrics registry plus a tracer."""

    enabled = True

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()

    def counter(self, name: str, **labels: Any) -> Counter:
        """Counter from the process-wide registry."""
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Gauge from the process-wide registry."""
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Histogram from the process-wide registry."""
        return self.metrics.histogram(name, **labels)

    def timer(self, name: str, **labels: Any) -> Timer:
        """Timer from the process-wide registry (wall-clock section)."""
        return self.metrics.timer(name, **labels)

    def span(self, name: str, **attrs: Any):
        """Open a tracing span (context manager yielding the span)."""
        return self.tracer.span(name, **attrs)

    def reset(self) -> None:
        """Clear both the registry and the trace."""
        self.metrics.reset()
        self.tracer.reset()


_NULL_OBSERVER = NullObserver()
_observer: Union[Observer, NullObserver] = (
    Observer() if env_enabled() else _NULL_OBSERVER
)
_suppress = threading.local()


def get_observer() -> Union[Observer, NullObserver]:
    """The process observer — null when disabled or inside a task body."""
    if getattr(_suppress, "depth", 0):
        return _NULL_OBSERVER
    return _observer


def is_enabled() -> bool:
    """Whether the process currently records observability data."""
    return _observer.enabled


def enable() -> Observer:
    """Switch the process to a live observer (idempotent); returns it."""
    global _observer
    if not _observer.enabled:
        _observer = Observer()
    return _observer  # type: ignore[return-value]


def disable() -> None:
    """Switch the process back to the no-op observer."""
    global _observer
    _observer = _NULL_OBSERVER


@contextmanager
def suppressed():
    """Drop observability inside the block (used around task bodies).

    Reentrant and thread-local: the parallel backends wrap task
    execution with this on *every* backend so worker-side emissions are
    uniformly discarded, preserving cross-backend metric identity.
    """
    _suppress.depth = getattr(_suppress, "depth", 0) + 1
    try:
        yield
    finally:
        _suppress.depth -= 1


__all__ = [
    "OBS_ENV_VAR",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullObserver",
    "Observer",
    "Span",
    "Timer",
    "Tracer",
    "disable",
    "enable",
    "env_enabled",
    "get_observer",
    "is_enabled",
    "metric_key",
    "suppressed",
]
