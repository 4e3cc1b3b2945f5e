"""Parallel execution backends for Monte Carlo and MapReduce workloads.

The paper's central computational claim is that Monte Carlo database
processing is *embarrassingly parallel*: MCDB instantiates database
instances independently per iteration, SimSQL runs map tasks and reduce
partitions independently, and every replication loop in Sections 2-4
(result caching, particle filtering, calibration sweeps) fans out over
independent random streams.  This subpackage is the library's one
fan-out surface: mapreduce, MCDB (naive worlds and bundles, the default
``backend=None`` included), the particle filter and ensemble/delta node
dispatch all call ``get_backend(spec).map(...)`` (or
``map_with_stats``) directly.

* :class:`~repro.parallel.backend.Backend` — the executor protocol: an
  ordered ``map`` over picklable task closures, retried per
  :mod:`repro.faults` under a named fault ``scope``;
* :func:`~repro.parallel.backend.get_backend` — factory resolving
  ``"serial"`` or ``"process"`` (or, for ``None``, the ``REPRO_BACKEND``
  environment variable, else ``"serial"``) to a shared backend instance;
* :func:`~repro.stats.rng.task_seed_sequences` (re-exported here) —
  deterministic per-task RNG stream spawning, so that any backend
  produces *byte-identical* results to ``serial`` (the EFECT
  bit-reproducibility requirement for parallel stochastic runs);
* :mod:`repro.parallel.keys` — the canonical CRC-32 key-to-partition
  assignment shared by the mapreduce shuffle and hash-partitioned
  tables.

Determinism contract
--------------------
``Backend.map`` always returns results in task-submission order, and
every stochastic task draws from its own pre-spawned seed sequence, so
the only thing a backend may change is wall-clock time — never a single
random draw, counter value, or output byte.
"""

from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy, RetryStats, TaskFailed
from repro.parallel.backend import (
    Backend,
    ProcessBackend,
    SerialBackend,
    available_backends,
    default_worker_count,
    get_backend,
    shutdown_backends,
)
from repro.stats.rng import task_seed_sequences

__all__ = [
    "Backend",
    "FaultPlan",
    "ProcessBackend",
    "RetryPolicy",
    "RetryStats",
    "SerialBackend",
    "TaskFailed",
    "available_backends",
    "default_worker_count",
    "get_backend",
    "shutdown_backends",
    "task_seed_sequences",
]
