"""Executor backends: serial and process pool.

Both backends implement one operation — an *ordered* ``map`` — because
every parallel workload in the library (map tasks, reduce partitions,
Monte Carlo replications, particle shards, candidate parameter vectors)
is a fan-out of independent tasks whose results must be merged in a
fixed order for determinism.

The process backend submits tasks in contiguous chunks (amortizing
pickle + IPC overhead over many small tasks) and requires picklable task
closures; when a task function or its payload cannot be pickled — e.g. a
lambda mapper defined inside a test, or a payload deep in the task list
that the cheap up-front probe could not see — it degrades gracefully to
in-process execution rather than failing, so a globally configured
``REPRO_BACKEND=process`` never breaks a workload.

Fault tolerance
---------------
Every backend executes tasks through the same per-task recovery
primitive (:func:`repro.faults.retry.run_with_retry`): an installed
:class:`~repro.faults.plan.FaultPlan` injects deterministic failures,
and a :class:`~repro.faults.retry.RetryPolicy` re-executes failed
attempts with capped exponential backoff.  Because a retry re-runs the
task's *original* payload (including its pre-spawned ``SeedSequence``),
a recovered run is byte-identical to a failure-free one; the
:class:`~repro.faults.retry.RetryStats` merged at the driver are a pure
function of the plan, so ``faults.*`` metrics match across backends.
When neither a plan nor a policy is active, the legacy zero-overhead
path runs and no ``faults.*`` metric is ever created.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan, get_fault_plan
from repro.faults.retry import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    RetryStats,
    TaskFailed,
    run_with_retry,
)
from repro.obs import get_observer, suppressed

#: Environment variable naming the default backend for the whole library.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def default_worker_count() -> int:
    """Worker count for the process backend's pool.

    The scheduler affinity (falling back to ``os.cpu_count()``), so
    ``taskset`` or a cgroup cpuset caps the pool; floored at 2 so the
    process backend exercises real concurrency even on one-core hosts.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux platforms
        cores = os.cpu_count() or 1
    return max(cores, 2)


def _chunk(items: Sequence[Any], num_chunks: int) -> List[Sequence[Any]]:
    """Split ``items`` into at most ``num_chunks`` contiguous chunks."""
    n = len(items)
    num_chunks = max(min(num_chunks, n), 1)
    base, extra = divmod(n, num_chunks)
    chunks = []
    start = 0
    for i in range(num_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _resolve_recovery(
    retry: Optional[RetryPolicy], faults: Optional[FaultPlan]
) -> Tuple[Optional[RetryPolicy], Optional[FaultPlan]]:
    """Resolve the effective (policy, plan) for one ``map`` call.

    ``faults=None`` reads the process-wide plan (``REPRO_FAULTS`` or
    :func:`repro.faults.set_fault_plan`).  With a plan but no explicit
    policy, :data:`DEFAULT_RETRY_POLICY` engages so injected faults are
    survivable by default; with neither, ``(None, None)`` selects the
    legacy zero-overhead execution path.
    """
    plan = faults if faults is not None else get_fault_plan()
    policy = retry
    if policy is None and plan is not None:
        policy = DEFAULT_RETRY_POLICY
    return policy, plan


def _run_tasks(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    start_index: int,
    scope: str,
    policy: Optional[RetryPolicy],
    plan: Optional[FaultPlan],
    on_error: str,
    stats: RetryStats,
) -> List[Any]:
    """Ordered task execution shared by every backend and chunk worker.

    ``start_index`` offsets task indices so fault-plan decisions key on
    the task's *global* position in the fan-out, never its chunk-local
    one — chunk layout differs per backend, injection must not.  With
    ``on_error="collect"``, a terminally failed task contributes its
    :class:`TaskFailed` object in place of a result (shard-level
    degradation in the particle filter); the default re-raises.
    """
    if policy is None:
        return [fn(item) for item in items]
    results: List[Any] = []
    for offset, item in enumerate(items):
        try:
            results.append(
                run_with_retry(
                    fn,
                    item,
                    scope=scope,
                    index=start_index + offset,
                    policy=policy,
                    plan=plan,
                    stats=stats,
                )
            )
        except TaskFailed as failure:
            if on_error != "collect":
                raise
            results.append(failure)
    return results


def _run_chunk(
    fn: Callable[[Any], Any],
    chunk: Sequence[Any],
    start_index: int = 0,
    scope: str = "parallel",
    policy: Optional[RetryPolicy] = None,
    plan: Optional[FaultPlan] = None,
    on_error: str = "raise",
) -> Tuple[List[Any], float, RetryStats, Optional[TaskFailed]]:
    """Execute one contiguous chunk of tasks (runs inside a worker).

    Returns the results along with the chunk's own wall-clock seconds so
    the driver can account worker run time vs queue time, plus the
    chunk's :class:`RetryStats` for deterministic driver-side merging.
    A terminal :class:`TaskFailed` is returned rather than raised, so
    the stats gathered up to the failure reach the driver with it.
    Task bodies execute under :func:`repro.obs.suppressed` —
    observability is recorded at the driver from returned values, never
    from inside a task, which keeps metrics identical on every backend.
    """
    stats = RetryStats()
    results: List[Any] = []
    failure: Optional[TaskFailed] = None
    start = time.perf_counter()
    try:
        with suppressed():
            results = _run_tasks(
                fn, chunk, start_index, scope, policy, plan, on_error, stats
            )
    except TaskFailed as exc:
        failure = exc
    return results, time.perf_counter() - start, stats, failure


def _emit_fault_stats(observer, stats: RetryStats) -> None:
    """Publish one map call's recovery accounting as ``faults.*`` metrics.

    Counters are created only when nonzero, so fault-free runs keep
    snapshots free of ``faults.*`` keys (byte-identical to pre-faults
    baselines); when created, the counts are pure functions of the
    installed plan, so they match across backends.  Planned backoff
    lands in a timer (the wall-clock section) next to the real sleep.
    """
    if stats.injected:
        observer.counter("faults.injected").add(stats.injected)
    if stats.retries:
        observer.counter("faults.retries").add(stats.retries)
    if stats.tasks_retried:
        observer.counter("faults.tasks_retried").add(stats.tasks_retried)
    if stats.tasks_failed:
        observer.counter("faults.tasks_failed").add(stats.tasks_failed)
        with observer.span("faults.failure", tasks_failed=stats.tasks_failed):
            pass
    if stats.backoff_seconds:
        observer.timer("faults.backoff_seconds").add(stats.backoff_seconds)


class Backend:
    """Protocol for execution backends.

    :meth:`map_with_stats` lists the items, counts the call, resolves
    recovery and short-circuits empty input; subclasses implement only
    :meth:`_run`.  The contract is strict
    ordering — ``backend.map(fn, items)[i] == fn(items[i])`` regardless
    of the actual execution schedule — plus per-task recovery: injected
    or real failures are retried per the resolved
    :class:`~repro.faults.retry.RetryPolicy`, and terminal failures
    raise :class:`~repro.faults.retry.TaskFailed`.
    """

    name: str = "abstract"

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunksize: Optional[int] = None,
        *,
        scope: str = "parallel",
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        on_error: str = "raise",
    ) -> List[Any]:
        """Apply ``fn`` to every item, returning results in input order."""
        return self.map_with_stats(
            fn,
            items,
            chunksize,
            scope=scope,
            retry=retry,
            faults=faults,
            on_error=on_error,
        )[0]

    def map_with_stats(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunksize: Optional[int] = None,
        *,
        scope: str = "parallel",
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        on_error: str = "raise",
    ) -> Tuple[List[Any], RetryStats]:
        """Ordered map returning ``(results, RetryStats)``.

        ``scope`` names the fan-out for fault-plan targeting (e.g.
        ``"mapreduce.map"`` or ``"pf.shard"``); ``retry`` overrides the
        recovery policy; ``faults`` overrides the process-wide plan;
        ``on_error="collect"`` substitutes :class:`TaskFailed` objects
        for terminally failed results instead of raising.  Every map
        emits the driver-side ``parallel.*`` metrics.
        """
        items = list(items)
        observer = get_observer()
        observer.counter("parallel.map_calls").inc()
        observer.counter("parallel.tasks").add(len(items))
        policy, plan = _resolve_recovery(retry, faults)
        if not items:
            return [], RetryStats()
        return self._run(
            fn, items, chunksize, scope, policy, plan, on_error, observer
        )

    def _run(
        self, fn, items, chunksize, scope, policy, plan, on_error, observer
    ) -> Tuple[List[Any], RetryStats]:
        """Run a non-empty map with resolved recovery (subclasses)."""
        raise NotImplementedError

    def _run_inline(
        self, fn, items, scope, policy, plan, on_error, observer, **attrs
    ) -> Tuple[List[Any], RetryStats]:
        """Run the whole map in-process, in order, under one span."""
        stats = RetryStats()
        try:
            with observer.span(
                "parallel.map", backend=self.name, tasks=len(items), **attrs
            ), suppressed():
                results = _run_tasks(
                    fn, items, 0, scope, policy, plan, on_error, stats
                )
        except TaskFailed:
            _emit_fault_stats(observer, stats)
            raise
        _emit_fault_stats(observer, stats)
        return results, stats

    def shutdown(self) -> None:
        """Release the worker pool (a no-op on the serial backend)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class SerialBackend(Backend):
    """In-process sequential execution — the determinism reference."""

    name = "serial"

    def _run(
        self, fn, items, chunksize, scope, policy, plan, on_error, observer
    ):
        return self._run_inline(
            fn, items, scope, policy, plan, on_error, observer
        )


class ProcessBackend(Backend):
    """Process-pool execution via :mod:`concurrent.futures`.

    The pool is created lazily on first use and reused across ``map``
    calls, so per-job overhead is one round of chunked submissions, not a
    pool start-up.  Task closures and their payloads cross a pipe, so
    they must pickle; unpicklable work falls back to in-process execution
    with a one-time warning instead of raising, keeping a globally
    configured process backend safe for every workload.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = (
            max_workers if max_workers is not None else default_worker_count()
        )
        if self.max_workers < 1:
            raise SimulationError("max_workers must be >= 1")
        self._pool: Optional[ProcessPoolExecutor] = None
        self._warned_unpicklable = False

    def _submittable(self, fn, items) -> bool:
        try:
            # Cheap pre-check: probe the function and one representative
            # payload.  This catches the common failure (an unpicklable
            # task closure) before any pool work; a payload deeper in
            # the list that does not pickle is caught at submission time
            # by :meth:`_pickling_failure` and falls back the same way.
            pickle.dumps((fn, items[0]))
            return True
        except Exception:
            self._warn_unpicklable()
            return False

    def _run(
        self, fn, items, chunksize, scope, policy, plan, on_error, observer
    ):
        if len(items) == 1 or not self._submittable(fn, items):
            return self._run_inline(
                fn, items, scope, policy, plan, on_error, observer,
                inline=True,
            )
        if chunksize is None:
            # Several chunks per worker so stragglers rebalance.
            num_chunks = self.max_workers * 4
        else:
            if chunksize < 1:
                raise SimulationError("chunksize must be >= 1")
            num_chunks = -(-len(items) // chunksize)
        chunks = _chunk(items, num_chunks)
        starts: List[int] = []
        position = 0
        for chunk in chunks:
            starts.append(position)
            position += len(chunk)
        stats = RetryStats()
        futures: List[Any] = []
        waiting_on: Optional[int] = None
        try:
            with observer.span(
                "parallel.map", backend=self.name, tasks=len(items),
                chunks=len(chunks),
            ):
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.max_workers
                    )
                submitted = time.perf_counter()
                futures = [
                    self._pool.submit(
                        _run_chunk,
                        fn,
                        chunk,
                        start,
                        scope,
                        policy,
                        plan,
                        on_error,
                    )
                    for chunk, start in zip(chunks, starts)
                ]
                run_timer = observer.timer("parallel.chunk.run_seconds")
                queue_timer = observer.timer("parallel.chunk.queue_seconds")
                results: List[Any] = []
                for position, future in enumerate(futures):
                    # Submission order == input order.
                    waiting_on = position
                    chunk_results, run_seconds, chunk_stats, failure = (
                        future.result()
                    )
                    # Queue time: turnaround since submission minus the
                    # worker's own run time (clamped; retrieval overlaps).
                    turnaround = time.perf_counter() - submitted
                    run_timer.add(run_seconds)
                    queue_timer.add(max(turnaround - run_seconds, 0.0))
                    stats.absorb(chunk_stats)
                    if failure is not None:
                        # Chunks before this one ran in full and this one
                        # stopped at its failure, so the stats cover the
                        # same tasks the serial backend's would.
                        raise failure
                    results.extend(chunk_results)
        except TaskFailed:
            _emit_fault_stats(observer, stats)
            raise
        except Exception as exc:
            failing = chunks[waiting_on] if waiting_on is not None else items
            pool_broken = isinstance(exc, BrokenExecutor)
            if not (pool_broken or self._pickling_failure(exc, fn, failing)):
                raise
            # Two recoverable infrastructure failures: a payload beyond
            # the probe's reach could not cross the pipe (submission-side
            # pickling error, not a task error), or the pool itself died
            # (worker killed, payload broke a worker mid-unpickle).
            # Either way, degrade to in-process execution — tasks are
            # pure, so results are identical, and retry stats are
            # recomputed from scratch for the same reason.
            for future in futures:
                future.cancel()
            if pool_broken:
                self.shutdown()  # drop the broken pool; next map rebuilds
                warnings.warn(
                    f"{self.name} backend pool broke mid-run "
                    f"({type(exc).__name__}); re-executing this map "
                    "in-process (results are identical, only the "
                    "parallel speedup is lost)",
                    RuntimeWarning,
                    stacklevel=4,
                )
            else:
                self._warn_unpicklable()
            return self._run_inline(
                fn, items, scope, policy, plan, on_error, observer,
                inline=True,
            )
        _emit_fault_stats(observer, stats)
        return results, stats

    def _warn_unpicklable(self) -> None:
        if not self._warned_unpicklable:
            self._warned_unpicklable = True
            warnings.warn(
                "process backend received an unpicklable task; "
                "executing in-process instead (results are identical, "
                "only the parallel speedup is lost)",
                RuntimeWarning,
                stacklevel=5,
            )

    def _pickling_failure(self, exc: BaseException, fn, chunk) -> bool:
        """Whether ``exc`` is a submission-side serialization failure.

        The pool's feeder machinery raises the pickling error
        (``PicklingError``, or ``TypeError``/``AttributeError`` from a
        ``__reduce__``) dressed up exactly like a worker-raised task
        error, so the exception alone cannot be classified.  Instead the
        failing chunk's payload is re-probed directly: if it does not
        pickle, the work never crossed the pipe and in-process fallback
        is sound; if it pickles fine, the task itself raised and the
        error must propagate.
        """
        if not isinstance(
            exc, (pickle.PicklingError, TypeError, AttributeError)
        ):
            return False
        try:
            pickle.dumps((fn, list(chunk)))
        except Exception:
            return True
        return False

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


_REGISTRY: Dict[str, Callable[[], Backend]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}
_INSTANCES: Dict[str, Backend] = {}


def available_backends() -> Tuple[str, ...]:
    """Names accepted by :func:`get_backend`."""
    return tuple(sorted(_REGISTRY))


def get_backend(spec: Union[str, Backend, None] = None) -> Backend:
    """Resolve ``spec`` to a backend instance.

    ``None`` reads the ``REPRO_BACKEND`` environment variable (defaulting
    to ``"serial"``); a string is looked up in the registry; a
    :class:`Backend` instance passes through unchanged.  String lookups
    return a shared instance per name so the process pool is reused.
    """
    if isinstance(spec, Backend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR, "serial").strip() or "serial"
    name = spec.lower()
    if name not in _REGISTRY:
        raise SimulationError(
            f"unknown backend {spec!r}; choose from {available_backends()}"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _REGISTRY[name]()
    return _INSTANCES[name]


def shutdown_backends() -> None:
    """Shut down every shared backend pool (idempotent)."""
    for backend in _INSTANCES.values():
        backend.shutdown()


atexit.register(shutdown_backends)
