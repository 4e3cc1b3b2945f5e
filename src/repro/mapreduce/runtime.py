"""An in-process MapReduce runtime with faithful phase semantics.

The runtime executes jobs split-by-split and partition-by-partition exactly
as a real cluster would — map tasks see only their split, combiners run per
map task, the shuffle hashes keys to reduce partitions, reducers see values
grouped by key — while counting every record that would cross the network.
This is the substrate on which SimSQL query execution
(:mod:`repro.simsql.mapreduce_exec`), Splash time alignment
(:mod:`repro.harmonize.time_alignment`) and DSGD
(:mod:`repro.harmonize.dsgd`) run.

Map tasks and reduce partitions are independent by construction, so the
cluster fans them out through a :mod:`repro.parallel` backend.  Each task
accumulates its own :class:`JobCounters`; the driver merges them in task
order, so counters (and outputs) are identical whichever backend runs the
job.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.faults.retry import RetryPolicy, TaskFailed
from repro.mapreduce.checkpoint import ChainCheckpoint
from repro.mapreduce.counters import (
    COUNTER_FIELDS,
    RECOVERY_FIELDS,
    JobCounters,
)
from repro.mapreduce.job import KeyValue, MapReduceJob
from repro.obs import get_observer
from repro.parallel.backend import Backend, get_backend
from repro.parallel.keys import partition_index as _partition_index


def _run_map_task(
    job: MapReduceJob, split: List[KeyValue]
) -> Tuple[List[KeyValue], JobCounters]:
    """One map task: apply the mapper (and local combiner) to one split.

    Module-level (not a method) so the closure pickles for the process
    backend; returns the task's own counters for deterministic merging.
    """
    counters = JobCounters()
    out: List[KeyValue] = []
    for key, value in split:
        for pair in job.mapper(key, value):
            counters.records_mapped += 1
            out.append(pair)
    if job.combiner is None:
        return out, counters
    # Combiner runs locally per map task, on that task's output only.
    grouped: Dict[Any, List[Any]] = {}
    order: List[Any] = []
    for key, value in out:
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(value)
    combined: List[KeyValue] = []
    for key in order:
        combined.extend(job.combiner(key, grouped[key]))
    return combined, counters


def _run_reduce_task(
    job: MapReduceJob, partition: List[Tuple[Any, List[Any]]]
) -> Tuple[List[KeyValue], JobCounters]:
    """One reduce task: apply the reducer to one shuffled partition."""
    counters = JobCounters()
    out: List[KeyValue] = []
    for key, values in partition:
        counters.records_reduced += len(values)
        out.extend(job.reducer(key, values))
    return out, counters


class Cluster:
    """A simulated MapReduce cluster.

    Parameters
    ----------
    num_workers:
        Number of map slots; inputs are split round-robin across workers.
    backend:
        Execution backend for map tasks and reduce partitions — a
        :class:`~repro.parallel.backend.Backend`, a backend name, or
        ``None`` to resolve from the ``REPRO_BACKEND`` environment
        variable (default ``serial``).  Outputs and counters are
        identical for every backend.
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` governing how
        failed map/reduce tasks are re-executed (``None`` uses the
        default policy whenever a fault plan is active, and runs the
        zero-overhead path otherwise).  A retried task re-runs on its
        original split/partition, so recovered jobs produce the same
        output and record counters as failure-free ones;
        ``counters.tasks_retried`` records that recovery happened, and a
        task that exhausts its attempts raises
        :class:`~repro.faults.retry.TaskFailed` after incrementing
        ``counters.tasks_failed``.

    Examples
    --------
    >>> from repro.mapreduce.job import MapReduceJob, sum_reducer
    >>> def mapper(_, word):
    ...     yield word, 1
    >>> job = MapReduceJob("wc", mapper, sum_reducer)
    >>> cluster = Cluster(num_workers=2)
    >>> sorted(cluster.run(job, [(None, "a"), (None, "b"), (None, "a")]))
    [('a', 2), ('b', 1)]
    """

    def __init__(
        self,
        num_workers: int = 4,
        backend: Union[str, Backend, None] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if num_workers < 1:
            raise SimulationError("cluster needs at least one worker")
        self.num_workers = num_workers
        self.backend = get_backend(backend)
        self.retry = retry
        self.history: List[Tuple[str, JobCounters]] = []

    # -- public API ---------------------------------------------------------
    def run(
        self,
        job: MapReduceJob,
        inputs: Iterable[KeyValue],
        counters: Optional[JobCounters] = None,
        num_reducers: Optional[int] = None,
    ) -> List[KeyValue]:
        """Execute one job over ``inputs`` and return the reduce output.

        ``num_reducers`` overrides the job's configured reducer count for
        this run only, without mutating the (frozen) job.
        """
        counters = counters if counters is not None else JobCounters()
        if num_reducers is None:
            num_reducers = job.num_reducers
        if num_reducers < 1:
            raise SimulationError("num_reducers must be >= 1")
        observer = get_observer()
        # Callers may hand in pre-loaded counters; only this job's deltas
        # are re-emitted into the metrics registry afterwards.
        baseline = JobCounters().merge(counters)
        try:
            with observer.span("mapreduce.job", job=job.name):
                with observer.span("mapreduce.split"):
                    splits = self._split(list(inputs), counters)
                map_outputs: List[List[KeyValue]] = []
                with observer.span("mapreduce.map", tasks=len(splits)):
                    map_results, map_stats = self.backend.map_with_stats(
                        partial(_run_map_task, job),
                        splits,
                        scope="mapreduce.map",
                        retry=self.retry,
                    )
                    counters.tasks_retried += map_stats.tasks_retried
                    for task_output, task_counters in map_results:
                        map_outputs.append(task_output)
                        counters.absorb(task_counters)
                with observer.span("mapreduce.shuffle"):
                    partitions = self._shuffle(
                        job, map_outputs, counters, num_reducers
                    )
                output: List[KeyValue] = []
                with observer.span(
                    "mapreduce.reduce", partitions=len(partitions)
                ):
                    red_results, red_stats = self.backend.map_with_stats(
                        partial(_run_reduce_task, job),
                        partitions,
                        scope="mapreduce.reduce",
                        retry=self.retry,
                    )
                    counters.tasks_retried += red_stats.tasks_retried
                    for task_output, task_counters in red_results:
                        output.extend(task_output)
                        counters.absorb(task_counters)
                counters.records_written += len(output)
        except TaskFailed:
            # The job is lost, but its partial accounting is not: record
            # the terminal failure so post-mortems see which job died and
            # how far it got, then let the error (with its attempt
            # history) propagate to the caller.
            counters.tasks_failed += 1
            self.history.append((job.name, counters))
            if observer.enabled:
                self._emit_metrics(observer, counters, baseline)
            raise
        self.history.append((job.name, counters))
        if observer.enabled:
            self._emit_metrics(observer, counters, baseline)
        return output

    @staticmethod
    def _emit_metrics(
        observer, counters: JobCounters, baseline: JobCounters
    ) -> None:
        """Re-emit one job's counter deltas into the metrics registry.

        This is what puts the paper's shuffle-volume comparison (DSGD vs
        direct solvers, Section 2.2) in the same place as every other
        claim: ``mapreduce.shuffle_bytes`` / ``mapreduce.records_shuffled``
        accumulate next to the engine, MCDB, and filtering metrics.
        """
        observer.counter("mapreduce.jobs").inc()
        for name in COUNTER_FIELDS:
            delta = getattr(counters, name) - getattr(baseline, name)
            if name in RECOVERY_FIELDS and not delta:
                # Recovery counters appear only when recovery happened,
                # so fault-free snapshots stay byte-identical to runs of
                # the library predating fault injection.
                continue
            observer.counter(f"mapreduce.{name}").add(delta)
        for name in sorted(counters.custom):
            delta = counters.custom[name] - baseline.custom.get(name, 0)
            if delta:
                observer.counter("mapreduce.custom", name=name).add(delta)

    def run_chain(
        self,
        jobs: Sequence[MapReduceJob],
        inputs: Iterable[KeyValue],
        checkpoint: Optional[ChainCheckpoint] = None,
    ) -> Tuple[List[KeyValue], JobCounters]:
        """Execute a pipeline of jobs, feeding each job's output to the next.

        Returns the final output along with merged counters over all
        stages.  With a :class:`~repro.mapreduce.checkpoint.ChainCheckpoint`,
        every completed link's output and running counters are recorded
        (and persisted, for file-backed checkpoints), and a re-run after
        a crash resumes from the first incomplete link — completed links
        are never re-executed, and the resumed chain's final output and
        counters are byte-identical to an uninterrupted run.
        """
        jobs = list(jobs)
        total = JobCounters()
        current: List[KeyValue] = list(inputs)
        first_link = 0
        if checkpoint is not None:
            resumed = checkpoint.bind([job.name for job in jobs])
            if resumed is not None:
                first_link = resumed.link + 1
                current = list(resumed.output)
                total = JobCounters().merge(resumed.counters)
        for link in range(first_link, len(jobs)):
            stage_counters = JobCounters()
            current = self.run(jobs[link], current, stage_counters)
            total = total.merge(stage_counters)
            if checkpoint is not None:
                checkpoint.record(link, current, total)
        return current, total

    def last_counters(self) -> JobCounters:
        """Counters of the most recently executed job."""
        if not self.history:
            raise SimulationError("no job has been executed yet")
        return self.history[-1][1]

    # -- phases ------------------------------------------------------------
    def _split(
        self, inputs: List[KeyValue], counters: JobCounters
    ) -> List[List[KeyValue]]:
        counters.records_read += len(inputs)
        splits: List[List[KeyValue]] = [[] for _ in range(self.num_workers)]
        for i, record in enumerate(inputs):
            splits[i % self.num_workers].append(record)
        return [s for s in splits if s]

    def _shuffle(
        self,
        job: MapReduceJob,
        map_outputs: List[List[KeyValue]],
        counters: JobCounters,
        num_reducers: int,
    ) -> List[List[Tuple[Any, List[Any]]]]:
        partitions: List[Dict[Any, List[Any]]] = [
            {} for _ in range(num_reducers)
        ]
        # Keys repeat heavily in typical shuffles; memoize the partition
        # index per shuffle so each distinct key is hashed once.
        index_cache: Dict[Any, int] = {}
        for task_output in map_outputs:
            for key, value in task_output:
                counters.account_shuffle(key, value)
                index = index_cache.get(key)
                if index is None:
                    index = _partition_index(key, num_reducers)
                    index_cache[key] = index
                partitions[index].setdefault(key, []).append(value)
        # Keys are sorted within each partition, mirroring Hadoop's sort.
        return [
            sorted(p.items(), key=lambda kv: repr(kv[0]))
            for p in partitions
        ]
