"""Monte Carlo query execution: naive replications vs tuple bundles.

:class:`MonteCarloDatabase` wraps a deterministic
:class:`~repro.engine.catalog.Database` plus a set of
:class:`~repro.mcdb.random_table.RandomTableSpec` objects.  Running a query
yields a :class:`QueryDistribution` — samples from the query-result
distribution, with estimator helpers.

Two execution strategies are provided:

* :meth:`MonteCarloDatabase.run_naive` — instantiate every random table and
  execute the query plan once *per Monte Carlo iteration* (the straw-man
  MCDB is built to beat);
* :meth:`MonteCarloDatabase.run_bundled` — instantiate tuple bundles and
  execute a bundle-aware plan exactly once.

Both strategies sample the same distributions; the benchmark
``benchmarks/bench_mcdb_tuple_bundles.py`` compares their cost.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.engine.catalog import Database
from repro.errors import QueryError, SimulationError
from repro.faults.retry import RetryPolicy
from repro.mcdb.random_table import RandomTableSpec
from repro.mcdb.tuple_bundle import BundledTable
from repro.obs import get_observer
from repro.parallel.backend import Backend, get_backend
from repro.stats.estimators import (
    ConfidenceInterval,
    mean_confidence_interval,
    quantile_confidence_interval,
    sample_mean,
    sample_quantile,
    sample_variance,
)


@dataclass(frozen=True)
class QueryDistribution:
    """Samples of a query-result distribution plus estimator helpers."""

    samples: np.ndarray

    @property
    def n(self) -> int:
        """Number of Monte Carlo samples."""
        return int(self.samples.shape[0])

    def expectation(self) -> float:
        """Estimated expected value of the query result."""
        return sample_mean(self.samples)

    def variance(self) -> float:
        """Estimated variance of the query result."""
        return sample_variance(self.samples)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile of the query result."""
        return sample_quantile(self.samples, q)

    def expectation_interval(self, level: float = 0.95) -> ConfidenceInterval:
        """Confidence interval for the expected value."""
        return mean_confidence_interval(self.samples, level)

    def quantile_interval(
        self, q: float, level: float = 0.95
    ) -> ConfidenceInterval:
        """Order-statistic confidence interval for the ``q``-quantile."""
        return quantile_confidence_interval(self.samples, q, level)

    def probability_above(self, threshold: float) -> float:
        """Estimated ``P(result > threshold)``."""
        return float(np.mean(self.samples > threshold))

    def probability_below(self, threshold: float) -> float:
        """Estimated ``P(result < threshold)``."""
        return float(np.mean(self.samples < threshold))

    def histogram(self, bins: int = 20) -> "tuple[np.ndarray, np.ndarray]":
        """Histogram (counts, bin_edges) of the samples."""
        return np.histogram(self.samples, bins=bins)


class MonteCarloDatabase:
    """A database with stochastic tables (MCDB).

    Examples
    --------
    See ``examples/quickstart.py`` for an end-to-end demonstration with the
    paper's SBP_DATA blood-pressure model.
    """

    def __init__(self, db: Database, seed: int = 0) -> None:
        self.db = db
        self.seed = seed
        self._specs: Dict[str, RandomTableSpec] = {}

    def register_random_table(self, spec: RandomTableSpec) -> None:
        """Register a stochastic table specification."""
        if spec.name in self._specs:
            raise SimulationError(
                f"random table {spec.name!r} already registered"
            )
        if spec.name in self.db:
            raise SimulationError(
                f"{spec.name!r} already exists as a deterministic table"
            )
        self._specs[spec.name] = spec

    @property
    def random_table_names(self) -> List[str]:
        """Names of all registered stochastic tables."""
        return sorted(self._specs)

    def _rng_for(self, iteration: int) -> np.random.Generator:
        # Iteration ``i`` draws from ``spawn_key=(i,)``: independent of
        # every other iteration, so worlds fan out on any backend.
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(iteration,))
        )

    # -- naive execution ----------------------------------------------------
    def instantiate(self, rng: np.random.Generator) -> Database:
        """Generate one database instance (all random tables realized).

        Returns a database containing the deterministic tables (shared)
        plus a fresh realization of every stochastic table.
        """
        instance = Database()
        for name in self.db.table_names():
            instance.register(self.db.table(name))
        for spec in self._specs.values():
            instance.register(spec.instantiate(self.db, rng))
        return instance

    def run_naive(
        self,
        query: Callable[[Database], float],
        n_mc: int,
        backend: Union[str, Backend, None] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> QueryDistribution:
        """Execute ``query`` on ``n_mc`` fresh database instances.

        ``query`` receives an instantiated database and returns a scalar;
        the collected values are samples of the query-result distribution.

        Each iteration already draws from its own ``(seed, i)`` stream, so
        iterations are independent tasks: ``backend`` fans them out across
        a :mod:`repro.parallel` backend with samples byte-identical to the
        serial loop (``backend=None``).  Failed iterations are retried
        per ``retry`` under the fault scope ``"mcdb.naive"``; a retried
        iteration re-runs on the same stream, so recovered samples are
        byte-identical too.
        """
        if n_mc < 1:
            raise SimulationError("n_mc must be >= 1")
        observer = get_observer()
        observer.counter("mcdb.naive_runs").inc()
        observer.counter("mcdb.naive_iterations").add(n_mc)
        with observer.span("mcdb.run_naive", n_mc=n_mc):
            if backend is not None:
                samples = np.asarray(
                    get_backend(backend).map(
                        partial(_naive_iteration, self, query),
                        range(n_mc),
                        scope="mcdb.naive",
                        retry=retry,
                    )
                )
            else:
                samples = np.empty(n_mc)
                for i in range(n_mc):
                    instance = self.instantiate(self._rng_for(i))
                    samples[i] = float(query(instance))
        return QueryDistribution(samples)

    # -- bundled execution ---------------------------------------------------
    def _bundle_rng_for(self, name: str) -> np.random.Generator:
        # Each random table draws from its own dedicated stream, keyed
        # by CRC-32 of the table name (stable across processes, unlike
        # builtin ``hash``).
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed,
                spawn_key=(zlib.crc32(name.encode("utf-8")),),
            )
        )

    def instantiate_bundles(
        self,
        n_mc: int,
        backend: Union[str, Backend, None] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Dict[str, BundledTable]:
        """Generate tuple bundles (all MC iterations at once) per table.

        Tables use dedicated streams, so multi-table schemas instantiate
        their bundles concurrently through ``backend`` with identical
        results to the serial path.  Failed per-table instantiations are
        retried per ``retry`` under the fault scope ``"mcdb.bundle"``.
        """
        if n_mc < 1:
            raise SimulationError("n_mc must be >= 1")
        names = sorted(self._specs)
        observer = get_observer()
        with observer.span(
            "mcdb.instantiate_bundles", tables=len(names), n_mc=n_mc
        ):
            if backend is not None:
                timed_tables = get_backend(backend).map(
                    partial(_bundle_for_table, self, n_mc),
                    names,
                    scope="mcdb.bundle",
                    retry=retry,
                )
            else:
                timed_tables = [
                    _bundle_for_table(self, n_mc, name) for name in names
                ]
        # Per-bundle instantiation cost (Section 2.1's key trade-off):
        # each bundle reports its own build time and size; values are
        # recorded at the driver so they match on every backend.
        observer.counter("mcdb.bundles_instantiated").add(len(names))
        for name, (table, seconds) in zip(names, timed_tables):
            observer.gauge("mcdb.bundle.rows", table=name).set(len(table))
            observer.timer("mcdb.bundle.seconds", table=name).add(seconds)
        return {
            name: table for name, (table, _) in zip(names, timed_tables)
        }

    def run_bundled(
        self,
        query: Callable[[Dict[str, Any], Database], np.ndarray],
        n_mc: int,
        backend: Union[str, Backend, None] = None,
        retry: Optional[RetryPolicy] = None,
        columnar: Optional[bool] = None,
    ) -> QueryDistribution:
        """Execute a bundle-aware ``query`` exactly once.

        ``query`` receives the bundles plus the deterministic database and
        returns an array of length ``n_mc`` (one query-result sample per
        iteration).  ``backend`` parallelizes bundle instantiation across
        random tables, with per-table retry governed by ``retry``.

        By default (``columnar=None`` or ``True``) the query receives
        :class:`~repro.mcdb.columnar_bundle.ColumnarBundleTable` objects
        (one matrix per column over all iterations); a bundle whose
        tuples carry different columns stays a row bundle.
        ``columnar=False`` hands it the row bundles
        (:class:`~repro.mcdb.tuple_bundle.BundledTable`), the reference:
        samples are byte-identical, and elementwise query callables work
        unchanged on either.
        """
        observer = get_observer()
        observer.counter("mcdb.bundled_runs").inc()
        observer.counter("mcdb.bundled_samples").add(n_mc)
        with observer.span("mcdb.run_bundled", n_mc=n_mc):
            bundles = self.instantiate_bundles(
                n_mc, backend=backend, retry=retry
            )
            if columnar is None or columnar:
                converted: Dict[str, Any] = {}
                for name, bundle in bundles.items():
                    try:
                        converted[name] = bundle.to_columnar()
                    except QueryError:
                        converted[name] = bundle
                bundles = converted
            with observer.span("mcdb.bundled_query"):
                samples = np.asarray(query(bundles, self.db), dtype=float)
        if samples.shape != (n_mc,):
            raise SimulationError(
                f"bundled query returned shape {samples.shape}, "
                f"expected ({n_mc},)"
            )
        return QueryDistribution(samples)


def _naive_iteration(
    mcdb: MonteCarloDatabase, query: Callable[[Database], float], i: int
) -> float:
    """Monte Carlo iteration ``i`` of the naive path (picklable task).

    Draws from the same ``(seed, i)`` stream as the serial loop, so the
    sample is identical wherever the task runs.
    """
    return float(query(mcdb.instantiate(mcdb._rng_for(i))))


def _bundle_for_table(
    mcdb: MonteCarloDatabase, n_mc: int, name: str
) -> Tuple[BundledTable, float]:
    """Instantiate one random table's bundle on its dedicated stream.

    Returns the bundle plus its own build seconds — measured where the
    work ran (possibly a process-pool worker) and accounted at the
    driver, the same driver-merge discipline as :class:`JobCounters`.
    """
    start = time.perf_counter()
    table = mcdb._specs[name].instantiate_bundle(
        mcdb.db, mcdb._bundle_rng_for(name), n_mc
    )
    return table, time.perf_counter() - start
