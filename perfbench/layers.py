"""Calls into the program's layers, with spans, and the metrics from them.

Every layer is timed from the benchmark's side of its public surface:

* ``engine``: ``Database.sql`` split into ``parse_statement`` →
  ``Database.optimize_plan`` → ``Database.execute_plan(plan,
  optimized=False)``, plus the loads (``insert_many``, ``analyze``,
  ``partition_table``);
* ``mcdb``: ``run_naive`` and ``run_bundled`` around the per-world query
  and a ``MonteCarloDatabase`` subclass that spans ``instantiate_bundles``;
* ``exec``: a subclass of the default serial backend, passed as
  ``backend=``, spans every ``map``;
* ``store``: a ``RunStore`` subclass, passed as ``store=``, spans ``get``,
  ``put`` and ``contains``;
* ``scheduler`` and ``delta``: spans around ``run_ensemble`` and the
  ``repro.delta`` calls.

With :class:`~perfbench.common.NoSpans` the plain classes are used, so
the untraced run executes the program exactly at its defaults.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from perfbench.common import metric
from repro.engine import Database
from repro.engine.sqlparser import parse_statement
from repro.ensemble import RunStore, run_ensemble
from repro.mcdb import MonteCarloDatabase
from repro.parallel import SerialBackend


class Counters:
    """Exact counts gathered beside the spans of one run."""

    def __init__(self) -> None:
        self.naive_worlds = 0  # worlds run by run_naive calls in spans
        self.task_seconds = 0.0  # NodeReport.seconds of executed nodes
        self.world_rows = [0, 0, 0]  # engine counters of naive worlds


# -- engine ------------------------------------------------------------------------

def sql(spans, db: Database, text: str, execution: Optional[str] = None) -> list:
    """``Database.sql`` for one SELECT, split into its three public calls."""
    with spans.span("engine.parse"):
        kind, plan = parse_statement(text)
    if kind != "select":
        raise ValueError(f"expected a SELECT, got {kind}")
    with spans.span("engine.optimize"):
        plan = db.optimize_plan(plan)
    with spans.span("engine.execute"):
        return db.execute_plan(plan, optimized=False, execution=execution)


# -- mcdb --------------------------------------------------------------------------

class TimedMonteCarloDatabase(MonteCarloDatabase):
    """Spans ``instantiate_bundles`` (called inside ``run_bundled``)."""

    def __init__(self, db: Database, seed: int, spans) -> None:
        super().__init__(db, seed=seed)
        self.spans = spans

    def instantiate_bundles(self, n_mc, backend=None, retry=None):
        with self.spans.span("mcdb.instantiate_bundles"):
            return super().instantiate_bundles(n_mc, backend=backend, retry=retry)


def monte_carlo_database(db: Database, seed: int, spans) -> MonteCarloDatabase:
    if spans.enabled:
        return TimedMonteCarloDatabase(db, seed, spans)
    return MonteCarloDatabase(db, seed=seed)


class WorldQuery:
    """A scalar SQL query run once per world by ``run_naive``."""

    def __init__(self, spans, counters: Counters, text: str, execution: Optional[str] = None):
        self.spans = spans
        self.counters = counters
        self.text = text
        self.execution = execution

    def __call__(self, instance: Database) -> float:
        rows = sql(self.spans, instance, self.text, self.execution)
        m = instance.metrics
        counts = self.counters.world_rows
        counts[0] += m.rows_scanned
        counts[1] += m.join_pairs_examined
        counts[2] += m.rows_output
        value = next(iter(rows[0].values()))
        if value is None:
            raise ValueError(f"{self.text!r} returned NULL")
        return float(value)


def run_naive(spans, counters: Counters, mcdb: MonteCarloDatabase, query: WorldQuery, n_mc: int):
    with spans.span("mcdb.run_naive"):
        samples = mcdb.run_naive(query, n_mc).samples
    counters.naive_worlds += n_mc
    return samples


# -- exec, store, scheduler ----------------------------------------------------------

class TimedRunStore(RunStore):
    """A :class:`RunStore` whose public calls record spans."""

    def __init__(self, root, spans) -> None:
        self.spans = spans
        super().__init__(root)

    def get(self, key):
        with self.spans.span("store.get"):
            return super().get(key)

    def put(self, key, result, scenario="", params=None, seed=0):
        with self.spans.span("store.put"):
            return super().put(key, result, scenario=scenario, params=params, seed=seed)

    def contains(self, key):
        with self.spans.span("store.contains"):
            return super().contains(key)


class TimedSerialBackend(SerialBackend):
    """The default serial backend with a span around every ``map``."""

    def __init__(self, spans) -> None:
        super().__init__()
        self.spans = spans
        self.tasks = 0

    def map(self, fn, items, chunksize=None, **kwargs):
        items = list(items)
        self.tasks += len(items)
        with self.spans.span("exec.map"):
            return super().map(fn, items, chunksize, **kwargs)


def open_store(root: str, spans) -> RunStore:
    return TimedRunStore(root, spans) if spans.enabled else RunStore(root)


def backend_for(spans) -> Optional[SerialBackend]:
    """The timing backend when traced; ``None`` (the default) otherwise."""
    return TimedSerialBackend(spans) if spans.enabled else None


def timed_run_ensemble(spans, counters: Counters, ensemble, store, backend):
    with spans.span("scheduler.run_ensemble"):
        outcome = run_ensemble(ensemble, store=store, backend=backend)
    counters.task_seconds += node_seconds(outcome)
    return outcome


def node_seconds(outcome) -> float:
    return sum(r.seconds for r in outcome.reports.values() if r.status == "run")


# -- metrics from spans ------------------------------------------------------------

def span_metrics(spans, counters: Counters, backend) -> Dict[str, Dict[str, Any]]:
    """Every span-derived per-layer metric; layers a run never called read 0."""
    totals = spans.layer_totals()

    def entry(name: str) -> Dict[str, float]:
        return totals.get(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})

    def mean_ms(name: str) -> Tuple[float, int]:
        e = entry(name)
        calls = int(e["calls"])
        return (e["self_s"] * 1e3 / calls if calls else 0.0), calls

    out: Dict[str, Dict[str, Any]] = {}
    for name, span in (
        ("engine.parse_ms", "engine.parse"),
        ("engine.optimize_ms", "engine.optimize"),
        ("engine.execute_ms", "engine.execute"),
        ("mcdb.bundle_ms", "mcdb.instantiate_bundles"),
        ("store.put_ms", "store.put"),
        ("store.get_ms", "store.get"),
        ("store.contains_ms", "store.contains"),
        ("scheduler.self_ms", "scheduler.run_ensemble"),
        ("delta.plan_ms", "delta.plan"),
        ("delta.diff_ms", "delta.diff"),
        ("delta.execute_ms", "delta.execute"),
    ):
        value, calls = mean_ms(span)
        out[name] = metric(value, "ms", calls)
    worlds = counters.naive_worlds
    naive_self = entry("mcdb.run_naive")["self_s"]
    out["mcdb.world_ms"] = metric(naive_self * 1e3 / worlds if worlds else 0.0, "ms", worlds)
    out["store.puts"] = metric(entry("store.put")["calls"], "count", 1)
    out["store.gets"] = metric(entry("store.get")["calls"], "count", 1)
    out["store.contains_calls"] = metric(entry("store.contains")["calls"], "count", 1)
    tasks = backend.tasks if backend is not None else 0
    dispatch_s = entry("exec.map")["total_s"] - counters.task_seconds
    out["exec.dispatch_ms"] = metric(dispatch_s * 1e3 / tasks if tasks else 0.0, "ms", tasks)
    out["exec.tasks"] = metric(tasks, "count", 1)
    out["delta.loads"] = metric(spans.child_count("store.get", "delta.execute"), "count", 1)
    coverage = spans.op_coverage()
    if coverage:
        out["bench.span_coverage_min"] = metric(min(coverage), "ratio", len(coverage))
    return out
