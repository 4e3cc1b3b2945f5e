"""Deterministic topological scheduler for ensemble DAGs.

Executes an :class:`~repro.ensemble.spec.Ensemble` wave by wave: every
node whose dependencies are satisfied is *resolved* (served from the
:class:`~repro.ensemble.store.RunStore` on a content-address hit,
dispatched through a :mod:`repro.parallel` backend on a miss), and the
next wave sees its upstream results.  The schedule — wave membership,
intra-wave order, task indices — is a pure function of the ensemble, so
every backend and worker count resolves the same nodes the same way.

Failure semantics follow :mod:`repro.faults`: each node executes under
:func:`~repro.faults.retry.run_with_retry` with the scope
``"ensemble.node"`` and its *global topological index* (so a surgical
plan like ``REPRO_FAULTS=at=ensemble.node:0`` kills exactly one node on
any backend).  A node that exhausts its attempts does not crash the
ensemble: it is reported failed with the full attempt history, and its
descendants are reported skipped with a terminal reason.

Observability lands under ``ensemble.*``: nodes run / cached / retried /
skipped / failed counters (created only when nonzero, so snapshots stay
byte-identical across backends), store hit/miss counters from the store
itself, per-node timers, and an ``ensemble.run`` span.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.ensemble.spec import (
    Ensemble,
    EnsembleNode,
    get_scenario,
    scenario_qualname,
)
from repro.ensemble.store import (
    RunStore,
    normalize_result,
    result_fingerprint,
    run_key,
)
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan, get_fault_plan
from repro.faults.retry import (
    DEFAULT_RETRY_POLICY,
    NO_RETRY,
    RetryPolicy,
    RetryStats,
    TaskFailed,
    run_with_retry,
)
from repro.obs import get_observer
from repro.parallel.backend import Backend, get_backend

#: Fault-plan scope under which every ensemble node executes; the task
#: index is the node's global position in topological order.
NODE_SCOPE = "ensemble.node"


# -- execution context (worker side) ---------------------------------------

class NodeContext(NamedTuple):
    """Ambient facts a scenario callable may consult while running."""

    #: The node's content address (stable scratch naming).
    key: str
    #: Store-provided directory for chain checkpoints, or ``None`` when
    #: running without a store.
    checkpoint_dir: Optional[str]


_context = threading.local()


def current_node_context() -> Optional[NodeContext]:
    """The context of the scenario run executing on this thread.

    Scenario callables use this for crash-resumable scratch state — the
    epidemic chain prefix persists its
    :class:`~repro.mapreduce.checkpoint.ChainCheckpoint` under
    ``checkpoint_dir`` keyed by ``key``.  Returns ``None`` outside a
    scheduled run (scenarios must degrade to in-memory state).
    """
    return getattr(_context, "value", None)


class NodePayload(NamedTuple):
    """Everything a worker needs to execute one node (picklable).

    Shared execution currency: both :func:`run_ensemble` and the
    :mod:`repro.delta` cone executor build these, so a node recomputed
    by a delta plan runs through byte-for-byte the same worker path —
    same fault scope, same retry semantics, same context — as a node
    scheduled by a full run.

    The scenario callable rides along (resolved at the driver) rather
    than being re-looked-up worker-side: a process-pool worker has not
    necessarily imported the module that registered the scenario, but it
    can unpickle a module-level callable directly — and an unpicklable
    one degrades to the backend's in-process fallback.
    """

    name: str
    scenario: str
    fn: Any
    params: Dict[str, Any]
    seed: int
    upstream: Dict[str, Any]
    index: int
    policy: RetryPolicy
    plan: Optional[FaultPlan]
    checkpoint_dir: Optional[str]
    key: str


def _invoke_scenario(payload: NodePayload) -> Any:
    """One attempt of one node (runs inside ``run_with_retry``)."""
    _context.value = NodeContext(payload.key, payload.checkpoint_dir)
    try:
        return payload.fn(payload.params, payload.seed, payload.upstream)
    finally:
        _context.value = None


class TaskOutcome(NamedTuple):
    """Terminal record of one node run (never an exception)."""

    status: str  # "ok" | "failed"
    value: Any  # result, or the terminal TaskFailed
    stats: RetryStats
    seconds: float


def run_node(payload: NodePayload) -> TaskOutcome:
    """Run one node to a terminal state inside the worker; never raises.

    Module-level so it pickles for the process backend.  Catching the
    terminal :class:`TaskFailed` here — instead of letting it propagate
    through the backend — is what turns a dead node into a report
    rather than a crashed ensemble.  The fault index is the node's
    *global topological index*, so ``REPRO_FAULTS=at=ensemble.node:<i>``
    targets the same node on every backend and wave packing.
    """
    stats = RetryStats()
    start = time.perf_counter()
    try:
        result = run_with_retry(
            _invoke_scenario,
            payload,
            scope=NODE_SCOPE,
            index=payload.index,
            policy=payload.policy,
            plan=payload.plan,
            stats=stats,
        )
    except TaskFailed as failure:
        return TaskOutcome(
            "failed", failure, stats, time.perf_counter() - start
        )
    return TaskOutcome("ok", result, stats, time.perf_counter() - start)


# -- reports ----------------------------------------------------------------

@dataclass(frozen=True)
class NodeReport:
    """Terminal record of one node's scheduling outcome."""

    name: str
    key: str
    status: str  # "run" | "cached" | "failed" | "skipped"
    seconds: float = 0.0
    attempts: int = 0
    retried: bool = False
    error: Optional[str] = None
    blocked_on: Optional[str] = None

    def render(self) -> str:
        """One human-readable line (CLI report rows)."""
        detail = ""
        if self.status == "failed" and self.error:
            detail = f"  ({self.error.splitlines()[0]})"
        elif self.status == "skipped" and self.blocked_on:
            detail = f"  (upstream {self.blocked_on} did not complete)"
        elif self.retried:
            detail = f"  (recovered after {self.attempts} attempts)"
        return (
            f"{self.status:<8} {self.seconds:8.3f}s  "
            f"{self.name}  [{self.key[:12]}]{detail}"
        )


@dataclass
class EnsembleResult:
    """Results plus per-node reports for one scheduled ensemble."""

    name: str
    results: Dict[str, Any] = field(default_factory=dict)
    reports: Dict[str, NodeReport] = field(default_factory=dict)
    store_stats: Optional[Dict[str, int]] = None

    def _count(self, status: str) -> int:
        return sum(1 for r in self.reports.values() if r.status == status)

    @property
    def nodes(self) -> int:
        return len(self.reports)

    @property
    def nodes_run(self) -> int:
        return self._count("run")

    @property
    def nodes_cached(self) -> int:
        return self._count("cached")

    @property
    def nodes_failed(self) -> int:
        return self._count("failed")

    @property
    def nodes_skipped(self) -> int:
        return self._count("skipped")

    @property
    def nodes_retried(self) -> int:
        return sum(1 for r in self.reports.values() if r.retried)

    @property
    def ok(self) -> bool:
        """Whether every node completed (run or cached)."""
        return self.nodes_failed == 0 and self.nodes_skipped == 0

    def fingerprints(self) -> Dict[str, str]:
        """Content fingerprint per completed node (byte-identity oracle)."""
        return {
            name: result_fingerprint(result)
            for name, result in sorted(self.results.items())
        }

    def raise_if_failed(self) -> "EnsembleResult":
        """Raise a summary error if any node failed/skipped; else self."""
        if not self.ok:
            broken = [
                f"{r.name}: {r.status}"
                + (f" ({r.error.splitlines()[0]})" if r.error else "")
                for r in self.reports.values()
                if r.status in ("failed", "skipped")
            ]
            raise SimulationError(
                f"ensemble {self.name!r} did not complete: "
                + "; ".join(broken)
            )
        return self

    def render(self) -> str:
        """Multi-line human-readable report (CLI output)."""
        lines = [
            f"ensemble {self.name!r}: {self.nodes} node(s) — "
            f"{self.nodes_run} run, {self.nodes_cached} cached, "
            f"{self.nodes_failed} failed, {self.nodes_skipped} skipped"
            + (f", {self.nodes_retried} retried" if self.nodes_retried else "")
        ]
        lines.extend(report.render() for report in self.reports.values())
        if self.store_stats is not None:
            lines.append(f"store: {self.store_stats}")
        return "\n".join(lines)


# -- the scheduler ----------------------------------------------------------

def compute_run_keys(
    ensemble: Ensemble,
) -> Dict[str, str]:
    """Content address per node, dependency keys folded in Merkle-style.

    Keys are derived at most once per ensemble and cached on it; the
    dict returned is a copy, so mutating it changes nothing.  A copy
    made by :meth:`Ensemble.with_specs` starts from its parent's keys
    (deriving those first if need be) and hashes with :func:`run_key`
    only its replaced nodes and the descendants whose keys they move.
    """
    return dict(run_keys(ensemble))


def run_keys(ensemble: Ensemble) -> Dict[str, str]:
    """:func:`compute_run_keys` without the copy: the cached dict itself.

    For callers inside the package that only read it; it is shared with
    the ensemble's cache, so never mutate it.  It lists nodes in
    topological order.
    """
    # Walk up to the nearest ensemble with current keys (a loop, not
    # recursion: a chain of perturbations may be arbitrarily long), then
    # derive back down so each copy folds over its parent's keys.
    lineage: List[Tuple[Ensemble, Optional[tuple]]] = []
    current: Optional[Ensemble] = ensemble
    keys: Optional[Dict[str, str]] = None
    while current is not None:
        cached = current._keys
        if cached is not None and len(cached) == len(current):
            keys = cached
            break
        origin = current._origin
        lineage.append((current, origin))
        current = origin[0] if origin is not None else None
    for member, origin in reversed(lineage):
        keys = _derive_run_keys(member, origin, keys)
    return keys


def _derive_run_keys(
    ensemble: Ensemble,
    origin: Optional[Tuple[Ensemble, int, Tuple[str, ...]]],
    parent_keys: Optional[Dict[str, str]],
) -> Dict[str, str]:
    """The Merkle loop: derive ``ensemble``'s keys and cache them on it.

    It starts from keys already known to hold: the parent's, for a
    ``with_specs`` copy, cut to the nodes the copy was made with; or
    else the ensemble's own stale cache (``add`` only appends, so every
    key in it still holds).  It hashes the nodes with no known key or a
    replaced spec, in topological order off a heap of topological
    indices, and a node whose key moved queues its dependents from the
    schedule's children index.  The keys come out in topological order.
    """
    nodes = ensemble._nodes
    schedule = ensemble._scheduled()
    if origin is not None:
        _, size, replaced = origin
        keys = (
            dict(parent_keys)
            if len(parent_keys) == size
            else dict(islice(parent_keys.items(), size))
        )
    else:
        keys = dict(ensemble._keys or {})
        size, replaced = len(keys), ()
    dirty = [*replaced, *islice(nodes, size, None)]
    index = schedule.index
    heap = sorted(map(index.__getitem__, dirty))
    # Nothing known: every node is hashed in order and nothing is queued.
    queued = None if len(heap) == len(nodes) else set(dirty)
    while heap:
        name = schedule.order[heappop(heap)]
        node = nodes[name]
        key = run_key(
            scenario_qualname(node.spec.scenario),
            node.spec.params,
            node.spec.seed,
            upstream={dep: keys[dep] for dep in node.deps},
        )
        if keys.get(name) == key:
            continue
        keys[name] = key
        if queued is None:
            continue
        for child in schedule.children(nodes)[name]:
            if child not in queued:
                queued.add(child)
                heappush(heap, index[child])
    ensemble._keys = keys
    ensemble._origin = None
    return keys


class NodeDispatch:
    """Node dispatch shared by :func:`run_ensemble` and ``execute_plan``.

    One instance serves one run of :func:`run_ensemble` or
    :func:`repro.delta.execute_plan`.  It resolves the per-node recovery
    once — defaulting like :meth:`Backend.map`, except that with no plan
    a node runs once (:data:`NO_RETRY`) and a real failure ends the
    *node*, never the run — and keeps the run's terminal bookkeeping:
    ``dead`` maps each failed or skipped node to the failed node that
    ended it, and ``totals`` sums every node's retry stats.  Each ready
    wave's payloads go through :meth:`dispatch`, one :meth:`Backend.map`
    of :func:`run_node` under the caller's dispatch ``scope``.
    """

    def __init__(
        self,
        ensemble: Ensemble,
        outcome: EnsembleResult,
        store: Optional[RunStore],
        backend: Union[str, Backend, None],
        retry: Optional[RetryPolicy],
        faults: Optional[FaultPlan],
        *,
        scope: str,
        timer: str,
    ) -> None:
        self.plan = faults if faults is not None else get_fault_plan()
        self.policy = retry if retry is not None else (
            DEFAULT_RETRY_POLICY if self.plan is not None else NO_RETRY
        )
        self.ensemble = ensemble
        self.outcome = outcome
        self.store = store
        self.backend = backend
        self.scope = scope
        self.timer = timer
        self.indices = ensemble._scheduled().index
        self.checkpoint_dir = (
            store.checkpoint_dir() if store is not None else None
        )
        self.dead: Dict[str, str] = {}
        self.totals = RetryStats()

    def skipped(self, node: EnsembleNode, key: str) -> bool:
        """Report ``node`` skipped if an upstream node did not complete."""
        broken = next((dep for dep in node.deps if dep in self.dead), None)
        if broken is None:
            return False
        root = self.dead[broken]
        self.dead[node.name] = root
        self.outcome.reports[node.name] = NodeReport(
            node.name, key, "skipped", blocked_on=root
        )
        return True

    def payload(
        self, node: EnsembleNode, key: str, upstream: Dict[str, Any]
    ) -> NodePayload:
        """The worker payload that runs ``node`` on ``upstream`` results."""
        return NodePayload(
            name=node.name,
            scenario=node.spec.scenario,
            fn=get_scenario(node.spec.scenario),
            params=dict(node.spec.params),
            seed=node.spec.seed,
            upstream=upstream,
            index=self.indices[node.name],
            policy=self.policy,
            plan=self.plan,
            checkpoint_dir=self.checkpoint_dir,
            key=key,
        )

    def dispatch(self, pending: List[NodePayload]) -> None:
        """Run one wave's payloads and record each terminal outcome.

        A completed node is persisted (or normalized, without a store)
        and reported ``"run"``; a failed one is reported with its
        attempt history and marked dead.  An empty wave returns before
        resolving the backend: on the process backend that would start
        a worker pool just to run nothing.
        """
        if not pending:
            return
        resolved = get_backend(self.backend).map(
            run_node, pending, scope=self.scope
        )
        node_timer = get_observer().timer(self.timer)
        for payload, (status, value, stats, seconds) in zip(
            pending, resolved
        ):
            self.totals.absorb(stats)
            node_timer.add(seconds)
            if status == "ok":
                if self.store is not None:
                    spec = self.ensemble.node(payload.name).spec
                    value = self.store.put(
                        payload.key,
                        value,
                        scenario=spec.scenario,
                        params=spec.params,
                        seed=spec.seed,
                    )
                else:
                    value = normalize_result(value)
                self.outcome.results[payload.name] = value
                error = None
            else:
                self.dead[payload.name] = payload.name
                error = f"{value}\n{value.history()}"
            self.outcome.reports[payload.name] = NodeReport(
                payload.name,
                payload.key,
                "run" if status == "ok" else "failed",
                seconds=seconds,
                attempts=stats.attempts,
                retried=stats.tasks_retried > 0,
                error=error,
            )


def run_ensemble(
    ensemble: Ensemble,
    store: Optional[RunStore] = None,
    backend: Union[str, Backend, None] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
) -> EnsembleResult:
    """Schedule every node of ``ensemble`` to a terminal state.

    Parameters
    ----------
    store:
        Content-addressed result cache; a hit skips execution entirely
        and a fresh result is persisted.  ``None`` disables caching.
    backend:
        :func:`repro.parallel.get_backend` spec — ready waves fan out
        through it; results are merged in deterministic node order.
    retry / faults:
        Per-node recovery policy and fault plan, defaulting like
        :meth:`Backend.map`: an ambient plan (``REPRO_FAULTS``) engages
        :data:`DEFAULT_RETRY_POLICY`; with neither, nodes execute once
        and real failures terminate the *node* (descendants skipped),
        never the ensemble.
    """
    outcome = EnsembleResult(name=ensemble.name)
    nodes = NodeDispatch(
        ensemble, outcome, store, backend, retry, faults,
        scope="ensemble.dispatch", timer="ensemble.node_seconds",
    )
    observer = get_observer()
    keys = run_keys(ensemble)

    with observer.span(
        "ensemble.run", ensemble=ensemble.name, nodes=len(ensemble)
    ):
        for wave in ensemble.waves():
            pending: List[NodePayload] = []
            for node in wave:
                key = keys[node.name]
                if nodes.skipped(node, key):
                    continue
                cached = store.get(key) if store is not None else None
                if cached is not None:
                    outcome.results[node.name] = cached
                    outcome.reports[node.name] = NodeReport(
                        node.name, key, "cached"
                    )
                    continue
                pending.append(
                    nodes.payload(
                        node,
                        key,
                        {dep: outcome.results[dep] for dep in node.deps},
                    )
                )
            nodes.dispatch(pending)

    _emit_ensemble_metrics(observer, outcome, nodes.totals)
    if store is not None:
        outcome.store_stats = store.stats.as_dict()
    return outcome


def _emit_ensemble_metrics(
    observer, outcome: EnsembleResult, totals: RetryStats
) -> None:
    """Publish scheduling counters (created only when nonzero).

    Statuses, retry counts, and injections are pure functions of the
    ensemble, the store contents, and the fault plan — never of the
    backend — so live snapshots stay byte-identical across
    serial/thread/process, matching the :mod:`repro.obs` contract.
    """
    for metric, amount in (
        ("ensemble.nodes", outcome.nodes),
        ("ensemble.nodes_run", outcome.nodes_run),
        ("ensemble.nodes_cached", outcome.nodes_cached),
        ("ensemble.nodes_failed", outcome.nodes_failed),
        ("ensemble.nodes_skipped", outcome.nodes_skipped),
        ("ensemble.nodes_retried", outcome.nodes_retried),
        ("ensemble.injected", totals.injected),
        ("ensemble.retries", totals.retries),
    ):
        if amount:
            observer.counter(metric).add(amount)


__all__ = [
    "NODE_SCOPE",
    "NodeDispatch",
    "NodePayload",
    "EnsembleResult",
    "NodeContext",
    "NodeReport",
    "TaskOutcome",
    "compute_run_keys",
    "current_node_context",
    "run_ensemble",
    "run_keys",
    "run_node",
]
