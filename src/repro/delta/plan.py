"""Delta plans: exact invalidation cones over content-addressed ensembles.

A warm :func:`~repro.ensemble.scheduler.run_ensemble` already serves
unchanged nodes from the :class:`~repro.ensemble.store.RunStore`, but it
does so *naively*: every node is probed against the store, has its
(possibly large) stored result loaded back from disk, and rides through
the full wave dispatch — even when a perturbation touched one
node out of thousands.  A :class:`DeltaPlan` makes the reuse explicit
and the work proportional to the change:

* **plan** (:func:`plan_delta`) — walk the target ensemble in
  topological order, read every node's Merkle-folded run key (derived
  once per ensemble; a :func:`perturb` copy re-hashes only its cone),
  and classify each node ``reuse`` (key already committed in the store)
  or ``recompute``, with a *reason* that explains the cone shape:
  ``changed`` (the node's own scenario/params/seed moved vs. the base),
  ``upstream`` (only its upstream fold moved — a cone descendant),
  ``added`` (no base counterpart), ``missing`` (key unchanged but
  evicted from the store), or ``cold`` (no base given).  Because run
  keys fold upstream keys Merkle-style, the ``recompute`` set is
  exactly the changed nodes plus the descendants their changes reach —
  the invalidation cone — and everything outside it is provably
  reusable byte-for-byte.
* **execute** (:func:`execute_plan`) — dispatch *only* the cone through
  the scheduler's :class:`~repro.ensemble.scheduler.NodeDispatch`,
  loading a reused upstream result from the store only when a cone node
  actually consumes it.  Reused nodes that feed nothing recomputed are never
  deserialized, which is what makes a one-factor perturbation of a
  thousands-of-node sweep cost O(cone), not O(sweep).

Fault semantics are inherited unchanged: a recomputed node executes
under scope ``"ensemble.node"`` with its *global topological index in
the target ensemble* — the same index a full ``run_ensemble(target)``
would use — so ``REPRO_FAULTS=at=ensemble.node:<i>`` kills the same
logical node whether the run is full or incremental, and a
killed-and-retried node lands in the store with the same content
address either way.

Observability: ``delta.plan`` / ``delta.reused`` / ``delta.recomputed``
counters (nonzero-guarded, pure functions of ensemble + store state, so
snapshots stay byte-identical across backends), ``delta.loads`` for
lazily fetched upstream results, and per-plan ``delta.plan`` /
``delta.execute`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, groupby
from operator import ne, not_
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.ensemble.scheduler import (
    EnsembleResult,
    NodeDispatch,
    NodePayload,
    NodeReport,
    run_keys,
)
from repro.ensemble.spec import (
    Ensemble,
    ScenarioSpec,
    canonical_json,
    get_scenario,
    scenario_qualname,
)
from repro.ensemble.store import RunStore
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy, RetryStats
from repro.obs import get_observer
from repro.parallel.backend import Backend

#: Plan actions.
REUSE = "reuse"
RECOMPUTE = "recompute"

#: Recompute reasons, in rendering order.
REASONS = ("changed", "upstream", "added", "missing", "cold")


# -- perturbation ------------------------------------------------------------

def perturb(
    ensemble: Ensemble,
    params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    scenarios: Optional[Mapping[str, str]] = None,
    seeds: Optional[Mapping[str, int]] = None,
    name: Optional[str] = None,
) -> Ensemble:
    """A what-if copy of ``ensemble`` with targeted spec changes.

    ``params`` merges updates into named nodes' parameter dicts
    (:meth:`ScenarioSpec.with_params`); ``scenarios`` swaps a node's
    registered scenario (a *code* change — the new callable's qualname
    re-keys the node); ``seeds`` re-seeds nodes.  The DAG shape is
    untouched, so :func:`plan_delta` can line the copy up against the
    original node-by-node.
    """
    replacements: Dict[str, ScenarioSpec] = {}

    def current(node_name: str) -> ScenarioSpec:
        return replacements.get(node_name, ensemble.node(node_name).spec)

    for node_name, updates in (params or {}).items():
        replacements[node_name] = current(node_name).with_params(**updates)
    for node_name, scenario in (scenarios or {}).items():
        spec = current(node_name)
        get_scenario(scenario)  # fail fast on unregistered names
        replacements[node_name] = ScenarioSpec(
            scenario, spec.params, spec.seed
        )
    for node_name, seed in (seeds or {}).items():
        spec = current(node_name)
        replacements[node_name] = ScenarioSpec(
            spec.scenario, spec.params, int(seed)
        )
    return ensemble.with_specs(replacements, name=name)


# -- the plan ----------------------------------------------------------------

@dataclass(frozen=True)
class NodePlan:
    """One node's resolution: serve from the store, or recompute."""

    name: str
    key: str
    action: str  # "reuse" | "recompute"
    reason: str  # "hit" for reuse; else a member of REASONS
    base_key: Optional[str] = None

    def render(self) -> str:
        moved = (
            ""
            if self.base_key in (None, self.key)
            else f"  (was {self.base_key[:12]})"
        )
        return (
            f"{self.action:<10} {self.reason:<9} {self.name}  "
            f"[{self.key[:12]}]{moved}"
        )


class DeltaPlan:
    """The exact recompute/reuse partition for one target ensemble.

    Only the recompute set is held as :class:`NodePlan` objects; every
    other node is a reuse of its key, and :attr:`nodes` builds those
    entries on first read.
    """

    def __init__(
        self,
        ensemble: Ensemble,
        keys: Mapping[str, str],
        recompute: Dict[str, NodePlan],
        base: Optional[Ensemble] = None,
        base_keys: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.ensemble = ensemble
        #: Run key per target node, in topological order (read-only).
        self.keys = keys
        #: The ensemble the plan was made against, if one was given.
        self.base = base
        self._base_keys = base_keys
        self._recompute = recompute
        self._nodes: Optional[Dict[str, NodePlan]] = None

    @property
    def nodes(self) -> Dict[str, NodePlan]:
        """Every node's resolution in topological order, recomputes and
        reuses alike (built on first read, then kept)."""
        if self._nodes is None:
            recompute = self._recompute
            base_keys = self._base_keys or {}
            self._nodes = {
                name: recompute.get(name)
                or NodePlan(name, key, REUSE, "hit", base_keys.get(name))
                for name, key in self.keys.items()
            }
        return self._nodes

    @property
    def nodes_total(self) -> int:
        return len(self.keys)

    @property
    def nodes_reused(self) -> int:
        return len(self.keys) - len(self._recompute)

    @property
    def nodes_recomputed(self) -> int:
        return len(self._recompute)

    @property
    def cone(self) -> List[str]:
        """Names of the nodes the plan will execute, topologically."""
        return list(self._recompute)

    @property
    def recompute_fraction(self) -> float:
        """Cone size over ensemble size (the <5% headline metric)."""
        return self.nodes_recomputed / max(self.nodes_total, 1)

    def reasons(self) -> Dict[str, int]:
        """Recompute-reason histogram (stable key order)."""
        counts: Dict[str, int] = {}
        for reason in REASONS:
            amount = sum(
                1 for n in self._recompute.values() if n.reason == reason
            )
            if amount:
                counts[reason] = amount
        return counts

    def render(self, limit: int = 20) -> str:
        """Human-readable plan: headline plus the cone (reuses elided)."""
        lines = [
            f"delta plan for {self.ensemble.name!r}: "
            f"{self.nodes_total} node(s) — {self.nodes_reused} reused, "
            f"{self.nodes_recomputed} recomputed "
            f"({100.0 * self.recompute_fraction:.1f}%)"
            + (f"  reasons={self.reasons()}" if self.nodes_recomputed else "")
        ]
        shown = 0
        for node in self._recompute.values():
            if shown == limit:
                lines.append(
                    f"  ... ({self.nodes_recomputed - limit} more "
                    "recomputed node(s))"
                )
                break
            lines.append("  " + node.render())
            shown += 1
        return "\n".join(lines)


def _own_content(spec: ScenarioSpec) -> Tuple[str, str, int]:
    """A node's key contribution minus the upstream fold."""
    return (
        scenario_qualname(spec.scenario),
        canonical_json(spec.params),
        spec.seed,
    )


def plan_delta(
    target: Ensemble,
    store: RunStore,
    base: Optional[Ensemble] = None,
) -> DeltaPlan:
    """Classify every ``target`` node as reuse-from-store or recompute.

    ``base`` (the ensemble the store was last materialized from) only
    sharpens the *reasons* — ``changed`` vs. ``upstream`` vs. ``added``
    vs. ``missing`` — the reuse/recompute split itself is decided purely
    by content-address membership in ``store`` (one
    :meth:`~repro.ensemble.store.RunStore.contains_many` call), so a
    stale or absent ``base`` can never cause an unsound reuse.  Only
    the nodes whose keys the store lacks get a :class:`NodePlan` here.
    """
    observer = get_observer()
    with observer.span(
        "delta.plan", ensemble=target.name, nodes=len(target)
    ):
        keys = run_keys(target)
        base_keys = run_keys(base) if base is not None else {}
        stored = store.contains_many(list(keys.values()))
        recompute: Dict[str, NodePlan] = {}
        for name in compress(keys, map(not_, stored)):
            key = keys[name]
            base_key = base_keys.get(name)
            if base is None:
                reason = "cold"
            elif name not in base:
                reason = "added"
            elif base_key == key:
                reason = "missing"
            elif (
                _own_content(base.node(name).spec)
                != _own_content(target.node(name).spec)
            ):
                reason = "changed"
            else:
                reason = "upstream"
            recompute[name] = NodePlan(
                name, key, RECOMPUTE, reason, base_key
            )
        plan = DeltaPlan(
            target,
            MappingProxyType(keys),
            recompute,
            base,
            MappingProxyType(base_keys) if base is not None else None,
        )
    _emit_plan_metrics(observer, plan)
    return plan


def _emit_plan_metrics(observer, plan: DeltaPlan) -> None:
    """``delta.plan``/``delta.reused``/``delta.recomputed`` counters.

    Pure functions of (ensemble, store contents) — never of the backend
    — and nonzero-guarded, so live ``values`` snapshots stay
    byte-identical across the serial and process backends.
    """
    observer.counter("delta.plan").inc()
    for metric, amount in (
        ("delta.reused", plan.nodes_reused),
        ("delta.recomputed", plan.nodes_recomputed),
    ):
        if amount:
            observer.counter(metric).add(amount)


# -- execution ---------------------------------------------------------------

class DeltaResult(EnsembleResult):
    """An :class:`EnsembleResult` whose ``results`` hold only the cone.

    Reused nodes are reported with status ``"reused"`` but their stored
    results are *not* loaded into memory (that laziness is the point of
    the delta path); fetch one on demand with :meth:`result`.  Their
    reports are shared objects (see :func:`_reused_reports`), and the
    counters look only at the cone's reports.
    """

    def __init__(self, name: str, plan: DeltaPlan, store: RunStore) -> None:
        super().__init__(name=name)
        self.plan = plan
        self._store = store
        #: The cone's reports in the order they were recorded.  It is
        #: ``reports`` itself until :func:`execute_plan` fills that in
        #: with the reused nodes.
        self._cone: Dict[str, NodeReport] = self.reports

    def _count(self, status: str) -> int:
        if status == "reused":
            return len(self.reports) - len(self._cone)
        return sum(1 for r in self._cone.values() if r.status == status)

    @property
    def nodes_retried(self) -> int:
        return sum(1 for r in self._cone.values() if r.retried)

    @property
    def nodes_reused(self) -> int:
        return self._count("reused")

    def result(self, name: str) -> Any:
        """The result of any completed node — computed, or store-loaded."""
        if name in self.results:
            return self.results[name]
        report = self.reports.get(name)
        if report is None:
            raise SimulationError(
                f"unknown node {name!r} in delta result {self.name!r}"
            )
        if report.status in ("failed", "skipped"):
            cause = (
                (report.error or "no error recorded").splitlines()[0]
                if report.status == "failed"
                else f"upstream {report.blocked_on} did not complete"
            )
            raise SimulationError(
                f"node {name!r} {report.status} ({cause}), so it has no "
                "stored result"
            )
        value = self._store.get(report.key)
        if value is None:
            raise SimulationError(
                f"node {name!r} ({report.status}) has no stored result "
                f"under {report.key[:12]}…; the store was mutated after "
                "planning — re-plan and re-execute"
            )
        return value

    def render(self) -> str:
        lines = [
            f"delta {self.name!r}: {self.nodes} node(s) — "
            f"{self.nodes_reused} reused, {self.nodes_run} recomputed, "
            f"{self.nodes_failed} failed, {self.nodes_skipped} skipped"
            + (f", {self.nodes_retried} retried" if self.nodes_retried else "")
        ]
        lines.extend(report.render() for report in self._cone.values())
        if self.store_stats is not None:
            lines.append(f"store: {self.store_stats}")
        return "\n".join(lines)


def _reused_reports(
    ensemble: Ensemble, base: Optional[Ensemble] = None
) -> List[Tuple[str, NodeReport]]:
    """``(name, "reused" report)`` for every node, waves laid end to end.

    Built once per key map, kept on the ensemble and shared by every
    plan executed for it; never mutate it.  When ``base`` has the same
    :class:`~repro.ensemble.spec.Schedule` (a perturbed copy of it), the
    list is the base's, copied in C, with only the entries whose key
    moved replaced.
    """
    keys = run_keys(ensemble)
    cached = ensemble._reused
    if cached is not None and cached[0] is keys:
        return cached[1]
    schedule = ensemble._scheduled()
    if (
        base is not None
        and base is not ensemble
        and base._scheduled() is schedule
    ):
        items = list(_reused_reports(base))
        base_keys = run_keys(base)
        position = schedule.position
        moved = map(ne, keys.values(), map(base_keys.get, keys))
        for name in compress(keys, moved):
            items[position[name]] = (
                name, NodeReport(name, keys[name], "reused")
            )
    else:
        items = [
            (name, NodeReport(name, keys[name], "reused"))
            for wave in schedule.waves
            for name in wave
        ]
    ensemble._reused = (keys, items)
    return items


def _all_reports(
    plan: DeltaPlan, cone: Dict[str, NodeReport]
) -> Dict[str, NodeReport]:
    """Every node's report, in the order a walk over every wave records
    them: reused and skipped nodes in wave order, then the wave's
    dispatched nodes (``NodeDispatch.dispatch`` records them after the
    wave).  The reused reports are sliced from the shared list in C;
    Python touches only the cone.
    """
    schedule = plan.ensemble._scheduled()
    items = _reused_reports(plan.ensemble, plan.base)
    dispatched = [
        name for name, report in cone.items() if report.status != "skipped"
    ]
    pieces: List[List[Tuple[str, NodeReport]]] = []
    cut = 0
    for level, names in groupby(dispatched, key=schedule.level.__getitem__):
        names = list(names)
        for name in names:
            at = schedule.position[name]
            pieces.append(items[cut:at])
            cut = at + 1
        end = schedule.wave_ends[level]
        pieces.append(items[cut:end])
        cut = end
        pieces.append([(name, cone[name]) for name in names])
    pieces.append(items[cut:])
    reports = dict(chain.from_iterable(pieces))
    if len(dispatched) < len(cone):
        reports.update(
            (name, report)
            for name, report in cone.items()
            if report.status == "skipped"
        )
    return reports


def execute_plan(
    plan: DeltaPlan,
    store: RunStore,
    backend: Union[str, Backend, None] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
) -> DeltaResult:
    """Recompute exactly the plan's cone; serve everything else by key.

    Wave-by-wave over the cone's waves, mirroring
    :func:`~repro.ensemble.scheduler.run_ensemble` — same retry/fault
    defaulting, same per-node scope and global topological fault index,
    same failed-node-skips-descendants semantics — but a reused node
    costs nothing unless a cone node consumes its result, in which case
    it is loaded from the store once and shared by every consumer in
    the wave set.
    """
    ensemble = plan.ensemble
    outcome = DeltaResult(ensemble.name, plan, store)
    nodes = NodeDispatch(
        ensemble, outcome, store, backend, retry, faults,
        scope="delta.dispatch", timer="delta.node_seconds",
    )
    observer = get_observer()
    loaded: Dict[str, Any] = {}  # store-loaded reused upstream results
    loads = 0

    def upstream_result(dep: str) -> Any:
        nonlocal loads
        if dep in outcome.results:
            return outcome.results[dep]
        if dep not in loaded:
            value = store.get(plan.keys[dep])
            if value is None:
                raise SimulationError(
                    f"reused upstream node {dep!r} vanished from the "
                    f"store (key {plan.keys[dep][:12]}…) between "
                    "planning and execution — re-plan and re-execute"
                )
            loaded[dep] = value
            loads += 1
        return loaded[dep]

    level = ensemble._scheduled().level
    with observer.span(
        "delta.execute",
        ensemble=ensemble.name,
        nodes=plan.nodes_total,
        cone=plan.nodes_recomputed,
    ):
        # The cone is in topological order, so a stable sort by wave
        # keeps each wave in the order a walk over every wave meets it.
        cone = sorted(plan.cone, key=level.__getitem__)
        for _, wave in groupby(cone, key=level.__getitem__):
            pending: List[NodePayload] = []
            for name in wave:
                node = ensemble.node(name)
                key = plan.keys[name]
                if nodes.skipped(node, key):
                    continue
                pending.append(
                    nodes.payload(
                        node,
                        key,
                        {dep: upstream_result(dep) for dep in node.deps},
                    )
                )
            nodes.dispatch(pending)
        outcome.reports = _all_reports(plan, outcome._cone)

    _emit_execute_metrics(observer, outcome, nodes.totals, loads)
    outcome.store_stats = store.stats.as_dict()
    return outcome


def _emit_execute_metrics(
    observer, outcome: DeltaResult, totals: RetryStats, loads: int
) -> None:
    """Execution counters (nonzero-guarded, backend-independent)."""
    for metric, amount in (
        ("delta.nodes_run", outcome.nodes_run),
        ("delta.nodes_failed", outcome.nodes_failed),
        ("delta.nodes_skipped", outcome.nodes_skipped),
        ("delta.nodes_retried", outcome.nodes_retried),
        ("delta.loads", loads),
        ("delta.injected", totals.injected),
        ("delta.retries", totals.retries),
    ):
        if amount:
            observer.counter(metric).add(amount)


def delta_run(
    target: Ensemble,
    store: RunStore,
    base: Optional[Ensemble] = None,
    backend: Union[str, Backend, None] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
) -> DeltaResult:
    """Plan and execute in one call (the common path)."""
    plan = plan_delta(target, store, base=base)
    return execute_plan(
        plan, store, backend=backend, retry=retry, faults=faults
    )


__all__ = [
    "RECOMPUTE",
    "REUSE",
    "DeltaPlan",
    "DeltaResult",
    "NodePlan",
    "delta_run",
    "execute_plan",
    "perturb",
    "plan_delta",
]
