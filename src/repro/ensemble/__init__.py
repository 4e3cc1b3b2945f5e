"""repro.ensemble — scenario orchestration over a content-addressed run store.

The moment an experiment runs *many interrelated scenarios* — composite
model optimization (Section 2.3), intervention comparisons (Section
2.1), experimental designs (Section 4.2) — simulation becomes a data
management problem: runs need stable names, shared work must be
computed once, and whole ensembles need scheduling.  This subsystem is
that missing layer, in three cooperating pieces:

* :mod:`repro.ensemble.spec` — declarative :class:`ScenarioSpec` (a
  registered callable + canonicalized params + seed) and the
  :class:`Ensemble` DAG, with :meth:`Ensemble.branch` for
  alternate-timeline scenarios that share a common prefix and sweep
  constructors lifting :mod:`repro.doe` designs into ensembles;
* :mod:`repro.ensemble.store` — the content-addressed on-disk
  :class:`RunStore`: run key = sha256 over (callable qualname,
  canonical-JSON params, seed, schema version, upstream keys),
  one file per entry (a JSON header line describing each array, then
  the arrays' raw bytes) committed atomically with a hard link,
  hit/miss/eviction accounting, and ``gc`` by age/size; its codec also
  encodes served results (``encode_payload``);
* :mod:`repro.ensemble.scheduler` — a deterministic topological
  scheduler dispatching ready waves through :mod:`repro.parallel`,
  honoring :mod:`repro.faults` retry per node (failed nodes mark
  descendants skipped with a terminal report), and emitting
  ``ensemble.*`` observability.

Quick use::

    from repro.ensemble import (
        Ensemble, RunStore, ScenarioSpec, run_ensemble,
    )
    import repro.ensemble.scenarios  # registers the built-in families

    ensemble = Ensemble("demo")
    prefix = ensemble.add(
        "prefix", ScenarioSpec("epidemic.chain_prefix", {"days": 8})
    )
    ensemble.branch(
        prefix, "lockdown",
        ScenarioSpec("epidemic.chain_branch",
                     {"intervention": "distancing"}),
    )
    result = run_ensemble(ensemble, store=RunStore("./store"))
    # Re-running serves every node from the warm store, byte-identical.

CLI: ``python -m repro ensemble run|ls|gc``.
"""

from repro.ensemble.scheduler import (
    NODE_SCOPE,
    EnsembleResult,
    NodeContext,
    NodeReport,
    compute_run_keys,
    current_node_context,
    run_ensemble,
)
from repro.ensemble.spec import (
    Ensemble,
    EnsembleNode,
    ScenarioSpec,
    canonical_json,
    canonical_params,
    get_scenario,
    register_scenario,
    registered_scenarios,
    scenario_qualname,
)
from repro.ensemble.store import (
    STORE_SCHEMA_VERSION,
    RunStore,
    StoreEntry,
    StoreStats,
    normalize_result,
    result_fingerprint,
    run_key,
)

__all__ = [
    "NODE_SCOPE",
    "STORE_SCHEMA_VERSION",
    "Ensemble",
    "EnsembleNode",
    "EnsembleResult",
    "NodeContext",
    "NodeReport",
    "RunStore",
    "ScenarioSpec",
    "StoreEntry",
    "StoreStats",
    "canonical_json",
    "canonical_params",
    "compute_run_keys",
    "current_node_context",
    "get_scenario",
    "normalize_result",
    "register_scenario",
    "registered_scenarios",
    "result_fingerprint",
    "run_ensemble",
    "run_key",
    "scenario_qualname",
]
