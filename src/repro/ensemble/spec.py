"""Declarative scenario specs and ensemble DAGs.

The paper's Section 3 (composite-model optimization) and Section 5
(experimental design) both presuppose a layer that *names* simulation
runs: a run is a pure function of (which model, which parameters, which
seed), and an experiment is a DAG of such runs where downstream
scenarios consume upstream results.  This module is that naming layer:

* :func:`register_scenario` publishes a callable under a stable name;
* :class:`ScenarioSpec` pins one run — registered callable +
  canonicalized parameters + seed — so that equal specs *mean* equal
  runs (the content-addressing contract :mod:`repro.ensemble.store`
  builds on);
* :class:`Ensemble` is the DAG: nodes depend on upstream results,
  :meth:`Ensemble.branch` forks alternate timelines off a shared
  prefix, and the sweep constructors lift :mod:`repro.doe` designs
  (Latin hypercube, two-level factorial) into one node per design row.

Canonicalization (:func:`canonical_params`) is what makes the naming
stable: parameter dicts hash identically regardless of key insertion
order, numpy scalars are indistinguishable from the python scalars they
wrap, and tuples collapse to lists — so a spec built from a numpy
design matrix and the same spec typed by hand address the same run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import SimulationError

#: A scenario callable: ``fn(params, seed, upstream) -> result``.
#: ``params`` is the canonicalized parameter mapping, ``seed`` the
#: spec's integer seed (build generators with ``repro.stats.make_rng``),
#: and ``upstream`` maps dependency node names to their results.  The
#: result must be JSON-serializable apart from numpy arrays, which the
#: run store persists, and the serve wire carries, losslessly as their
#: ``.npy`` dtype descr, shape and raw bytes, refusing arrays that hold
#: Python objects.
ScenarioFn = Callable[[Mapping[str, Any], int, Mapping[str, Any]], Any]

_REGISTRY: Dict[str, ScenarioFn] = {}


def register_scenario(name: str, fn: Optional[ScenarioFn] = None):
    """Register ``fn`` as the scenario ``name`` (usable as a decorator).

    Registration is idempotent for the same callable; re-registering a
    *different* callable under an existing name raises, because the name
    participates in run keys and silently swapping its meaning would
    poison every store that holds results for it.
    """

    def installer(scenario_fn: ScenarioFn) -> ScenarioFn:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not scenario_fn:
            raise SimulationError(
                f"scenario {name!r} is already registered to "
                f"{_qualname(existing)}; refusing to rebind it to "
                f"{_qualname(scenario_fn)}"
            )
        _REGISTRY[name] = scenario_fn
        return scenario_fn

    if fn is not None:
        return installer(fn)
    return installer


def get_scenario(name: str) -> ScenarioFn:
    """The callable registered under ``name`` (raises if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise SimulationError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from None


def registered_scenarios() -> Tuple[str, ...]:
    """Names accepted by :func:`get_scenario`, sorted."""
    return tuple(sorted(_REGISTRY))


def _qualname(fn: Callable) -> str:
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"


def scenario_qualname(name: str) -> str:
    """Dotted qualname of the registered callable (part of run keys)."""
    return _qualname(get_scenario(name))


# -- canonical parameters ---------------------------------------------------

def canonical_params(params: Any) -> Any:
    """Normalize a parameter structure to a canonical JSON-able form.

    * mappings become plain dicts with string keys (ordering is erased
      by sorted-key serialization downstream);
    * sequences (lists, tuples, 1-D+ numpy arrays) become lists;
    * numpy scalars become the python scalars they wrap, so
      ``np.float64(0.5)`` and ``0.5`` name the same run;
    * bool/int/float/str/None pass through; non-finite floats are
      rejected (they do not round-trip JSON portably and two NaNs never
      compare equal, which would break the equal-spec = equal-run
      contract).
    """
    if isinstance(params, np.generic):
        return canonical_params(params.item())
    if isinstance(params, bool) or params is None or isinstance(params, str):
        return params
    if isinstance(params, int):
        return int(params)
    if isinstance(params, float):
        if not math.isfinite(params):
            raise SimulationError(
                f"non-finite parameter value {params!r} cannot be "
                "canonicalized (NaN/inf do not name a stable run)"
            )
        return float(params)
    if isinstance(params, np.ndarray):
        return canonical_params(params.tolist())
    if isinstance(params, Mapping):
        out = {}
        for key, value in params.items():
            if not isinstance(key, str):
                raise SimulationError(
                    f"parameter keys must be strings, got {key!r}"
                )
            out[key] = canonical_params(value)
        return out
    if isinstance(params, (list, tuple)):
        return [canonical_params(value) for value in params]
    raise SimulationError(
        f"parameter value {params!r} of type {type(params).__name__} "
        "is not canonicalizable (use JSON-able scalars, sequences, "
        "mappings, or numpy equivalents)"
    )


def canonical_json(params: Any) -> str:
    """The canonical form serialized compactly with sorted keys."""
    return json.dumps(
        canonical_params(params),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


# -- specs and the DAG ------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """One named run: registered scenario + canonical params + seed."""

    scenario: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, str) or not self.scenario:
            raise SimulationError("scenario must be a non-empty name")
        object.__setattr__(self, "params", canonical_params(dict(self.params)))
        object.__setattr__(self, "seed", int(self.seed))

    def canonical_json(self) -> str:
        """The canonical parameter serialization (stable across runs)."""
        return canonical_json(self.params)

    def with_params(self, **updates: Any) -> "ScenarioSpec":
        """A copy with ``updates`` merged over the current params."""
        merged = dict(self.params)
        merged.update(updates)
        return ScenarioSpec(self.scenario, merged, self.seed)


@dataclass(frozen=True)
class EnsembleNode:
    """One node of an ensemble DAG."""

    name: str
    spec: ScenarioSpec
    deps: Tuple[str, ...] = ()


class Schedule:
    """Order, waves and per-node positions of one DAG shape, by name.

    Derived once per node set and shared, unchanged, by every
    :meth:`Ensemble.with_specs` copy of it: a copy keeps the names and
    the edges, so it schedules identically.  All fields are shared;
    never mutate them.
    """

    __slots__ = ("order", "waves", "index", "level", "position", "wave_ends",
                 "_children")

    def __init__(
        self, order: List[str], waves: List[List[str]], level: Dict[str, int]
    ) -> None:
        #: Node names in topological order (which is insertion order).
        self.order = tuple(order)
        #: Node names per wave, each wave in topological order.
        self.waves = tuple(map(tuple, waves))
        #: Topological index per node: its fault index and heap priority.
        self.index = dict(zip(self.order, range(len(self.order))))
        #: Wave number per node.
        self.level = level
        flat = [name for wave in self.waves for name in wave]
        #: Position per node in the waves laid end to end.
        self.position = dict(zip(flat, range(len(flat))))
        #: End of each wave in that layout.
        self.wave_ends = list(accumulate(map(len, self.waves)))
        self._children: Optional[Dict[str, List[str]]] = None

    def children(
        self, nodes: Mapping[str, EnsembleNode]
    ) -> Dict[str, List[str]]:
        """Each node's dependents, built on first use from ``nodes``'s edges."""
        children = self._children
        if children is None:
            children = {name: [] for name in self.order}
            for name in self.order:
                for dep in nodes[name].deps:
                    children[dep].append(name)
            self._children = children
        return children


class Ensemble:
    """A DAG of scenario runs with deterministic ordering.

    Nodes are added with :meth:`add` (dependencies by node name) and
    forked with :meth:`branch`; iteration order, topological order, and
    the ready-wave decomposition the scheduler dispatches are all pure
    functions of the insertion sequence, so two processes that build the
    same ensemble schedule it identically.

    The :class:`Schedule`, the run keys
    (:func:`~repro.ensemble.scheduler.compute_run_keys`) and the
    "reused" reports :func:`repro.delta.execute_plan` shares are derived
    at most once and cached.  ``add`` is the only mutator and only appends,
    so a cache is valid exactly while it covers every node — a length
    check, with no bookkeeping in ``add`` — and stale keys still hold
    for the nodes they cover.  The caches take no lock: two threads
    racing on one derivation store equal values.
    """

    def __init__(self, name: str = "ensemble") -> None:
        self.name = name
        self._nodes: Dict[str, EnsembleNode] = {}
        self._schedule: Optional[Schedule] = None
        self._keys: Optional[Dict[str, str]] = None
        #: For a :meth:`with_specs` copy whose keys are not derived yet:
        #: the parent, its node count at the copy, and the replaced
        #: names.  Dropped once the copy's keys are derived.
        self._origin: Optional[Tuple[Ensemble, int, Tuple[str, ...]]] = None
        #: The key map the delta layer's "reused" reports were built
        #: from, and those reports (see ``repro.delta.plan``).
        self._reused: Optional[Tuple[Dict[str, str], List[Any]]] = None

    # -- construction -------------------------------------------------------
    def add(
        self,
        name: str,
        spec: ScenarioSpec,
        deps: Sequence[str] = (),
    ) -> str:
        """Add node ``name`` running ``spec`` after ``deps``; returns name."""
        if not name:
            raise SimulationError("node name must be non-empty")
        if name in self._nodes:
            raise SimulationError(f"duplicate ensemble node {name!r}")
        deps = tuple(deps)
        for dep in deps:
            if dep not in self._nodes:
                raise SimulationError(
                    f"node {name!r} depends on unknown node {dep!r} "
                    "(add dependencies first)"
                )
        if len(set(deps)) != len(deps):
            raise SimulationError(f"node {name!r} lists a duplicate dep")
        self._nodes[name] = EnsembleNode(name, spec, deps)
        return name

    def branch(
        self,
        base: str,
        name: str,
        spec: ScenarioSpec,
        extra_deps: Sequence[str] = (),
    ) -> str:
        """Fork an alternate timeline off node ``base``.

        The new node depends on ``base`` (plus ``extra_deps``), so every
        branch shares ``base`` and its whole ancestry as a common
        prefix: the run store computes the prefix once and each timeline
        diverges only in its post-branch nodes.  This is the DataStorm
        branching-timeline pattern; for database-valued Markov chains
        the prefix scenario additionally persists a
        :class:`~repro.mapreduce.checkpoint.ChainCheckpoint` so even a
        *crashed* prefix computation resumes instead of restarting (see
        ``repro.ensemble.scenarios.epidemic_chain_prefix``).
        """
        if base not in self._nodes:
            raise SimulationError(
                f"cannot branch from unknown node {base!r}"
            )
        return self.add(name, spec, deps=(base, *extra_deps))

    def with_specs(
        self,
        replacements: Mapping[str, ScenarioSpec],
        name: Optional[str] = None,
    ) -> "Ensemble":
        """A copy with some nodes' specs replaced (DAG shape preserved).

        Node names, dependency edges, and insertion order all carry
        over unchanged, so the copy schedules identically; only the
        replaced specs (and, through the Merkle fold, every descendant's
        run key) move.  This is the substitution primitive
        :func:`repro.delta.perturb` builds what-if timelines from.
        Unknown replacement names are rejected — a silently ignored
        perturbation would masquerade as a fully reused plan.

        The copy shares every unchanged (frozen) node and the
        :class:`Schedule` with this ensemble, and derives its run keys
        from this ensemble's: only the replaced nodes and the
        descendants their keys reach are hashed again.
        """
        unknown = sorted(
            name for name in replacements if name not in self._nodes
        )
        if unknown:
            raise SimulationError(
                f"with_specs got replacements for unknown node(s) {unknown}"
            )
        nodes = dict(self._nodes)
        for node_name, spec in replacements.items():
            nodes[node_name] = EnsembleNode(
                node_name, spec, nodes[node_name].deps
            )
        clone = Ensemble(name or self.name)
        clone._nodes = nodes
        clone._schedule = self._scheduled()
        clone._origin = (self, len(self._nodes), tuple(replacements))
        return clone

    # -- sweep constructors --------------------------------------------------
    @classmethod
    def from_design(
        cls,
        scenario: str,
        factors: Sequence[str],
        design: np.ndarray,
        seed: int = 0,
        base_params: Optional[Mapping[str, Any]] = None,
        name: str = "sweep",
    ) -> "Ensemble":
        """One independent node per row of a :mod:`repro.doe` design matrix.

        Row ``i`` becomes node ``{name}/{i:03d}`` with params
        ``base_params + {factor_j: design[i, j]}`` and seed ``seed``
        (rows differ by parameters; give rows distinct seeds by encoding
        a replicate factor into the design instead).
        """
        design = np.asarray(design, dtype=float)
        if design.ndim != 2:
            raise SimulationError("design must be a 2-D matrix")
        if design.shape[1] != len(factors):
            raise SimulationError(
                f"design has {design.shape[1]} columns but "
                f"{len(factors)} factor names were given"
            )
        ensemble = cls(name=name)
        base = dict(base_params or {})
        for i, row in enumerate(design):
            params = dict(base)
            params.update(
                {factor: float(level) for factor, level in zip(factors, row)}
            )
            ensemble.add(
                f"{name}/{i:03d}", ScenarioSpec(scenario, params, seed)
            )
        return ensemble

    @classmethod
    def latin_hypercube(
        cls,
        scenario: str,
        factors: Mapping[str, Tuple[float, float]],
        runs: int,
        seed: int = 0,
        design_seed: int = 0,
        base_params: Optional[Mapping[str, Any]] = None,
        name: str = "lh",
    ) -> "Ensemble":
        """A randomized-Latin-hypercube sweep scaled to factor ranges."""
        from repro.doe import centered_levels, randomized_lh
        from repro.stats import make_rng

        names = list(factors)
        design = randomized_lh(len(names), runs, make_rng(design_seed))
        # Rescale centered levels to each factor's [low, high] range.
        levels = centered_levels(runs)
        span = levels.max() - levels.min()
        scaled = np.empty_like(design)
        for j, factor in enumerate(names):
            low, high = factors[factor]
            scaled[:, j] = low + (design[:, j] - levels.min()) / span * (
                high - low
            )
        return cls.from_design(
            scenario, names, scaled, seed, base_params, name=name
        )

    @classmethod
    def factorial(
        cls,
        scenario: str,
        factors: Mapping[str, Tuple[float, float]],
        seed: int = 0,
        base_params: Optional[Mapping[str, Any]] = None,
        name: str = "factorial",
    ) -> "Ensemble":
        """A two-level full-factorial sweep over factor (low, high) pairs."""
        from repro.doe import full_factorial

        names = list(factors)
        design = full_factorial(len(names)).astype(float)
        scaled = np.empty_like(design)
        for j, factor in enumerate(names):
            low, high = factors[factor]
            scaled[:, j] = np.where(design[:, j] > 0, high, low)
        return cls.from_design(
            scenario, names, scaled, seed, base_params, name=name
        )

    # -- inspection ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> EnsembleNode:
        """The node registered under ``name``."""
        try:
            return self._nodes[name]
        except KeyError:
            raise SimulationError(f"unknown ensemble node {name!r}") from None

    def nodes(self) -> List[EnsembleNode]:
        """All nodes in insertion order."""
        return list(self._nodes.values())

    def topological_order(self) -> List[EnsembleNode]:
        """Deterministic topo sort: insertion order among ready nodes.

        ``add`` rejects forward references, so insertion order *is* a
        topological order; the ready scan that derives it checks that
        invariant (one pass over an ensemble built through ``add``) and
        names the unsatisfiable nodes if it is broken.  Derived once and
        cached; the list returned is a copy.
        """
        return list(map(self._nodes.__getitem__, self._scheduled().order))

    def waves(self) -> List[List[EnsembleNode]]:
        """Topological levels: wave ``k`` holds nodes whose longest
        dependency chain has length ``k``.  Nodes within a wave are
        mutually independent, so the scheduler fans each wave out
        through a parallel backend; wave membership and intra-wave order
        are deterministic.  Derived once and cached; the lists returned
        are copies."""
        lookup = self._nodes.__getitem__
        return [list(map(lookup, wave)) for wave in self._scheduled().waves]

    def _scheduled(self) -> Schedule:
        """The cached :class:`Schedule` — shared, never mutate it."""
        schedule = self._schedule
        if schedule is None or len(schedule.order) != len(self._nodes):
            schedule = self._schedule = self._derive_schedule()
        return schedule

    def _derive_schedule(self) -> Schedule:
        """One ready scan yields the order and each node's wave."""
        depth: Dict[str, int] = {}
        order: List[str] = []
        waves: List[List[str]] = []
        pending = list(self._nodes.values())
        while pending:
            remaining: List[EnsembleNode] = []
            for node in pending:
                if any(dep not in depth for dep in node.deps):
                    remaining.append(node)
                    continue
                level = max((depth[dep] + 1 for dep in node.deps), default=0)
                depth[node.name] = level
                order.append(node.name)
                while len(waves) <= level:
                    waves.append([])
                waves[level].append(node.name)
            if len(remaining) == len(pending):
                cyclic = ", ".join(sorted(n.name for n in remaining))
                raise SimulationError(
                    f"ensemble has an unsatisfiable dependency among: {cyclic}"
                )
            pending = remaining
        return Schedule(order, waves, depth)


__all__ = [
    "Ensemble",
    "EnsembleNode",
    "ScenarioFn",
    "ScenarioSpec",
    "canonical_json",
    "canonical_params",
    "get_scenario",
    "register_scenario",
    "registered_scenarios",
    "scenario_qualname",
]
