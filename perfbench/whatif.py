"""``whatif``: one analyst re-running perturbed ensembles over a run store.

Inputs come from the seed: a two-level ensemble of 1020 nodes, where
each of 20 stage nodes feeds 50 Latin-hypercube leaves.  Every node runs
``perfbench.fold``, a scenario that folds its upstream result into its
own in microseconds; every other stage and every third leaf also return
a numpy series, so both store encodings (``run.json`` alone and with
``arrays.npz``) are written and read.

The closed loop is a fixed, seeded op sequence: two cold sweeps into
empty on-disk stores, each followed by three reloads against the
populated store, then what-if cycles on the last store (perturb →
plan_delta → execute_plan → read the recomputed results → diff_timelines
against the base).  Four cycles in five perturb one leaf factor; the fifth perturbs
a stage, and half of those change only the stage's label, which its
result ignores, so the whole recomputed cone is wasted work.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench.common import (
    NoSpans,
    OUT_DIR,
    Speed,
    gated_metrics,
    latency_metrics,
    metric,
    peak_rss_mb,
    percentile,
    user_cpu_s,
)
from perfbench import layers
from repro.delta import diff_timelines, execute_plan, perturb, plan_delta
from repro.doe import randomized_lh
from repro.ensemble import (
    Ensemble,
    RunStore,
    ScenarioSpec,
    compute_run_keys,
    register_scenario,
    result_fingerprint,
    run_ensemble,
)

STAGES = 20
LEAVES = 50
SWEEPS = 2
#: Reloads after each sweep: reads are quick, so more of them are timed.
RELOADS = 3
SETUPS = 11
#: Reference-kernel samples taken before and after each set-up.
SETUP_SAMPLES = 3
#: Cycles per second of ``--seconds``: the cycle count is fixed by seed
#: and seconds, never by elapsed time.
CYCLES_PER_SECOND = 8.0
#: One block of cycles; a seeded shuffle of each block sets the order.
BLOCK = ("leaf", "leaf", "leaf", "leaf", "stage")
SCENARIO = "perfbench.fold"


def fold(params, seed, upstream):
    """Fold the upstream values into this node's own (microseconds)."""
    base = sum(result["value"] for result in upstream.values())
    value = 0.5 * base + 2.0 * params["a"] - params.get("b", 0.0) + 1e-6 * seed
    out: Dict[str, Any] = {"value": value, "depth": 1 + len(upstream)}
    if params.get("series"):
        out["series"] = np.cos(np.linspace(0.0, value, 24))
    return out


register_scenario(SCENARIO, fold)


# -- inputs -------------------------------------------------------------------------

class Inputs:
    """The ensemble spec and the cycle sequence, derived from one seed."""

    def __init__(self, seed: int, seconds: float, scale: float = 1.0) -> None:
        rng = np.random.default_rng([seed, 2])
        self.stages = max(2, round(STAGES * min(scale * 4, 1.0)))
        self.leaves = max(3, round(LEAVES * min(scale * 4, 1.0)))
        self.stage_params = [
            {"a": round(float(rng.random()), 6), "label": f"stage-{s}", "series": s % 2 == 0}
            for s in range(self.stages)
        ]
        self.leaf_params = []
        for s in range(self.stages):
            design = randomized_lh(2, self.leaves, rng)
            lo, hi = design.min(), design.max()
            unit = (design - lo) / (hi - lo)
            self.leaf_params.append(
                [
                    {"a": round(float(a), 6), "b": round(float(b), 6), "series": leaf % 3 == 0}
                    for leaf, (a, b) in enumerate(unit)
                ]
            )
        # Whole blocks only, so every seed runs the same mix of kinds.
        blocks = max(1, round(seconds * CYCLES_PER_SECOND / len(BLOCK)))
        kinds: List[str] = []
        for _ in range(blocks):
            kinds.extend(BLOCK[i] for i in rng.permutation(len(BLOCK)))
        self.cycles: List[Tuple[str, str, Dict[str, Any]]] = []
        stage_cycles = 0
        for n, kind in enumerate(kinds):
            s = int(rng.integers(0, self.stages))
            if kind == "leaf":
                leaf = int(rng.integers(0, self.leaves))
                factor = "a" if rng.random() < 0.5 else "b"
                self.cycles.append(
                    (kind, leaf_name(s, leaf), {factor: round(float(rng.random()), 6)})
                )
            else:
                stage_cycles += 1
                if stage_cycles % 2:
                    change = {"a": round(float(rng.random()), 6)}
                else:
                    change = {"label": f"relabel-{seed}-{n}"}
                self.cycles.append((kind, stage_name(s), change))
        #: Cycles whose recomputed results are checked against a cold run.
        self.sampled = [
            next(i for i, c in enumerate(self.cycles) if c[0] == kind) for kind in ("leaf", "stage")
        ]

    def ensemble(self) -> Ensemble:
        ensemble = Ensemble("whatif")
        for s, stage_params in enumerate(self.stage_params):
            stage = ensemble.add(stage_name(s), ScenarioSpec(SCENARIO, stage_params, seed=s))
            for leaf, params in enumerate(self.leaf_params[s]):
                ensemble.add(
                    leaf_name(s, leaf),
                    ScenarioSpec(SCENARIO, params, seed=1000 + s * self.leaves + leaf),
                    deps=[stage],
                )
        return ensemble


def stage_name(s: int) -> str:
    return f"stage/{s:02d}"


def leaf_name(s: int, leaf: int) -> str:
    return f"leaf/{s:02d}/{leaf:02d}"


# -- the run --------------------------------------------------------------------------

class Session:
    """Stores, backend, spans and counters of one run."""

    def __init__(self, spans, scratch: str) -> None:
        self.spans = spans
        self.scratch = scratch
        self.backend = layers.backend_for(spans)
        self.counters = layers.Counters()

    def open_store(self) -> RunStore:
        return layers.open_store(tempfile.mkdtemp(prefix="store-", dir=self.scratch), self.spans)

    def run_ensemble(self, ensemble: Ensemble, store: RunStore):
        return layers.timed_run_ensemble(self.spans, self.counters, ensemble, store, self.backend)

    def cycle(self, base: Ensemble, store: RunStore, node: str, change: Dict[str, Any]):
        spans = self.spans
        with spans.span("delta.perturb"):
            target = perturb(base, params={node: change})
        with spans.span("delta.plan"):
            plan = plan_delta(target, store, base=base)
        with spans.span("delta.execute"):
            outcome = execute_plan(plan, store, backend=self.backend)
        with spans.span("delta.read"):
            results = {name: outcome.result(name) for name in plan.cone}
        with spans.span("delta.diff"):
            diff = diff_timelines(store, base, target)
        self.counters.task_seconds += layers.node_seconds(outcome)
        return target, plan, outcome, results, diff


def run(
    seed: int,
    seconds: float,
    spans,
    scale: float = 1.0,
    corrupt: Optional[str] = None,
) -> Dict[str, Any]:
    inputs = Inputs(seed, seconds, scale)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="whatif-", dir=OUT_DIR)
    try:
        return _run(inputs, spans, Session(spans, scratch), corrupt)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(inputs: Inputs, spans, session: Session, corrupt: Optional[str]) -> Dict[str, Any]:
    speed = Speed()
    setups, setup_walls, setup_mids = [], [], []
    for _ in range(SETUPS):
        speed.sample(SETUP_SAMPLES)
        started, cpu_started = time.perf_counter(), time.thread_time()
        ensemble = inputs.ensemble()
        store = session.open_store()
        setups.append(time.thread_time() - cpu_started)
        setup_walls.append(time.perf_counter() - started)
        setup_mids.append(started + setup_walls[-1] / 2)
    speed.sample(SETUP_SAMPLES)
    nodes = len(ensemble)

    failed = 0
    op_id = 0
    sweep_s: List[float] = []
    reload_s: List[float] = []
    reload_cpu: List[float] = []
    checks: List[dict] = []
    base_prints: Dict[str, str] = {}
    bytes_per_node = 0.0
    for sweep in range(SWEEPS):
        if sweep:
            store = session.open_store()
        for kind in ("sweep",) + ("reload",) * RELOADS:
            # Free the previous outcome here, not inside the next op's timing.
            outcome = None
            started = time.perf_counter()
            cpu_started = user_cpu_s()
            try:
                with spans.op_span(op_id, f"op.{kind}"):
                    outcome = session.run_ensemble(ensemble, store)
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                outcome = None
            (sweep_s if kind == "sweep" else reload_s).append(time.perf_counter() - started)
            if kind == "reload":
                reload_cpu.append(user_cpu_s() - cpu_started)
            op_id += 1
            prints = outcome.fingerprints() if outcome is not None else {}
            if kind == "sweep":
                # A cold sweep into an empty store runs every node.
                ok = outcome is not None and outcome.ok and outcome.nodes_run == nodes
                base_prints = prints
            else:
                if corrupt == "reload":
                    prints = dict(prints, **{stage_name(0): "0" * 64})
                ok = outcome is not None and outcome.nodes_cached == nodes
                ok = ok and prints == base_prints
                checks.append({"name": f"whatif.reload{len(checks)}", "ok": ok})
            failed += not ok
        if sweep == 0:
            entries, total = store.summary()
            bytes_per_node = total / entries

    cycle_s: Dict[str, List[float]] = {"leaf": [], "stage": []}
    every: List[float] = []
    cpu: List[float] = []
    mids: List[float] = []
    recomputed = useful = 0
    fractions: List[float] = []
    sampled: Dict[int, Tuple[Ensemble, Dict[str, str]]] = {}
    for i, (kind, node, change) in enumerate(inputs.cycles):
        # Free the previous cycle here, not inside the next op's timing.
        target = plan = outcome = results = _diff = None
        speed.sample()
        started = time.perf_counter()
        cpu_started = user_cpu_s()
        try:
            with spans.op_span(op_id, f"op.{kind}"):
                target, plan, outcome, results, _diff = session.cycle(
                    ensemble, store, node, change
                )
            ok = outcome.ok and len(results) == plan.nodes_recomputed
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            ok, results = False, {}
        elapsed = time.perf_counter() - started
        cpu.append(user_cpu_s() - cpu_started)
        op_id += 1
        failed += not ok
        cycle_s[kind].append(elapsed)
        every.append(elapsed)
        mids.append(started + elapsed / 2)
        if not ok:
            continue
        prints = {name: result_fingerprint(value) for name, value in results.items()}
        recomputed += len(prints)
        useful += sum(1 for name, fp in prints.items() if fp != base_prints.get(name))
        fractions.append(plan.recompute_fraction)
        if i in inputs.sampled:
            sampled[i] = (target, prints)
    speed.sample()
    ref_cpu = [s * speed.scale(mid) for s, mid in zip(cpu, mids)]
    ref_setups = [s * speed.scale(mid) for s, mid in zip(setups, setup_mids)]
    rss = peak_rss_mb()
    if spans.enabled:
        layer_metrics = layers.span_metrics(spans, session.counters, session.backend)
        layer_metrics["scheduler.keys_ms"] = _keys_ms(ensemble)

    session.spans = NoSpans()
    checks.extend(_check_cycles(session, inputs, sampled, corrupt))
    attempted = len(sweep_s) + len(reload_s) + len(inputs.cycles)
    sweep_rate = nodes / percentile(sweep_s, 50)
    reload_rate = nodes / percentile(reload_s, 50)
    e2e = {
        "setup_cpu_s": metric(percentile(setups, 50), "s", len(setups)),
        "setup_wall_s": metric(percentile(setup_walls, 50), "s", len(setup_walls)),
        "peak_rss_mb": metric(rss, "MB", 1),
        "failed_frac": metric(failed / attempted, "ratio", attempted),
        "sweep_nodes_per_s": metric(sweep_rate, "1/s", len(sweep_s)),
        "reload_nodes_per_s": metric(reload_rate, "1/s", len(reload_s)),
    }
    e2e.update(latency_metrics("whatif", every))
    e2e.update(latency_metrics("whatif_cpu", cpu))
    e2e["reload_nodes_per_cpu_s"] = metric(
        nodes / percentile(reload_cpu, 50), "1/s", len(reload_cpu)
    )
    per_layer = {
        "whatif.leaf_ms": metric(percentile(cycle_s["leaf"], 50) * 1e3, "ms", len(cycle_s["leaf"])),
        "whatif.stage_ms": metric(
            percentile(cycle_s["stage"], 50) * 1e3, "ms", len(cycle_s["stage"])
        ),
        "delta.recompute_frac": metric(float(np.mean(fractions)), "ratio", len(fractions)),
        "delta.useful_frac": metric(useful / max(recomputed, 1), "ratio", recomputed),
        "store.bytes_per_node": metric(bytes_per_node, "B", 1),
        "exec.task_ms": metric(session.counters.task_seconds * 1e3, "ms", 1),
        "bench.host_speed": speed.metric(),
    }
    if spans.enabled:
        per_layer.update(layer_metrics)
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "e2e": e2e,
        # The rate is what-if cycles per CPU-second: reloads are mostly
        # store IO, whose CPU time followed the disk's state (see README.md).
        "generic": gated_metrics(
            ref_setups, rss, ref_cpu, (len(ref_cpu) / sum(ref_cpu), len(ref_cpu))
        ),
        "layers": per_layer,
        "timed_wall_s": sum(sweep_s) + sum(reload_s) + sum(every),
        "timed_cpu_s": sum(ref_cpu),
    }


def _check_cycles(session: Session, inputs: Inputs, sampled, corrupt: Optional[str]) -> List[dict]:
    """Sampled cycles: recomputed results equal a cold run into a fresh store."""
    checks = []
    for i in inputs.sampled:
        kind = inputs.cycles[i][0]
        if i not in sampled:
            checks.append({"name": f"whatif.cycle_{kind}", "ok": False})
            continue
        target, prints = sampled[i]
        # No store: the oracle run writes nothing, so it leaves the disk
        # as the timed phase found it.
        cold = run_ensemble(target).fingerprints()
        if corrupt == kind:
            name = next(iter(prints))
            prints = dict(prints, **{name: "0" * 64})
        ok = bool(prints) and all(cold.get(name) == fp for name, fp in prints.items())
        checks.append({"name": f"whatif.cycle_{kind}", "ok": bool(ok)})
    return checks


def _keys_ms(ensemble: Ensemble) -> Dict[str, Any]:
    """``compute_run_keys`` over the whole sweep, median of five calls."""
    keys = []
    for _ in range(5):
        started = time.perf_counter()
        compute_run_keys(ensemble)
        keys.append(time.perf_counter() - started)
    return metric(percentile(keys, 50) * 1e3, "ms", len(keys))
