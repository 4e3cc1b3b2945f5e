"""Tests for repro.ensemble: specs, the run store, and the scheduler.

The acceptance surface of the ensemble ISSUE: run keys are stable under
dict reordering and numpy re-typing and move when the schema version
moves; a warm store serves an unchanged ensemble with *zero*
re-executions, byte-identical to the cold run, on every backend; a
branched ensemble recomputes only its post-branch nodes; an injected
node failure is retried per :mod:`repro.faults` and an exhausted node
marks its descendants skipped with a terminal report instead of
crashing the run.

Scenario callables live at module level so they pickle for the process
backend.  CI runs this file under an ambient ``REPRO_FAULTS`` plan, so
tests that assert exact retry counts pin their own plan (or ``None``)
via :func:`repro.faults.injected`.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.delta import MaterializedView, perturb
from repro.ensemble import (
    STORE_SCHEMA_VERSION,
    Ensemble,
    EnsembleNode,
    EnsembleResult,
    RunStore,
    ScenarioSpec,
    canonical_json,
    canonical_params,
    compute_run_keys,
    current_node_context,
    normalize_result,
    register_scenario,
    registered_scenarios,
    result_fingerprint,
    run_ensemble,
    run_key,
    scenario_qualname,
)
from repro.ensemble.scenarios import (
    composite_caching_ensemble,
    epidemic_branching_ensemble,
    response_sweep_ensemble,
)
from repro.ensemble.store import decode_result, encode_result
from repro.errors import SimulationError
from repro.faults import FaultPlan, RetryPolicy, injected

BACKENDS = ("serial", "process")

#: numpy's variable-width string dtype (numpy >= 2), which holds objects.
STRING_DTYPE = getattr(getattr(np, "dtypes", None), "StringDType", None)

REPO_ROOT = Path(__file__).resolve().parents[1]


# -- module-level scenarios (picklable for the process backend) --------------

def double_scenario(params, seed, upstream):
    dep = params.get("upstream_node")
    base = upstream[dep]["value"] if dep else 0
    return {"value": (params.get("x", 0) + base) * 2, "seed": seed}


def array_scenario(params, seed, upstream):
    rng = np.random.default_rng(seed)
    return {
        "curve": rng.normal(size=int(params.get("n", 5))),
        "total": float(params.get("n", 5)),
    }


def flaky_scenario(params, seed, upstream):
    return {"ok": True, "x": params.get("x", 0)}


def always_fails(params, seed, upstream):
    raise SimulationError("scenario is broken on purpose")


def object_array_scenario(params, seed, upstream):
    return {"labels": np.array(["a", 1], dtype=object)}


def context_probe(params, seed, upstream):
    context = current_node_context()
    return {
        "has_context": context is not None,
        "has_checkpoint_dir": bool(context and context.checkpoint_dir),
    }


register_scenario("test.double", double_scenario)
register_scenario("test.array", array_scenario)
register_scenario("test.flaky", flaky_scenario)
register_scenario("test.always_fails", always_fails)
register_scenario("test.object_array", object_array_scenario)
register_scenario("test.context_probe", context_probe)


def chain(depth=3, scenario="test.double", x=1):
    """A linear DAG n0 -> n1 -> ... (each consuming its predecessor)."""
    ensemble = Ensemble("chain")
    prev = None
    for i in range(depth):
        params = {"x": x + i}
        if prev is not None:
            params["upstream_node"] = prev
        name = f"n{i}"
        deps = (prev,) if prev else ()
        ensemble.add(name, ScenarioSpec(scenario, params, seed=5), deps=deps)
        prev = name
    return ensemble


# ---------------------------------------------------------------------------
# Canonical params and run-key stability (regression tests)
# ---------------------------------------------------------------------------

class TestCanonicalization:
    def test_dict_ordering_is_invisible(self):
        a = {"beta": 0.5, "gamma": 0.1, "nested": {"x": 1, "y": 2}}
        b = {"nested": {"y": 2, "x": 1}, "gamma": 0.1, "beta": 0.5}
        assert canonical_json(a) == canonical_json(b)
        assert run_key("f", a, 0) == run_key("f", b, 0)

    def test_numpy_scalars_equal_python_scalars(self):
        py = {"rate": 0.25, "count": 7, "flag": True}
        npy = {
            "rate": np.float64(0.25),
            "count": np.int64(7),
            "flag": np.bool_(True),
        }
        assert canonical_params(npy) == canonical_params(py)
        assert run_key("f", npy, 0) == run_key("f", py, 0)

    def test_arrays_and_tuples_collapse_to_lists(self):
        assert canonical_params((1, 2, 3)) == [1, 2, 3]
        assert canonical_params(np.array([1.0, 2.0])) == [1.0, 2.0]
        assert run_key("f", {"xs": (1, 2)}, 0) == run_key(
            "f", {"xs": np.array([1, 2])}, 0
        )

    def test_schema_version_changes_key(self):
        params = {"x": 1}
        assert run_key("f", params, 0) != run_key(
            "f", params, 0, schema_version=STORE_SCHEMA_VERSION + 1
        )

    def test_seed_qualname_params_upstream_all_participate(self):
        base = run_key("f", {"x": 1}, 0)
        assert run_key("f", {"x": 1}, 1) != base
        assert run_key("g", {"x": 1}, 0) != base
        assert run_key("f", {"x": 2}, 0) != base
        assert run_key("f", {"x": 1}, 0, upstream={"dep": "a" * 64}) != base
        assert run_key("f", {"x": 1}, 0, upstream={"dep": "b" * 64}) != run_key(
            "f", {"x": 1}, 0, upstream={"dep": "a" * 64}
        )

    def test_non_finite_and_non_string_keys_rejected(self):
        with pytest.raises(SimulationError):
            canonical_params({"x": float("nan")})
        with pytest.raises(SimulationError):
            canonical_params({"x": float("inf")})
        with pytest.raises(SimulationError):
            canonical_params({1: "x"})
        with pytest.raises(SimulationError):
            canonical_params({"x": object()})

    def test_spec_canonicalizes_on_construction(self):
        spec = ScenarioSpec(
            "test.double", {"b": np.float64(2.0), "a": (1, 2)}, np.int64(3)
        )
        assert spec.params == {"a": [1, 2], "b": 2.0}
        assert spec.seed == 3 and isinstance(spec.seed, int)
        assert spec.with_params(a=[9]).params == {"a": [9], "b": 2.0}

    def test_registry_rejects_rebinding(self):
        register_scenario("test.double", double_scenario)  # idempotent
        with pytest.raises(SimulationError):
            register_scenario("test.double", array_scenario)
        assert "test.double" in registered_scenarios()
        assert scenario_qualname("test.double").endswith("double_scenario")


# ---------------------------------------------------------------------------
# Ensemble DAG construction
# ---------------------------------------------------------------------------

class TestEnsembleDag:
    def test_add_rejects_forward_refs_and_duplicates(self):
        ensemble = Ensemble()
        ensemble.add("a", ScenarioSpec("test.double"))
        with pytest.raises(SimulationError):
            ensemble.add("a", ScenarioSpec("test.double"))
        with pytest.raises(SimulationError):
            ensemble.add("b", ScenarioSpec("test.double"), deps=("missing",))
        with pytest.raises(SimulationError):
            ensemble.branch("missing", "b", ScenarioSpec("test.double"))

    def test_waves_are_topological_levels(self):
        ensemble = Ensemble()
        ensemble.add("a", ScenarioSpec("test.double"))
        ensemble.add("b", ScenarioSpec("test.double"))
        ensemble.add("c", ScenarioSpec("test.double"), deps=("a", "b"))
        ensemble.branch("c", "d", ScenarioSpec("test.double"))
        waves = [[n.name for n in wave] for wave in ensemble.waves()]
        assert waves == [["a", "b"], ["c"], ["d"]]
        assert [n.name for n in ensemble.topological_order()] == [
            "a", "b", "c", "d",
        ]

    def test_cycle_detection(self):
        ensemble = chain(2)
        # Corrupt the DAG under the hood; public `add` can't build cycles.
        node = ensemble._nodes["n0"]
        ensemble._nodes["n0"] = type(node)(node.name, node.spec, ("n1",))
        with pytest.raises(SimulationError, match="unsatisfiable"):
            ensemble.topological_order()

    def test_sweep_constructors(self):
        lh = Ensemble.latin_hypercube(
            "test.flaky", {"x": (0.0, 1.0), "y": (-1.0, 1.0)},
            runs=4, seed=2, name="sweep",
        )
        assert len(lh) == 4
        names = [node.name for node in lh.nodes()]
        assert names == ["sweep/000", "sweep/001", "sweep/002", "sweep/003"]
        for node in lh.nodes():
            assert 0.0 <= node.spec.params["x"] <= 1.0
            assert -1.0 <= node.spec.params["y"] <= 1.0
            assert node.spec.seed == 2
        fact = Ensemble.factorial("test.flaky", {"x": (0.0, 1.0)})
        assert sorted(n.spec.params["x"] for n in fact.nodes()) == [0.0, 1.0]
        with pytest.raises(SimulationError):
            Ensemble.from_design("test.flaky", ["x"], np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# Run keys: pinned bytes, and cached/incremental derivation
# ---------------------------------------------------------------------------

def golden_dag():
    """A fixed DAG: numpy-scalar, tuple and nested-dict params, a branch."""
    dag = Ensemble("golden")
    dag.add(
        "root",
        ScenarioSpec(
            "test.double",
            {"x": np.int64(3), "rate": np.float64(0.25)},
            seed=7,
        ),
    )
    dag.add(
        "mid",
        ScenarioSpec(
            "test.double",
            {
                "x": 1,
                "window": (2, 4),
                "opts": {"mode": "fast", "grid": {"lo": -1.5, "hi": 2}},
                "upstream_node": "root",
            },
            seed=7,
        ),
        deps=("root",),
    )
    dag.branch("root", "alt", ScenarioSpec("test.array", {"n": 4}, seed=9))
    dag.add(
        "join",
        ScenarioSpec("test.double", {"x": 2, "upstream_node": "mid"}),
        deps=("mid", "alt"),
    )
    return dag


#: Keys of ``golden_dag()`` and of its copy with ``mid.x = 5``.  A change
#: here orphans every entry of every existing on-disk store.
GOLDEN_KEYS = {
    "root": "8382374b6466451a901563633975d10396e7c472c33fadf956133d6da88d2846",
    "mid": "d0ab3efeb30fabc70c9067b98dbb21d352feba706b1ded1884b79b93893df9a9",
    "alt": "571eb34051f7acace87be34251ba8d2605d7be12fe592e4314d0383d02fd3f62",
    "join": "7e350010f23d1a34af96503caeb01a31aa18e8dcc5d940df418291366488f30c",
}
GOLDEN_PERTURBED_KEYS = dict(
    GOLDEN_KEYS,
    mid="5b3899a40ccb3c014647865369c6344af5867127da7268b99be06e6619aabd94",
    join="0be9d54cb323b7f846c4ccd274928325d5e79f3470db4172681e7bfc52486366",
)


def rebuilt(ensemble):
    """The same ensemble added node by node: nothing cached or shared."""
    copy = Ensemble(ensemble.name)
    for node in ensemble.nodes():
        copy.add(node.name, node.spec, deps=node.deps)
    return copy


@st.composite
def dags(draw):
    """Random DAGs: up to 30 nodes with at most 3 deps each."""
    ensemble = Ensemble("random")
    names = []
    for i in range(draw(st.integers(1, 30))):
        deps = draw(
            st.lists(st.sampled_from(names), max_size=3, unique=True)
        ) if names else []
        spec = ScenarioSpec(
            "test.flaky", {"x": draw(st.integers(0, 3))}, seed=i % 3
        )
        names.append(ensemble.add(f"n{i}", spec, deps=deps))
    return ensemble


class TestRunKeys:
    def test_golden_keys_do_not_move(self):
        dag = golden_dag()
        assert compute_run_keys(dag) == GOLDEN_KEYS
        moved = perturb(dag, params={"mid": {"x": 5}})
        assert compute_run_keys(moved) == GOLDEN_PERTURBED_KEYS

    def test_golden_keys_of_a_copy_made_before_its_parent_was_keyed(self):
        dag = golden_dag()
        moved = perturb(dag, params={"mid": {"x": 5}})
        assert compute_run_keys(moved) == GOLDEN_PERTURBED_KEYS
        assert compute_run_keys(dag) == GOLDEN_KEYS

    @given(base=dags(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_incremental_derivation_equals_a_rebuild(self, base, data):
        """Keys, order and waves of perturb chains equal a rebuild's."""
        chain_ = [base]
        for step in range(data.draw(st.integers(1, 4), label="perturbs")):
            parent = chain_[-1]
            if data.draw(st.booleans(), label="key parent first"):
                compute_run_keys(parent)
            names = [node.name for node in parent.nodes()]
            changes = {}
            for name in data.draw(
                st.lists(st.sampled_from(names), min_size=1, max_size=3,
                         unique=True),
                label="perturbed nodes",
            ):
                if name in base and data.draw(st.booleans(), label="restore"):
                    changes[name] = {"x": base.node(name).spec.params["x"]}
                else:
                    changes[name] = {"x": data.draw(st.integers(0, 9))}
            child = perturb(parent, params=changes)
            if data.draw(st.booleans(), label="key copy before add"):
                compute_run_keys(child)
            if data.draw(st.booleans(), label="add after perturb"):
                deps = data.draw(
                    st.lists(st.sampled_from(names), max_size=3, unique=True)
                )
                grown = data.draw(st.sampled_from([child, parent]))
                grown.add(
                    f"extra{step}",
                    ScenarioSpec("test.flaky", {"x": step}),
                    deps=deps,
                )
            chain_.append(child)
        for ensemble in reversed(chain_):
            fresh = rebuilt(ensemble)
            expected = compute_run_keys(fresh)
            keys = compute_run_keys(ensemble)
            assert keys == expected
            assert ensemble.topological_order() == fresh.topological_order()
            assert ensemble.waves() == fresh.waves()
            # Results are copies: mutating them cannot poison the caches.
            poison = EnsembleNode("poison", ScenarioSpec("test.flaky"))
            keys[next(iter(keys))] = "0" * 64
            ensemble.topological_order()[0] = poison
            waves = ensemble.waves()
            waves[0][0] = poison
            waves[-1] = [poison]
            assert compute_run_keys(ensemble) == expected
            assert ensemble.topological_order() == fresh.topological_order()
            assert ensemble.waves() == fresh.waves()

    def test_racing_derivations_agree(self):
        """Unlocked caches: threads racing on one derivation agree."""
        base = Ensemble("wide")
        for i in range(120):
            deps = [f"n{j}" for j in (i - 1, i // 2) if 0 <= j < i]
            base.add(
                f"n{i}", ScenarioSpec("test.flaky", {"x": i}),
                deps=sorted(set(deps)),
            )
        copies = [base]
        for step in range(3):
            copies.append(perturb(copies[-1], params={f"n{step}": {"x": -1}}))
        expected = [compute_run_keys(rebuilt(copy)) for copy in copies]
        orders = [rebuilt(copy).topological_order() for copy in copies]
        seen = []

        def derive(offset):
            for step in range(len(copies)):
                index = (step + offset) % len(copies)
                copy = copies[index]
                seen.append(
                    (index, compute_run_keys(copy), copy.topological_order())
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=derive, args=(offset,))
                for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 * len(copies)
        for index, keys, order in seen:
            assert keys == expected[index]
            assert order == orders[index]

    def test_keyed_copy_releases_its_parent(self):
        base = chain(3)
        copy = perturb(base, params={"n1": {"x": 9}})
        parent = weakref.ref(base)
        del base
        gc.collect()
        assert parent() is not None  # held until the copy is keyed
        compute_run_keys(copy)
        gc.collect()
        assert parent() is None
        assert compute_run_keys(copy) == compute_run_keys(rebuilt(copy))

    def test_view_refreshes_release_earlier_definitions(self, tmp_path):
        view = MaterializedView(chain(3), RunStore(tmp_path))
        first = weakref.ref(view.ensemble)
        with injected(None):
            view.build()
            for x in (7, 8, 9):
                assert view.refresh(params={"n1": {"x": x}}).ok
        gc.collect()
        assert first() is None
        assert compute_run_keys(view.ensemble) == \
            compute_run_keys(rebuilt(view.ensemble))


# ---------------------------------------------------------------------------
# The run store
# ---------------------------------------------------------------------------

class TestRunStore:
    def test_round_trip_is_byte_identical(self, tmp_path):
        store = RunStore(tmp_path)
        key = run_key("f", {"x": 1}, 0)
        original = {
            "curve": np.arange(6, dtype=np.float32).reshape(2, 3),
            "stats": {"mean": np.float64(2.5), "n": np.int32(6)},
            "tags": ("a", "b"),
        }
        put_back = store.put(key, original, scenario="f", seed=0)
        got = store.get(key)
        assert result_fingerprint(got) == result_fingerprint(original)
        assert result_fingerprint(put_back) == result_fingerprint(got)
        assert got["curve"].dtype == np.float32
        assert got["stats"] == {"mean": 2.5, "n": 6}
        assert got["tags"] == ["a", "b"]
        assert store.stats.as_dict() == {
            "hits": 1, "misses": 0, "puts": 1, "evictions": 0,
        }

    def test_miss_then_hit_accounting(self, tmp_path):
        store = RunStore(tmp_path)
        key = run_key("f", {}, 0)
        assert store.get(key) is None
        assert not store.contains(key)
        store.put(key, {"v": 1})
        assert store.contains(key)
        assert store.get(key) == {"v": 1}
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_put_is_atomic_and_race_tolerant(self, tmp_path):
        store = RunStore(tmp_path)
        key = run_key("f", {"x": 1}, 0)
        store.put(key, {"v": 1})
        store.put(key, {"v": 1})  # losing the commit race is harmless
        assert store.get(key) == {"v": 1}
        # A failed put leaves no entry, whole or partial.
        bad_key = run_key("f", {"x": 2}, 0)
        with pytest.raises(SimulationError):
            store.put(bad_key, {"v": object()})
        assert not store.contains(bad_key)
        assert store.get(bad_key) is None

    def test_the_first_commit_of_a_key_wins(self, tmp_path):
        """A commit never replaces an entry: a later ``put`` of the key
        returns its own normalized result, leaves the stored one in
        place and nothing in ``tmp/``."""
        store = RunStore(tmp_path)
        key = run_key("f", {"x": 1}, 0)
        store.put(key, {"v": np.arange(3)})
        assert store.put(key, {"v": (2,)}) == {"v": [2]}
        for view in (store, RunStore(tmp_path)):
            np.testing.assert_array_equal(view.get(key)["v"], np.arange(3))
        assert os.listdir(store._scratch_dir()) == []
        assert store.stats.puts == 2

    def test_malformed_key_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(SimulationError):
            store.get("../../etc/passwd")
        with pytest.raises(SimulationError):
            store.put("short", {})

    @pytest.mark.parametrize("reopened", [False, True])
    @pytest.mark.parametrize("bad", ["A", "/", ".", " ", "\n", "\u0663"])
    def test_one_bad_character_in_a_full_length_key_rejected(
        self, tmp_path, bad, reopened
    ):
        """A 64-character key must be all lowercase hex: it names a path.

        ``reopened`` asks a second instance over a root that already
        holds an entry, which must reject the same keys and add nothing.
        """
        good = run_key("f", {"x": 1}, 0)
        store = RunStore(tmp_path)
        if reopened:
            store.put(good, {"v": 0})
            store = RunStore(tmp_path)
        operations = {
            "get": store.get,
            "put": lambda key: store.put(key, {"v": 1}),
            "contains": store.contains,
            "evict": store.evict,
        }
        for position in (0, 32, 63):
            key = good[:position] + bad + good[position + 1:]
            assert len(key) == 64
            for name, operation in operations.items():
                with pytest.raises(SimulationError, match="malformed"):
                    operation(key)
        assert [entry.key for entry in store.ls()] == [good] * reopened
        assert store.contains_many([good]) == [reopened]

    def test_ls_oldest_first_and_gc(self, tmp_path):
        store = RunStore(tmp_path)
        keys = [run_key("f", {"x": i}, 0) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"x": i}, scenario="f", seed=0)
            os.utime(store._entry_path(key), (1000.0 + i, 1000.0 + i))
        listed = store.ls()
        assert [entry.key for entry in listed] == keys
        assert all(entry.scenario == "f" for entry in listed)
        # Age: evict everything strictly older than the newest entry.
        evicted = store.gc(max_age_seconds=0.5, now=1002.0)
        assert evicted == keys[:2]
        # Size: evicting oldest-first until under the byte bound.
        evicted = store.gc(max_total_bytes=0)
        assert evicted == [keys[2]]
        assert store.ls() == [] and store.total_bytes() == 0
        assert store.stats.evictions == 3

    def test_evict_removes_chain_checkpoint(self, tmp_path):
        store = RunStore(tmp_path)
        key = run_key("f", {}, 0)
        store.put(key, {"v": 1})
        checkpoint = Path(store.checkpoint_dir()) / f"{key}.ckpt"
        checkpoint.write_bytes(b"stub")
        assert store.evict(key)
        assert not checkpoint.exists()
        assert not store.evict(key)

    def test_gc_sweeps_scratch_debris(self, tmp_path):
        import time as _time

        store = RunStore(tmp_path)
        debris = Path(store._scratch_dir()) / "crashed-put"
        debris.write_text("{}")
        stale = _time.time() - 3600.0
        os.utime(debris, (stale, stale))
        # A fresh stage — a concurrent in-flight put — survives.
        inflight = Path(store._scratch_dir()) / "inflight-put"
        inflight.write_text("{}")
        assert store.gc() == []
        assert not debris.exists()
        assert inflight.exists()
        # Shrinking the age gate sweeps the remaining stage too.
        minute_ago = _time.time() - 60.0
        os.utime(inflight, (minute_ago, minute_ago))
        assert store.gc() == []
        assert inflight.exists()
        assert store.gc(scratch_age_seconds=30.0) == []
        assert not inflight.exists()

    def test_normalize_matches_store_normal_form(self):
        raw = {"a": (1, np.int64(2)), "b": np.float32(1.5)}
        normal = normalize_result(raw)
        assert normal == {"a": [1, 2], "b": 1.5}
        tree, arrays = encode_result(raw)
        assert decode_result(tree, arrays) == normal

    def test_encode_rejects_marker_collision(self):
        with pytest.raises(SimulationError):
            encode_result({"__npz__": "x"})

    def test_round_trip_keeps_every_leaf_kind(self, tmp_path):
        """Arrays of every persisted kind and layout, non-finite scalars
        and nested containers read back as ``put`` returned them.  Keys
        are out of sorted order: a read must keep the result's order,
        or its arrays would be numbered, and fingerprinted, differently
        from the cold result's."""
        store = RunStore(tmp_path)
        key = run_key("f", {"kinds": 1}, 0)
        grid = np.arange(12, dtype=np.float64).reshape(3, 4)
        original = {
            "zero_d": np.array(7, dtype=np.int16),
            "floats": grid,
            "empty": np.zeros((0, 3), dtype=np.float32),
            "strided": grid[:, ::2],
            "fortran": np.asfortranarray(grid.astype(np.int64)),
            "flags": np.array([True, False, True]),
            "text": np.array(["\u03b1", "beta", ""]),
            "nan": float("nan"),
            "inf": np.float64(-np.inf),
            "nested": {
                "b": [1, [2.5, {"c": np.arange(3, dtype=np.uint8)}]],
                "a": ("x", None, True),
            },
        }
        assert not original["strided"].flags.contiguous
        assert original["fortran"].flags.f_contiguous
        put_back = store.put(key, original)
        got = RunStore(tmp_path).get(key)
        assert result_fingerprint(got) == result_fingerprint(original)
        assert result_fingerprint(got) == result_fingerprint(put_back)

        def arrays(value, path="$"):
            if isinstance(value, np.ndarray):
                yield path, value
            elif isinstance(value, dict):
                for name, item in value.items():
                    yield from arrays(item, f"{path}.{name}")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    yield from arrays(item, f"{path}[{i}]")

        expected = list(arrays(put_back))
        assert [path for path, _ in arrays(got)] == [path for path, _ in expected]
        for (path, array), (_, reference) in zip(arrays(got), expected):
            assert array.dtype == reference.dtype, path
            assert array.shape == reference.shape, path
            assert array.flags.writeable == reference.flags.writeable, path
            np.testing.assert_array_equal(array, reference)
        assert np.isnan(got["nan"]) and got["inf"] == -np.inf
        assert got["nested"]["a"] == ["x", None, True]

    @pytest.mark.parametrize(
        "dtype",
        [
            object,
            [("label", object), ("x", "f8")],
            pytest.param(
                STRING_DTYPE and STRING_DTYPE(),
                marks=pytest.mark.skipif(
                    STRING_DTYPE is None, reason="numpy has no StringDType"
                ),
            ),
        ],
        ids=["object", "record", "string"],
    )
    def test_arrays_holding_objects_are_refused_before_staging(
        self, tmp_path, dtype
    ):
        """numpy persists an array holding Python objects only by
        pickling, which the store never reads back: ``put`` refuses it
        like any other value it cannot persist, stages nothing and
        leaves the key absent."""
        store = RunStore(tmp_path)
        key = run_key("f", {"objects": 1}, 0)
        value = {"labels": np.zeros(2, dtype=dtype)}
        with pytest.raises(SimulationError, match="without pickling"):
            store.put(key, value)
        with pytest.raises(SimulationError, match="without pickling"):
            normalize_result(value)
        assert not store.contains(key)
        assert os.listdir(store._scratch_dir()) == []

    @pytest.mark.parametrize(
        "scalar",
        [
            np.datetime64("2020-01-01"),
            np.timedelta64(5, "s"),
            np.complex128(1 + 2j),
            np.bytes_(b"x"),
        ],
        ids=["datetime64", "timedelta64", "complex128", "bytes_"],
    )
    def test_scalars_whose_item_json_cannot_hold_are_refused(
        self, tmp_path, scalar
    ):
        """``item()`` turns these into ``date``, ``timedelta``,
        ``complex`` and ``bytes``: the normal form refuses them as
        ``put`` does, so a run fails with or without a store."""
        store = RunStore(tmp_path)
        key = run_key("f", {"scalar": 1}, 0)
        value = {"t": scalar}
        with pytest.raises(SimulationError, match="cannot persist"):
            normalize_result(value)
        with pytest.raises(SimulationError, match="cannot persist"):
            store.put(key, value)
        assert not store.contains(key)
        assert os.listdir(store._scratch_dir()) == []
        # NaT reads back as NULL.
        assert normalize_result({"t": np.datetime64("NaT")}) == {"t": None}

    @pytest.mark.parametrize(
        "bound",
        [
            {"max_total_bytes": -1},
            {"max_age_seconds": -5},
            {"max_total_bytes": float("nan")},
            {"max_age_seconds": float("nan")},
            {"scratch_age_seconds": -1},
        ],
        ids=lambda bound: "=".join(map(str, next(iter(bound.items())))),
    )
    def test_gc_refuses_a_negative_or_nan_bound(self, tmp_path, bound):
        store = RunStore(tmp_path)
        keys = [run_key("f", {"x": i}, 0) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"x": i})
        stage = Path(store._scratch_dir()) / "inflight-put"
        stage.write_text("{}")
        with pytest.raises(SimulationError, match="must be >= 0"):
            store.gc(**bound)
        assert sorted(entry.key for entry in store.ls()) == sorted(keys)
        assert stage.exists()
        assert store.stats.evictions == 0

    def test_a_run_returning_an_object_array_fails_cold_and_warm(self, tmp_path):
        """The run fails the same way every time, rather than running
        cold and poisoning its key for every warm run."""
        ensemble = Ensemble("objects")
        ensemble.add("n0", ScenarioSpec("test.object_array", {}, seed=0))
        store = RunStore(tmp_path)
        for _ in range(2):
            with injected(None), pytest.raises(SimulationError, match="pickling"):
                run_ensemble(ensemble, store=store, backend="serial")
        assert store.ls() == []


# ---------------------------------------------------------------------------
# Scheduler: caching, branching, recovery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
class TestWarmStoreAcceptance:
    def test_warm_rerun_is_zero_recompute_and_byte_identical(
        self, tmp_path, backend
    ):
        store = RunStore(tmp_path)
        with injected(None):
            cold = run_ensemble(chain(3), store=store, backend=backend)
            warm = run_ensemble(chain(3), store=store, backend=backend)
        cold.raise_if_failed()
        assert cold.nodes_run == 3 and cold.nodes_cached == 0
        assert warm.nodes_run == 0 and warm.nodes_cached == warm.nodes
        assert warm.fingerprints() == cold.fingerprints()
        assert warm.store_stats["hits"] == warm.nodes
        assert warm.results["n2"]["value"] == cold.results["n2"]["value"]

    def test_array_results_identical_across_cold_and_warm(
        self, tmp_path, backend
    ):
        ensemble = Ensemble("arrays")
        ensemble.add("a", ScenarioSpec("test.array", {"n": 8}, seed=3))
        store = RunStore(tmp_path)
        with injected(None):
            cold = run_ensemble(ensemble, store=store, backend=backend)
            warm = run_ensemble(ensemble, store=store, backend=backend)
        assert isinstance(warm.results["a"]["curve"], np.ndarray)
        assert warm.fingerprints() == cold.fingerprints()

    def test_node_failure_is_retried_and_result_unperturbed(
        self, tmp_path, backend
    ):
        plan = FaultPlan(failures={("ensemble.node", 0): 1})
        with injected(None):
            clean = run_ensemble(chain(3), backend=backend)
        faulty = run_ensemble(
            chain(3), store=RunStore(tmp_path), backend=backend, faults=plan
        )
        faulty.raise_if_failed()
        assert faulty.nodes_retried == 1
        assert faulty.reports["n0"].retried
        assert faulty.reports["n0"].attempts == 2
        assert faulty.fingerprints() == clean.fingerprints()


class TestSchedulerSemantics:
    def test_results_without_store_match_store_normal_form(self):
        with injected(None):
            bare = run_ensemble(chain(2))
        assert bare.store_stats is None
        assert bare.ok and bare.nodes_run == 2
        assert bare.results["n1"] == {"value": 8, "seed": 5}

    def test_branch_recomputes_only_post_branch_nodes(self, tmp_path):
        store = RunStore(tmp_path)
        base = Ensemble("base")
        base.add("prefix", ScenarioSpec("test.double", {"x": 1}, seed=5))
        base.branch(
            "prefix", "a",
            ScenarioSpec("test.double", {"x": 10, "upstream_node": "prefix"}),
        )
        with injected(None):
            first = run_ensemble(base, store=store)

            forked = Ensemble("forked")
            forked.add("prefix", ScenarioSpec("test.double", {"x": 1}, seed=5))
            forked.branch(
                "prefix", "a",
                ScenarioSpec(
                    "test.double", {"x": 10, "upstream_node": "prefix"}
                ),
            )
            forked.branch(
                "prefix", "b",
                ScenarioSpec(
                    "test.double", {"x": 99, "upstream_node": "prefix"}
                ),
            )
            second = run_ensemble(forked, store=store)
        assert first.ok and second.ok
        # Shared prefix and the unchanged branch come from the store;
        # only the genuinely new timeline executes.
        assert second.reports["prefix"].status == "cached"
        assert second.reports["a"].status == "cached"
        assert second.reports["b"].status == "run"
        assert second.nodes_run == 1

    def test_changed_prefix_invalidates_downstream(self, tmp_path):
        store = RunStore(tmp_path)
        with injected(None):
            run_ensemble(chain(3), store=store)
            moved = run_ensemble(chain(3, x=2), store=store)
        # Different root params shift every Merkle-folded downstream key.
        assert moved.nodes_run == 3 and moved.nodes_cached == 0

    def test_failed_node_marks_descendants_skipped(self):
        ensemble = Ensemble("doomed")
        ensemble.add("ok", ScenarioSpec("test.flaky"))
        ensemble.add("boom", ScenarioSpec("test.always_fails"))
        ensemble.branch("boom", "child", ScenarioSpec("test.flaky"))
        ensemble.branch("child", "grandchild", ScenarioSpec("test.flaky"))
        with injected(None):
            result = run_ensemble(ensemble)
        assert not result.ok
        assert result.reports["ok"].status == "run"
        assert result.reports["boom"].status == "failed"
        assert "broken on purpose" in result.reports["boom"].error
        for name in ("child", "grandchild"):
            assert result.reports[name].status == "skipped"
            assert result.reports[name].blocked_on == "boom"
        with pytest.raises(SimulationError, match="did not complete"):
            result.raise_if_failed()
        assert "boom" in result.render()

    def test_exhausted_retries_report_attempt_history(self):
        plan = FaultPlan(failures={("ensemble.node", 0): 9})
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
        result = run_ensemble(
            chain(2), faults=plan, retry=policy
        )
        assert result.reports["n0"].status == "failed"
        assert result.reports["n0"].attempts == 3
        assert "attempt" in result.reports["n0"].error
        assert result.reports["n1"].status == "skipped"

    def test_run_keys_pin_whole_timeline(self):
        keys = compute_run_keys(chain(3))
        assert set(keys) == {"n0", "n1", "n2"}
        assert len(set(keys.values())) == 3
        again = compute_run_keys(chain(3))
        assert keys == again

    def test_node_context_is_set_inside_scheduled_runs(self, tmp_path):
        ensemble = Ensemble("ctx")
        ensemble.add("probe", ScenarioSpec("test.context_probe"))
        with injected(None):
            stored = run_ensemble(ensemble, store=RunStore(tmp_path))
            bare = run_ensemble(ensemble)
        assert stored.results["probe"] == {
            "has_context": True, "has_checkpoint_dir": True,
        }
        assert bare.results["probe"]["has_checkpoint_dir"] is False
        assert current_node_context() is None

    def test_ensemble_obs_counters(self, tmp_path):
        observer = obs.enable()
        try:
            store = RunStore(tmp_path)
            with injected(None):
                run_ensemble(chain(2), store=store)
                run_ensemble(chain(2), store=store)
            counters = observer.metrics.snapshot()["values"]["counters"]
        finally:
            obs.disable()
        assert counters["ensemble.nodes"] == 4
        assert counters["ensemble.nodes_run"] == 2
        assert counters["ensemble.nodes_cached"] == 2
        assert counters["ensemble.store.hits"] == 2
        assert counters["ensemble.store.misses"] == 2
        assert counters["ensemble.store.puts"] == 2
        assert "ensemble.nodes_failed" not in counters

    def test_demo_ensembles_complete_quickly(self, tmp_path):
        with injected(None):
            for family in (
                composite_caching_ensemble,
                epidemic_branching_ensemble,
                response_sweep_ensemble,
            ):
                store = RunStore(tmp_path / family.__name__)
                result = run_ensemble(family(seed=0, quick=True), store=store)
                result.raise_if_failed()
                assert result.nodes_run == result.nodes
                # A warm rerun against its own store executes nothing and
                # serves every node byte-identically.
                warm = run_ensemble(family(seed=0, quick=True), store=store)
                warm.raise_if_failed()
                assert warm.nodes_run == 0
                assert warm.nodes_cached == warm.nodes == result.nodes
                assert warm.fingerprints() == result.fingerprints()

    def test_epidemic_prefix_checkpoint_lands_in_store(self, tmp_path):
        store = RunStore(tmp_path)
        with injected(None):
            result = run_ensemble(
                epidemic_branching_ensemble(quick=True), store=store
            )
        result.raise_if_failed()
        checkpoints = list(Path(store.checkpoint_dir()).glob("*.ckpt"))
        keys = {report.key for report in result.reports.values()}
        assert checkpoints, "chain prefix should persist its checkpoint"
        assert all(p.stem in keys for p in checkpoints)


class TestEnsembleResultApi:
    def test_counts_and_render(self):
        result = EnsembleResult(name="x")
        assert result.ok and result.nodes == 0
        assert "0 node(s)" in result.render()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULTS", None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=180,
    )


class TestEnsembleCli:
    def test_run_ls_gc_cycle(self, tmp_path):
        store = str(tmp_path / "store")
        cold = _run_cli(
            "ensemble", "run", "--demo", "sweep", "--quick", "--store", store
        )
        assert cold.returncode == 0, cold.stderr
        assert "run" in cold.stdout

        warm = _run_cli(
            "ensemble", "run", "--demo", "sweep", "--quick", "--store", store
        )
        assert warm.returncode == 0, warm.stderr
        assert "0 run" in warm.stdout and "cached" in warm.stdout

        listed = _run_cli("ensemble", "ls", "--store", store)
        assert listed.returncode == 0
        assert "response.surface" in listed.stdout

        swept = _run_cli("ensemble", "gc", "--store", store, "--max-bytes", "0")
        assert swept.returncode == 0 and "evicted" in swept.stdout
        empty = _run_cli("ensemble", "ls", "--store", store)
        assert "empty" in empty.stdout

    def test_gc_bounds_from_the_command_line(self, tmp_path):
        """``--max-age-days 0`` is a bound, so it evicts every run older
        than now; a negative bound is a usage error that evicts nothing."""
        root = tmp_path / "store"
        store = RunStore(root)
        for i in range(3):
            key = run_key("f", {"x": i}, 0)
            store.put(key, {"v": i})
            os.utime(store._entry_path(key), (1000.0, 1000.0))
        for flag, value in (("--max-bytes", "-1"), ("--max-age-days", "-0.5")):
            refused = _run_cli("ensemble", "gc", "--store", str(root), flag, value)
            assert refused.returncode == 2, (flag, refused.stderr)
            assert f"argument {flag}: must be >= 0, got {value}" in refused.stderr
            assert refused.stdout == ""
            assert RunStore(root).summary()[0] == 3
        swept = _run_cli("ensemble", "gc", "--store", str(root), "--max-age-days", "0")
        assert swept.returncode == 0, swept.stderr
        assert "evicted 3 run(s)" in swept.stdout
        assert RunStore(root).summary() == (0, 0)

    def test_store_env_var_default(self, tmp_path):
        store = str(tmp_path / "env-store")
        result = _run_cli(
            "ensemble", "run", "--demo", "sweep", "--quick",
            env_extra={"REPRO_ENSEMBLE_STORE": store},
        )
        assert result.returncode == 0, result.stderr
        assert os.path.isdir(os.path.join(store, "runs"))

    def test_help_epilog_lists_commands(self):
        result = _run_cli("--help")
        assert result.returncode == 0
        for command in ("tour", "obs-report", "ensemble"):
            assert command in result.stdout


def test_entry_header_on_disk_is_canonical(tmp_path):
    """The entry's first line is JSON with the schema + canonical params."""
    store = RunStore(tmp_path)
    spec = ScenarioSpec("test.double", {"b": 2, "a": 1}, seed=4)
    key = run_key(scenario_qualname("test.double"), spec.params, spec.seed)
    store.put(key, {"v": 1}, scenario=spec.scenario, params=spec.params,
              seed=spec.seed)
    header = Path(store._entry_path(key)).read_bytes().split(b"\n")[0]
    document = json.loads(header)
    assert document["schema"] == STORE_SCHEMA_VERSION
    assert document["key"] == key
    assert document["params"] == '{"a":1,"b":2}'
    assert document["seed"] == 4


class TestNestedBranching:
    def test_branch_of_branch_shares_each_prefix_level(self, tmp_path):
        """A 3-level timeline tree reuses every shared prefix level."""
        store = RunStore(tmp_path)

        def tree(with_grandchild=False):
            ensemble = Ensemble("tree")
            ensemble.add("root", ScenarioSpec("test.double", {"x": 1}, seed=5))
            ensemble.branch(
                "root", "child",
                ScenarioSpec("test.double", {"x": 10, "upstream_node": "root"}),
            )
            if with_grandchild:
                ensemble.branch(
                    "child", "grandchild",
                    ScenarioSpec(
                        "test.double", {"x": 100, "upstream_node": "child"}
                    ),
                )
            return ensemble

        with injected(None):
            first = run_ensemble(tree(), store=store)
            second = run_ensemble(tree(with_grandchild=True), store=store)
        assert first.ok and second.ok
        # Levels 1 and 2 are shared prefixes; only level 3 executes.
        assert second.reports["root"].status == "cached"
        assert second.reports["child"].status == "cached"
        assert second.reports["grandchild"].status == "run"
        assert second.nodes_run == 1
        # Each level folds its whole ancestry: values chain through.
        assert second.results["grandchild"]["value"] == \
            (100 + (10 + 1 * 2) * 2) * 2

    def test_sibling_branches_rekey_independently(self, tmp_path):
        """Perturbing one grandchild leaves its sibling's key untouched."""
        ensemble = Ensemble("tree")
        ensemble.add("root", ScenarioSpec("test.double", {"x": 1}, seed=5))
        ensemble.branch(
            "root", "child",
            ScenarioSpec("test.double", {"x": 10, "upstream_node": "root"}),
        )
        for leaf, x in (("ga", 100), ("gb", 200)):
            ensemble.branch(
                "child", leaf,
                ScenarioSpec("test.double", {"x": x, "upstream_node": "child"}),
            )
        before = compute_run_keys(ensemble)
        moved = ensemble.with_specs(
            {"ga": ScenarioSpec(
                "test.double", {"x": 101, "upstream_node": "child"}
            )}
        )
        after = compute_run_keys(moved)
        assert after["ga"] != before["ga"]
        assert after["gb"] == before["gb"]
        assert after["root"] == before["root"]


class TestStoreListing:
    def fill(self, tmp_path, count=5):
        store = RunStore(tmp_path)
        for i in range(count):
            spec = ScenarioSpec("test.double", {"x": i}, seed=i)
            key = run_key(
                scenario_qualname("test.double"), spec.params, spec.seed
            )
            store.put(key, {"v": i}, scenario=spec.scenario,
                      params=spec.params, seed=spec.seed)
        return store

    def test_ls_limit_truncates_before_metadata_reads(self, tmp_path):
        store = self.fill(tmp_path)
        limited = store.ls(limit=2)
        assert len(limited) == 2
        assert [e.key for e in limited] == [e.key for e in store.ls()[:2]]
        assert all(e.scenario == "test.double" for e in limited)

    def test_ls_without_meta_skips_run_json(self, tmp_path):
        store = self.fill(tmp_path, count=2)
        bare = store.ls(with_meta=False)
        assert all(e.scenario == "" and e.seed == 0 for e in bare)
        assert all(e.size_bytes > 0 for e in bare)

    def test_ls_negative_limit_rejected(self, tmp_path):
        store = self.fill(tmp_path, count=1)
        with pytest.raises(SimulationError):
            store.ls(limit=-1)

    def test_summary_matches_full_listing(self, tmp_path):
        store = self.fill(tmp_path)
        count, total = store.summary()
        entries = store.ls()
        assert count == len(entries) == 5
        assert total == sum(e.size_bytes for e in entries)
        assert store.total_bytes() == total

    def test_cli_ls_limit_and_summary(self, tmp_path):
        store = str(tmp_path / "store")
        _run_cli(
            "ensemble", "run", "--demo", "sweep", "--quick", "--store", store
        )
        limited = _run_cli("ensemble", "ls", "--store", store, "--limit", "2")
        assert limited.returncode == 0, limited.stderr
        body = [l for l in limited.stdout.splitlines() if l.startswith("  ")]
        assert len(body) == 3  # 2 entries + the "... more" footer
        assert "more; raise --limit" in body[-1]

        summary = _run_cli("ensemble", "ls", "--store", store, "--summary")
        assert summary.returncode == 0
        assert "5 run(s)" in summary.stdout
        assert "response.surface" not in summary.stdout
