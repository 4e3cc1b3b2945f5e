"""Run-store membership under removal: the eviction generation, atomic
eviction, and crash consistency under SIGKILL.

``RunStore.contains_many`` answers keys it has already seen present from
memory, so it is only as sound as the generation protocol behind it:
every path that removes or moves an entry (flat ``evict``, ``gc`` by age
or size, the sharded ``_evict_many`` fan-out, ``migrate_layout``) must
write a fresh token before its first removal and after its last.  These
tests pin that per removal path, across store instances and processes,
and with a hypothesis interleaving of put/get/evict/gc/migrate_layout
against per-key ``contains``.  Removals themselves must be atomic: an
entry killed mid-removal is whole or gone, never torn.  The SIGKILL
tests stop a child process at fixed points inside ``put``, ``gc`` and
``migrate_layout`` and check what it leaves behind.

Children get an explicit environment (every ``REPRO_*`` variable
dropped, then the ones they need set), so an ambient fault plan or
backend cannot move the point where a child stops.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import execute_plan, perturb, plan_delta
from repro.ensemble import compute_run_keys, run_ensemble
from repro.ensemble.store import (
    RunStore,
    ShardedRunStore,
    result_fingerprint,
    run_key,
)
from repro.errors import SimulationError
from repro.faults import injected
from tests.test_ensemble import REPO_ROOT, chain

SHARDS = 3
BASE_MTIME = 1_000_000_000.0


def _payload(i: int):
    return {"series": np.arange(8, dtype=np.float64) * (i + 1), "tag": f"run-{i}"}


def _key(i: int) -> str:
    return run_key("test.consistency", {"i": i}, seed=i)


def _populate(store, count=6):
    """``count`` array-bearing entries; entry ``i`` is ``i`` minutes old
    relative to :data:`BASE_MTIME` (older index = older entry)."""
    keys = []
    for i in range(count):
        key = _key(i)
        store.put(key, _payload(i))
        _age(store, key, i)
        keys.append(key)
    return keys


def _age(store, key, minutes):
    stamp = BASE_MTIME + minutes * 60.0
    for candidate in store._candidate_dirs(key):
        run_path = os.path.join(candidate, "run.json")
        if os.path.exists(run_path):
            os.utime(run_path, (stamp, stamp))


def _agrees(store, keys):
    return store.contains_many(keys) == [store.contains(key) for key in keys]


class CountingStore(RunStore):
    """A flat store that counts the stats ``contains`` makes."""

    def __init__(self, root) -> None:
        self.stats_made = 0
        super().__init__(root)

    def contains(self, key):
        self.stats_made += 1
        return super().contains(key)


# ---------------------------------------------------------------------------
# contains_many
# ---------------------------------------------------------------------------

class TestContainsMany:
    @pytest.mark.parametrize("shards", (0, SHARDS), ids=("flat", "sharded"))
    def test_answers_in_input_order_like_contains(self, tmp_path, shards):
        store = ShardedRunStore(tmp_path, shards) if shards else RunStore(tmp_path)
        keys = _populate(store, count=4)
        absent = [_key(i) for i in range(10, 13)]
        probe = [absent[0], keys[2], keys[0], absent[1], keys[2], absent[2]]
        expected = [False, True, True, False, True, False]
        assert store.contains_many(probe) == expected
        assert store.contains_many(probe) == expected  # warm: same answers
        assert store.contains_many([]) == []

    def test_stats_only_keys_not_seen_present(self, tmp_path):
        store = CountingStore(tmp_path)
        keys = _populate(store, count=5)
        absent = [_key(i) for i in range(10, 13)]
        store.contains_many(keys + absent)
        assert store.stats_made == 8  # a fresh instance stats every key
        store.stats_made = 0
        assert store.contains_many(keys + absent) == [True] * 5 + [False] * 3
        assert store.stats_made == 3  # only the absent keys, again

    def test_an_absence_is_never_cached(self, tmp_path):
        store = RunStore(tmp_path)
        other = RunStore(tmp_path)  # stands in for another process
        key = _key(0)
        assert store.contains_many([key]) == [False]
        other.put(key, _payload(0))
        assert store.contains_many([key]) == [True]

    def test_opening_and_asking_create_no_generation_file(self, tmp_path):
        for store in (RunStore(tmp_path / "flat"), ShardedRunStore(tmp_path / "sh", 2)):
            store.contains_many([_key(0)])
            store.evict(_key(0))  # nothing to remove
            assert not os.path.exists(os.path.join(store.root, "generation"))

    def test_malformed_keys_still_raise(self, tmp_path):
        store = RunStore(tmp_path)
        _populate(store, count=1)
        with pytest.raises(SimulationError, match="malformed run key"):
            store.contains_many([_key(0), "../../etc"])

    def test_stats_racing_a_removal_are_not_filed_under_a_newer_token(self, tmp_path):
        """A stat taken before a removal must not land in a set tagged
        with a token written after it (another thread retagged the set
        while the first call was still statting)."""
        store = RunStore(tmp_path)
        other = RunStore(tmp_path)
        keys = _populate(store, count=3)
        real_contains = RunStore.contains
        raced = []

        def contains(self, key):
            present = real_contains(self, key)
            if key == keys[1] and not raced:
                raced.append(key)
                other.evict(key)  # bumps before and after the removal
                store.contains_many([])  # a second caller retags the set
            return present

        store.contains = contains.__get__(store)
        try:
            assert store.contains_many(keys) == [True, True, True]
        finally:
            del store.contains
        assert raced
        assert store.contains_many(keys) == [True, False, True]

    def test_threads_sharing_a_store_agree_with_contains(self, tmp_path):
        """More threads than cores read one store while two others evict
        and re-put; once they stop, memory and disk must agree."""
        store = ShardedRunStore(tmp_path, SHARDS)
        keys = _populate(store, count=8)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    answers = store.contains_many(keys)
                    # keys[0] is never removed: it must always read present.
                    assert answers[0], answers
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def churn(offset):
            try:
                for round_ in range(25):
                    key = keys[1 + (offset + round_) % 7]
                    store.evict(key)
                    if round_ % 3:
                        store.put(key, _payload(keys.index(key)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader) for _ in range(4)]
            churners = [threading.Thread(target=churn, args=(o,)) for o in (0, 3)]
            for thread in readers + churners:
                thread.start()
            for thread in churners:
                thread.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + churners)
        assert errors == []
        assert _agrees(store, keys)
        assert _agrees(RunStore(tmp_path), keys)


# ---------------------------------------------------------------------------
# the generation, per removal path
# ---------------------------------------------------------------------------

def _flat(root):
    return RunStore(root)


def _sharded(root):
    return ShardedRunStore(root, SHARDS)


def _candidates(store, key):
    return store._candidate_dirs(key)


def _flat_dirs(store, key):
    return [os.path.join(store.root, "objects", key[:2], key)]


#: name -> (store kind that populates, acts and replans; removal;
#: victims as chain node names; where a victim's directories are).
REMOVAL_PATHS = {
    "flat-evict": (
        _flat, lambda store, keys: store.evict(keys["n2"]), ("n2",), _candidates,
    ),
    "gc-by-age": (
        _flat,
        lambda store, keys: store.gc(max_age_seconds=0, now=BASE_MTIME + 61),
        ("n0", "n1"),
        _candidates,
    ),
    "gc-by-size": (
        _flat,
        lambda store, keys: store.gc(max_total_bytes=store.total_bytes() - 1),
        ("n0",),
        _candidates,
    ),
    "sharded-evict-many": (
        _sharded,
        lambda store, keys: store.gc(max_total_bytes=0),
        ("n0", "n1", "n2", "n3"),
        _candidates,
    ),
    "migrate-layout": (  # a flat view loses every moved entry
        _flat,
        lambda store, keys: _sharded(store.root).migrate_layout(),
        ("n0", "n1", "n2", "n3"),
        _flat_dirs,
    ),
}


@pytest.mark.parametrize("path", sorted(REMOVAL_PATHS))
def test_removal_bumps_before_first_and_after_last(tmp_path, monkeypatch, path):
    make, remove, victims, victim_dirs = REMOVAL_PATHS[path]
    store = make(tmp_path)
    ensemble = chain(4)
    with injected(None):
        assert run_ensemble(ensemble, store=store).ok
    keys = compute_run_keys(ensemble)
    for minutes, node in enumerate(ensemble.nodes()):
        _age(store, keys[node.name], minutes)
    warm = make(tmp_path)  # another instance, as another process would be
    assert plan_delta(ensemble, warm).nodes_reused == 4  # set filled

    def victims_left():
        return sum(
            any(os.path.isdir(d) for d in victim_dirs(store, keys[name]))
            for name in victims
        )

    bumps = []
    real_bump = RunStore._bump_generation

    def bump(self):
        real_bump(self)
        bumps.append((self._read_generation(), victims_left()))

    monkeypatch.setattr(RunStore, "_bump_generation", bump)
    before = warm._read_generation()
    remove(store, keys)
    monkeypatch.undo()

    assert len(bumps) >= 2
    tokens = [token for token, _ in bumps]
    assert before not in tokens and len(set(tokens)) == len(tokens)
    assert bumps[0][1] == len(victims)  # first bump: nothing removed yet
    assert bumps[-1][1] == 0  # last bump: every victim gone
    replan = plan_delta(ensemble, warm, base=ensemble)
    assert {n.name for n in replan.nodes.values() if n.reason == "missing"} == set(
        victims
    )


def test_gc_in_a_subprocess_between_two_plans(tmp_path):
    store = RunStore(tmp_path)
    ensemble = chain(4)
    with injected(None):
        assert run_ensemble(ensemble, store=store).ok
    keys = compute_run_keys(ensemble)
    for minutes, node in enumerate(ensemble.nodes()):
        _age(store, keys[node.name], minutes)
    assert plan_delta(ensemble, store).nodes_reused == 4
    out = subprocess.run(
        [sys.executable, "-c", GC_CHILD, str(tmp_path), str(BASE_MTIME + 61)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [keys["n0"], keys["n1"]]
    replan = plan_delta(ensemble, store, base=ensemble)
    assert [n.reason for n in replan.nodes.values()] == ["missing", "missing", "hit", "hit"]
    with injected(None):
        outcome = execute_plan(replan, store)
    outcome.raise_if_failed()
    assert outcome.nodes_run == 2


def test_gc_between_plan_and_execute_still_raises_vanished(tmp_path):
    store = RunStore(tmp_path)
    base = chain(3)
    with injected(None):
        run_ensemble(base, store=store)
    target = perturb(base, params={"n1": {"x": 9}})
    plan_delta(target, store, base=base)  # warm the set
    plan = plan_delta(target, store, base=base)
    RunStore(tmp_path).gc(max_total_bytes=0)  # another instance evicts
    with injected(None), pytest.raises(SimulationError, match="vanished"):
        execute_plan(plan, store)
    assert plan_delta(target, store, base=base).nodes_reused == 0


# ---------------------------------------------------------------------------
# atomic eviction: no torn entries
# ---------------------------------------------------------------------------

class _Killed(BaseException):
    """Stands in for a kill that stops a removal partway through."""


def _rmtree_stopping_after(name):
    """An ``rmtree`` that deletes ``name`` inside the tree, then dies."""

    def rmtree(path, ignore_errors=False, onerror=None):
        os.unlink(os.path.join(path, name))
        raise _Killed(path)

    return rmtree


class TestAtomicEviction:
    #: The two torn states an in-place removal left behind, by the file
    #: it had deleted when it was stopped.  ``run.json`` alone made
    #: ``contains`` say yes and a warm run die with ``KeyError``;
    #: ``arrays.npz`` alone was invisible to ``gc`` and made every later
    #: ``put`` of the key raise ``OSError``.
    @pytest.mark.parametrize(
        "deleted_first", ("arrays.npz", "run.json"), ids=("run-json-left", "arrays-left")
    )
    @pytest.mark.parametrize("shards", (0, SHARDS), ids=("flat", "sharded"))
    def test_a_removal_stopped_midway_leaves_no_torn_entry(
        self, tmp_path, monkeypatch, shards, deleted_first
    ):
        store = ShardedRunStore(tmp_path, shards) if shards else RunStore(tmp_path)
        ensemble = chain(2, scenario="test.array")
        with injected(None):
            cold = run_ensemble(ensemble, store=store)
        key = compute_run_keys(ensemble)["n0"]
        monkeypatch.setattr(
            "repro.ensemble.store.shutil.rmtree", _rmtree_stopping_after(deleted_first)
        )
        with pytest.raises(_Killed):
            store.evict(key)
        monkeypatch.undo()
        assert not any(os.path.isdir(d) for d in store._candidate_dirs(key))
        assert not store.contains(key)
        with injected(None):
            warm = run_ensemble(ensemble, store=store)
        warm.raise_if_failed()
        assert warm.fingerprints() == cold.fingerprints()
        assert store.contains(key)

    @pytest.mark.parametrize("shards", (0, SHARDS), ids=("flat", "sharded"))
    def test_put_heals_an_entry_torn_by_an_earlier_version(self, tmp_path, shards):
        store = ShardedRunStore(tmp_path, shards) if shards else RunStore(tmp_path)
        key = _key(0)
        store.put(key, _payload(0))
        entry_dir = store._candidate_dirs(key)[0]
        os.unlink(os.path.join(entry_dir, "run.json"))  # the old in-place rmtree
        assert not store.contains(key) and os.path.isdir(entry_dir)
        store.put(key, _payload(0))
        assert result_fingerprint(store.get(key)) == result_fingerprint(_payload(0))
        store.gc(scratch_age_seconds=-1)
        assert os.listdir(os.path.join(store.root, "tmp")) == []

    @pytest.mark.parametrize("shards", (0, SHARDS), ids=("flat", "sharded"))
    def test_get_heals_an_entry_whose_arrays_are_gone(self, tmp_path, shards):
        """``run.json`` left without the ``arrays.npz`` it references (the
        other torn state an earlier version's in-place removal left) is a
        miss, and the read removes it, so a warm instance stops seeing it
        and a warm run recomputes it."""
        make = (lambda: ShardedRunStore(tmp_path, shards)) if shards else (
            lambda: RunStore(tmp_path)
        )
        store = make()
        ensemble = chain(2, scenario="test.array")
        with injected(None):
            cold = run_ensemble(ensemble, store=store, backend="serial")
        key = compute_run_keys(ensemble)["n0"]
        warm = make()  # stands in for another process
        assert warm.contains_many([key]) == [True]
        entry_dir = next(d for d in store._candidate_dirs(key) if os.path.isdir(d))
        os.unlink(os.path.join(entry_dir, "arrays.npz"))  # the old in-place rmtree
        assert store.contains(key)
        token = store._read_generation()
        misses = store.stats.misses
        assert store.get(key) is None
        assert store.stats.misses == misses + 1
        assert store._read_generation() != token  # removed as a removal
        assert not os.path.isdir(entry_dir) and not store.contains(key)
        assert warm.contains_many([key]) == [False]
        with injected(None):
            rerun = run_ensemble(ensemble, store=store, backend="serial")
        rerun.raise_if_failed()
        assert rerun.reports["n0"].status == "run"
        assert rerun.reports["n1"].status == "cached"
        assert rerun.fingerprints() == cold.fingerprints()
        assert result_fingerprint(store.get(key)) == cold.fingerprints()["n0"]

    @pytest.mark.parametrize("shards", (0, SHARDS), ids=("flat", "sharded"))
    def test_an_eviction_racing_get_is_a_miss(self, tmp_path, monkeypatch, shards):
        store = ShardedRunStore(tmp_path, shards) if shards else RunStore(tmp_path)
        other = RunStore(tmp_path) if not shards else ShardedRunStore(tmp_path, shards)
        key = _key(0)
        store.put(key, _payload(0))
        real_load = np.load

        def load(*args, **kwargs):
            other.evict(key)  # another process removes it mid-read
            return real_load(*args, **kwargs)

        monkeypatch.setattr(np, "load", load)
        assert store.get(key) is None
        monkeypatch.undo()
        assert store.stats.as_dict()["hits"] == 0
        assert store.stats.as_dict()["misses"] == 1
        assert not store.contains(key)
        store.put(key, _payload(0))
        assert result_fingerprint(store.get(key)) == result_fingerprint(_payload(0))

    def test_gc_sweeps_a_token_staged_by_a_killed_bump(self, tmp_path):
        store = RunStore(tmp_path)
        staged = os.path.join(store.root, "tmp", "generation." + "0" * 32)
        with open(staged, "w", encoding="ascii") as handle:
            handle.write("0" * 32)
        os.utime(staged, (BASE_MTIME, BASE_MTIME))
        store.gc()
        assert not os.path.exists(staged)


# ---------------------------------------------------------------------------
# crash consistency under SIGKILL
# ---------------------------------------------------------------------------

#: The child: run one store operation and touch ``marker`` at a fixed
#: point inside it, then wait there to be killed.
KILL_CHILD = r"""
import os, sys, time
import numpy as np
from repro.ensemble.store import RunStore, ShardedRunStore
from repro.faults.plan import FaultPlan

point, root, marker, key = sys.argv[1:5]

def stop_here():
    open(marker, "w").close()
    time.sleep(120)  # the parent kills the process here

def stop_at_call(number, real):
    calls = []
    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) == number:
            stop_here()
        return real(*args, **kwargs)
    return wrapper

if point == "put":  # staged, not yet renamed into place
    os.rename = stop_at_call(1, os.rename)
    RunStore(root).put(key, {"series": np.arange(8.0), "tag": "killed"})
elif point == "gc":  # after the opening bump, between two removals
    os.rename = stop_at_call(2, os.rename)
    RunStore(root).gc(max_total_bytes=0)
elif point == "sharded-gc":  # while the first shard batch hangs
    real_fire = FaultPlan.fire
    def fire(self, scope, index, attempt):
        if self.should_fail(scope, index, attempt):
            open(marker, "w").close()
        return real_fire(self, scope, index, attempt)
    FaultPlan.fire = fire
    ShardedRunStore(root, %d).gc(max_total_bytes=0)
elif point == "migrate":  # between two renames
    os.rename = stop_at_call(2, os.rename)
    ShardedRunStore(root, %d).migrate_layout()
sys.exit("the child was not stopped at " + point)
""" % (SHARDS, SHARDS)

GC_CHILD = r"""
import sys
from repro.ensemble.store import RunStore
evicted = RunStore(sys.argv[1]).gc(max_age_seconds=0, now=float(sys.argv[2]))
print("\n".join(evicted))
"""


def _child_env(faults=""):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(REPO_ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        REPRO_BACKEND="serial",
        REPRO_FAULTS=faults,
    )
    return env


def _kill_at(point, root, marker, key, faults=""):
    """Run the child until it touches ``marker``, then SIGKILL it."""
    child = subprocess.Popen(
        [sys.executable, "-c", KILL_CHILD, point, str(root), str(marker), key],
        env=_child_env(faults), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 120
    try:
        while not os.path.exists(marker):
            if child.poll() is not None:
                pytest.fail(f"child exited early: {child.stderr.read().decode()}")
            if time.monotonic() > deadline:
                pytest.fail(f"child never reached {point!r}")
            time.sleep(0.01)
    finally:
        child.kill()
        child.wait(timeout=60)
        child.stdout.close()
        child.stderr.close()
    assert child.returncode == -signal.SIGKILL


#: point -> (layout that populates the store, fault plan for the child)
KILL_POINTS = {
    "put": ("flat", ""),
    "gc": ("flat", ""),
    "sharded-gc": ("sharded", "at=store.shard:0,kind=hang,hang=30"),
    "migrate": ("flat", ""),
}


@pytest.mark.parametrize("point", sorted(KILL_POINTS))
def test_sigkill_leaves_a_consistent_store(tmp_path, point):
    layout, faults = KILL_POINTS[point]
    root = tmp_path / "store"
    writer = _sharded(root) if layout == "sharded" else _flat(root)
    keys = _populate(writer)
    killed_key = _key(99)
    views = [_flat(root), _sharded(root)]
    for view in views:  # warm before the kill
        view.contains_many(keys + [killed_key])

    _kill_at(point, root, tmp_path / "marker", killed_key, faults)

    after = _sharded(root)  # sees both layouts
    listed = [entry.key for entry in after.ls(with_meta=False)]
    # Only gc had removed an entry when it was killed; migrate had moved one.
    assert len(listed) == len(keys) - (point == "gc")
    for key in listed:
        assert result_fingerprint(after.get(key)) == result_fingerprint(
            _payload(keys.index(key))
        )
    for view in views:
        assert _agrees(view, keys + [killed_key])
    budget = after.total_bytes() // 2
    after.gc(max_total_bytes=budget)
    assert after.total_bytes() <= budget
    after.gc(scratch_age_seconds=-1)  # whatever the kill left in tmp/
    assert os.listdir(os.path.join(root, "tmp")) == []
    for i, key in enumerate(keys):  # no torn leftover blocks a put
        after.put(key, _payload(i))
        assert result_fingerprint(after.get(key)) == result_fingerprint(_payload(i))


# ---------------------------------------------------------------------------
# interleavings
# ---------------------------------------------------------------------------

OPS = ("put", "get", "evict", "gc-age", "gc-size", "migrate")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(OPS), st.sampled_from(("flat", "sharded")),
                  st.integers(0, 5)),
        min_size=1,
        max_size=12,
    )
)
def test_contains_many_matches_contains_under_interleavings(steps):
    """Two instances over one root (a flat and a sharded view) act in
    turn; after every step each answers ``contains_many`` exactly as
    per-key ``contains``, with sets warmed by every earlier step."""
    keys = [_key(i) for i in range(6)]
    with tempfile.TemporaryDirectory() as root:
        views = {"flat": _flat(root), "sharded": _sharded(root)}
        for op, actor, i in steps:
            store = views[actor]
            if op == "put":
                store.put(keys[i], _payload(i))
                _age(store, keys[i], i)
            elif op == "get":
                value = store.get(keys[i])
                if value is not None:
                    assert value["tag"] == f"run-{i}"
            elif op == "evict":
                store.evict(keys[i])
            elif op == "gc-age":
                store.gc(max_age_seconds=0, now=BASE_MTIME + i * 60.0 + 1)
            elif op == "gc-size":
                store.gc(max_total_bytes=store.total_bytes() * i // 6)
            else:
                views["sharded"].migrate_layout()
            for view in views.values():
                assert _agrees(view, keys), (op, actor, i)
