"""Run-store membership under removal: the eviction generation, atomic
eviction, and crash consistency under SIGKILL.

``RunStore.contains_many`` and ``RunStore.fingerprints`` answer keys the
instance has already seen present (by a stat, a ``get`` hit or a
committed ``put``) from memory, so they are only as sound as the
generation protocol behind it: every path that removes an entry
(``evict``, ``gc`` by age or size, gc's batch step run from another
instance) must write a fresh token before its first removal and after
its last.  These tests pin that per removal path, across store instances
and processes, and with a hypothesis interleaving of put/get/evict/gc
and reopening against per-key ``contains`` and the fingerprints a fresh
instance reads.  An entry is one file, so a removal is one unlink
and a ``get`` racing it reads the whole entry or misses.  The SIGKILL
tests stop a child process at fixed points inside ``put``, ``gc`` and
``evict`` and check what it leaves behind.

Tests marked :data:`VIEWS` run twice: through the instance that wrote
the entries (id ``writer``), and through a second instance over the
same root standing in for another process (id ``other-instance``).

Children get an explicit environment (every ``REPRO_*`` variable
dropped, then the ones they need set), so an ambient fault plan or
backend cannot move the point where a child stops.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import execute_plan, perturb, plan_delta
from repro.ensemble import compute_run_keys, run_ensemble
from repro.ensemble import store as store_module
from repro.ensemble.store import RunStore, result_fingerprint, run_key
from repro.errors import SimulationError
from repro.faults import injected
from tests.test_ensemble import REPO_ROOT, chain

BASE_MTIME = 1_000_000_000.0

#: ``reopen``: act through a second instance over the root, not the writer.
VIEWS = pytest.mark.parametrize(
    "reopen", (False, True), ids=("writer", "other-instance")
)


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
    os.utime(store._entry_path(key), (stamp, stamp))


def _agrees(store, keys):
    return store.contains_many(keys) == [store.contains(key) for key in keys]


class CountingStore(RunStore):
    """A store that counts the stats ``contains`` makes."""

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
    @VIEWS
    def test_answers_in_input_order_like_contains(self, tmp_path, reopen):
        writer = RunStore(tmp_path)
        keys = _populate(writer, count=4)
        store = RunStore(tmp_path) if reopen else writer
        absent = [_key(i) for i in range(10, 13)]
        probe = [absent[0], keys[2], keys[0], absent[1], keys[2], absent[2]]
        expected = [False, True, True, False, True, False]
        assert store.contains_many(probe) == expected
        assert store.contains_many(probe) == expected  # warm: same answers
        assert store.contains_many([]) == []

    def test_stats_only_keys_not_seen_present(self, tmp_path):
        writer = CountingStore(tmp_path)
        keys = _populate(writer, count=5)
        absent = [_key(i) for i in range(10, 13)]
        store = CountingStore(tmp_path)
        store.contains_many(keys + absent)
        assert store.stats_made == 8  # a reopened instance stats every key
        store.stats_made = 0
        assert store.contains_many(keys + absent) == [True] * 5 + [False] * 3
        assert store.stats_made == 3  # only the absent keys, again
        # The writer's commits taught it its own keys.
        assert writer.contains_many(keys + absent) == [True] * 5 + [False] * 3
        assert writer.stats_made == 3

    def test_get_hits_teach_contains_many(self, tmp_path):
        keys = _populate(RunStore(tmp_path), count=3)
        store = CountingStore(tmp_path)
        assert store.get(keys[1]) is not None
        assert store.get(_key(10)) is None
        assert store.contains_many(keys + [_key(10)]) == [True] * 3 + [False]
        assert store.stats_made == 3  # not keys[1], which get read

    def test_an_absence_is_never_cached(self, tmp_path):
        store = RunStore(tmp_path)
        other = RunStore(tmp_path)  # stands in for another process
        key = _key(0)
        assert store.contains_many([key]) == [False]
        other.put(key, _payload(0))
        assert store.contains_many([key]) == [True]

    def test_opening_and_asking_create_no_generation_file(self, tmp_path):
        for store in (RunStore(tmp_path), RunStore(tmp_path)):
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
        # Written through ``other``: ``store`` has not seen the keys, so
        # it stats them.
        keys = _populate(other, count=3)
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
        and re-put through a second instance over the root; once they
        stop, memory and disk must agree."""
        store = RunStore(tmp_path)
        other = RunStore(tmp_path)
        keys = _populate(store, count=8)
        expected = [result_fingerprint(_payload(i)) for i in range(8)]
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    answers = store.contains_many(keys)
                    # keys[0] is never removed: it must always read present.
                    assert answers[0], answers
                    prints = store.fingerprints(keys)
                    assert prints[0] == expected[0], prints
                    for fingerprint, want in zip(prints, expected):
                        assert fingerprint in (None, want), prints
            except Exception:  # pragma: no cover - failure path
                errors.append(traceback.format_exc())

        def churn(offset):
            try:
                for round_ in range(25):
                    key = keys[1 + (offset + round_) % 7]
                    other.evict(key)
                    if round_ % 3:
                        other.put(key, _payload(keys.index(key)))
            except Exception:  # pragma: no cover - failure path
                errors.append(traceback.format_exc())

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
        assert errors == [], errors[0]
        on_disk = _fingerprints_on_disk(tmp_path, keys)
        for view in (store, other, RunStore(tmp_path)):
            assert _agrees(view, keys)
            assert view.fingerprints(keys) == on_disk


class TestFingerprints:
    """``fingerprints`` answers what the entries on disk hold: a memory
    filed by ``get`` or ``put`` must never outlive a removal or answer
    another writer's entry."""

    def test_an_entry_this_instance_did_not_write_is_decoded_once(
        self, tmp_path, monkeypatch
    ):
        keys = _populate(RunStore(tmp_path), count=2)  # array-bearing results
        store = RunStore(tmp_path)
        assert store.get(keys[0]) is not None  # files presence, not a print
        decoded = []
        real_read_arrays = store_module._read_arrays

        def read_arrays(handle, document):
            decoded.append(document["key"])
            return real_read_arrays(handle, document)

        monkeypatch.setattr(store_module, "_read_arrays", read_arrays)
        expected = [result_fingerprint(_payload(i)) for i in range(2)]
        assert store.fingerprints(keys + [_key(9)]) == expected + [None]
        assert decoded == keys
        assert store.stats.as_dict()["hits"] == 1  # not a get
        assert store.fingerprints(keys) == expected  # now from memory
        assert decoded == keys

    def test_the_memory_never_grows_past_its_bound(self, tmp_path, monkeypatch):
        """With the bound at 3 keys, no filing path (``put``, ``get``,
        ``contains_many``, ``fingerprints``) leaves more in the memory,
        and the keys it forgot are answered from disk."""
        monkeypatch.setattr(store_module, "_MEMORY_KEYS", 3)
        writer = CountingStore(tmp_path)
        keys = _populate(writer, count=8)
        store = CountingStore(tmp_path)
        sizes = [len(writer._memory[1])]
        for key in keys:
            assert store.get(key) is not None
            sizes.append(len(store._memory[1]))
        expected = [result_fingerprint(_payload(i)) for i in range(8)]
        for view in (writer, store):
            assert view.contains_many(keys + [_key(99)]) == [True] * 8 + [False]
            sizes.append(len(view._memory[1]))
            assert view.fingerprints(keys + [_key(99)]) == expected + [None]
            sizes.append(len(view._memory[1]))
        assert max(sizes) == 3
        # The memory still saves work: the keys it holds are not statted.
        remembered = list(store._memory[1])
        made = store.stats_made
        assert store.contains_many(remembered) == [True] * len(remembered)
        assert remembered and store.stats_made == made

    def test_a_put_that_loses_the_link_race_remembers_nothing(self, tmp_path, monkeypatch):
        """Another writer commits the key between this put's staging and
        its link: the entry on disk is theirs, so this instance must
        neither answer this put's fingerprint nor skip the key's stat."""
        store = CountingStore(tmp_path)
        other = RunStore(tmp_path)
        key = _key(0)
        theirs = dict(_payload(0), writer="other")
        real_link = os.link
        raced = []

        def link(src, dst, *args, **kwargs):
            if dst == store._entry_path(key) and not raced:
                raced.append(dst)
                other.put(key, theirs)  # commits first
            return real_link(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "link", link)
        mine = store.put(key, _payload(0))
        monkeypatch.undo()
        assert raced
        assert result_fingerprint(mine) == result_fingerprint(_payload(0))
        assert store.contains_many([key]) == [True]
        assert store.stats_made == 1  # the lost put filed no presence
        assert store.fingerprints([key]) == [result_fingerprint(theirs)]
        assert result_fingerprint(store.get(key)) == result_fingerprint(theirs)

    def test_a_put_racing_a_removal_is_not_filed_under_a_newer_token(
        self, tmp_path, monkeypatch
    ):
        """The entry is removed, and the memory retagged, between the
        put's link and its filing: the filing must not land."""
        store = RunStore(tmp_path)
        other = RunStore(tmp_path)
        key = _key(0)
        real_link = os.link

        def link(src, dst, *args, **kwargs):
            real_link(src, dst, *args, **kwargs)
            if dst == store._entry_path(key):
                other.evict(key)  # bumps before and after the removal
                store.contains_many([])  # a second caller retags the memory

        monkeypatch.setattr(os, "link", link)
        store.put(key, _payload(0))
        monkeypatch.undo()
        assert store.contains_many([key]) == [False]
        assert store.fingerprints([key]) == [None]

    def test_a_get_racing_a_removal_is_not_filed_under_a_newer_token(
        self, tmp_path, monkeypatch
    ):
        """The entry is removed, and the memory retagged, while a get that
        opened it reads it: the get returns it whole, and files nothing."""
        store = RunStore(tmp_path)
        other = RunStore(tmp_path)
        key = _key(0)
        other.put(key, _payload(0))
        real_read_array = store_module._read_array
        raced = []

        def read_array(*args, **kwargs):
            if not raced:
                raced.append(key)
                other.evict(key)
                store.contains_many([])
            return real_read_array(*args, **kwargs)

        monkeypatch.setattr(store_module, "_read_array", read_array)
        value = store.get(key)
        monkeypatch.undo()
        assert raced
        assert result_fingerprint(value) == result_fingerprint(_payload(0))
        assert store.contains_many([key]) == [False]
        assert store.fingerprints([key]) == [None]


class _Finalized:
    """Cyclic garbage whose finalizer runs Python code in the collector."""

    def __del__(self):
        sum(range(50))


def test_threads_reading_arrays_while_the_collector_runs_finalizers(tmp_path):
    """Array reads take no lock: threads reading arrays while the
    collector runs finalizers each get the whole result.  (Parsing
    ``.npy`` headers with ``ast.literal_eval`` raised ``SystemError``
    here on CPython releases whose AST constructor keeps one recursion
    depth per interpreter.)"""
    store = RunStore(tmp_path)
    (key,) = _populate(store, count=1)
    errors = []

    def reader():
        try:
            for _ in range(1500):
                a, b = _Finalized(), _Finalized()
                a.other, b.other = b, a
                del a, b
                assert store.get(key)["tag"] == "run-0"
        except Exception:  # pragma: no cover - failure path
            errors.append(traceback.format_exc())

    thresholds = gc.get_threshold()
    interval = sys.getswitchinterval()
    gc.set_threshold(50, 5, 5)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        gc.set_threshold(*thresholds)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]


# ---------------------------------------------------------------------------
# the generation, per removal path
# ---------------------------------------------------------------------------

#: name -> (removal; victims as chain node names).
REMOVAL_PATHS = {
    "evict": (lambda store, keys: store.evict(keys["n2"]), ("n2",)),
    "gc-by-age": (
        lambda store, keys: store.gc(max_age_seconds=0, now=BASE_MTIME + 61),
        ("n0", "n1"),
    ),
    "gc-by-size": (
        lambda store, keys: store.gc(max_total_bytes=store.total_bytes() - 1),
        ("n0",),
    ),
    # gc's batch step (``_evict_many``) from an instance that did not
    # write the entries.
    "gc-by-another-instance": (
        lambda store, keys: RunStore(store.root).gc(max_total_bytes=0),
        ("n0", "n1", "n2", "n3"),
    ),
}


@pytest.mark.parametrize("path", sorted(REMOVAL_PATHS))
def test_removal_bumps_before_first_and_after_last(tmp_path, monkeypatch, path):
    remove, victims = REMOVAL_PATHS[path]
    store = RunStore(tmp_path)
    ensemble = chain(4, scenario="test.array")
    with injected(None):
        assert run_ensemble(ensemble, store=store).ok
    keys = compute_run_keys(ensemble)
    for minutes, node in enumerate(ensemble.nodes()):
        _age(store, keys[node.name], minutes)
    warm = RunStore(tmp_path)  # another instance, as another process would be
    assert plan_delta(ensemble, warm).nodes_reused == 4  # set filled

    def victims_left():
        return sum(os.path.exists(store._entry_path(keys[name])) for name in victims)

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
# atomic eviction: a racing read is whole or a miss
# ---------------------------------------------------------------------------

class TestAtomicEviction:
    @pytest.mark.parametrize("by_gc", (False, True), ids=("evict", "gc"))
    def test_an_eviction_racing_get_is_whole_or_a_miss(
        self, tmp_path, monkeypatch, by_gc
    ):
        """Another instance removes the entry, by ``evict`` or by ``gc``,
        after a ``get`` opened it: that ``get`` returns the whole result,
        and one that opens the entry afterwards misses."""
        store = RunStore(tmp_path)
        other = RunStore(tmp_path)
        key = _key(0)
        store.put(key, _payload(0))
        real_read_array = store_module._read_array
        removals = []

        def read_array(*args, **kwargs):
            if not removals:  # another process removes it mid-read
                removals.append(
                    other.gc(max_total_bytes=0) if by_gc else other.evict(key)
                )
                assert not os.path.exists(store._entry_path(key))
            return real_read_array(*args, **kwargs)

        monkeypatch.setattr(store_module, "_read_array", read_array)
        opened_first = store.get(key)
        monkeypatch.undo()
        assert removals == [[key] if by_gc else True]
        assert result_fingerprint(opened_first) == result_fingerprint(_payload(0))
        assert store.get(key) is None
        assert store.stats.as_dict()["hits"] == 1
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
from repro.ensemble.store import RunStore

point, root, marker, key = sys.argv[1:5]

def stop_here():
    open(marker, "w").close()
    time.sleep(120)  # the parent kills the process here

def stop_at_call(number, real, under=""):
    # real, stopping before its number-th call on a path under ``under``
    calls = []
    def wrapper(path, *args, **kwargs):
        if path.startswith(under):
            calls.append(path)
            if len(calls) == number:
                stop_here()
        return real(path, *args, **kwargs)
    return wrapper

runs = RunStore(root)._runs_dir()
killed = {"series": np.arange(8.0), "tag": "killed"}
if point == "put":  # staged, not yet linked into place
    os.link = stop_at_call(1, os.link)
    RunStore(root).put(key, killed)
elif point == "put-linked":  # linked into place, the stage not yet removed
    os.unlink = stop_at_call(1, os.unlink, under=os.path.join(root, "tmp"))
    RunStore(root).put(key, killed)
elif point == "gc":  # after the opening bump, between two removals
    os.unlink = stop_at_call(2, os.unlink, under=runs)
    RunStore(root).gc(max_total_bytes=0)
elif point == "evict-bumped":  # after the opening bump, before the unlink
    os.unlink = stop_at_call(1, os.unlink, under=runs)
    RunStore(root).evict(key)
sys.exit("the child was not stopped at " + point)
"""

GC_CHILD = r"""
import sys
from repro.ensemble.store import RunStore
evicted = RunStore(sys.argv[1]).gc(max_age_seconds=0, now=float(sys.argv[2]))
print("\n".join(evicted))
"""


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(REPO_ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        REPRO_BACKEND="serial",
    )
    return env


def _kill_at(point, root, marker, key):
    """Run the child until it touches ``marker``, then SIGKILL it."""
    child = subprocess.Popen(
        [sys.executable, "-c", KILL_CHILD, point, str(root), str(marker), key],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
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


#: kill point -> change in the entry count when the child is killed.
KILL_POINTS = {"put": 0, "put-linked": 1, "gc": -1, "evict-bumped": 0}

#: What the child's ``put`` writes.
KILLED = {"series": np.arange(8.0), "tag": "killed"}


@pytest.mark.parametrize("point", list(KILL_POINTS))
def test_sigkill_leaves_a_consistent_store(tmp_path, point):
    root = tmp_path / "store"
    keys = _populate(RunStore(root))
    killed_key = _key(99)
    views = [RunStore(root), RunStore(root)]
    for view in views:  # warm before the kill
        view.contains_many(keys + [killed_key])
    token = views[0]._read_generation()

    putting = point.startswith("put")
    _kill_at(point, root, tmp_path / "marker", killed_key if putting else keys[0])

    after = RunStore(root)
    # The removals are past their opening bump; a put bumps nothing.
    assert (after._read_generation() != token) == (not putting)
    listed = [entry.key for entry in after.ls(with_meta=False)]
    assert len(listed) == len(keys) + KILL_POINTS[point]
    payloads = {key: _payload(i) for i, key in enumerate(keys)}
    payloads[killed_key] = KILLED
    for key in listed:
        assert result_fingerprint(after.get(key)) == result_fingerprint(payloads[key])
    for view in views:
        assert _agrees(view, keys + [killed_key])
    budget = after.total_bytes() // 2
    after.gc(max_total_bytes=budget)
    assert after.total_bytes() <= budget
    after.gc(scratch_age_seconds=0)  # whatever the kill left in tmp/
    assert os.listdir(os.path.join(root, "tmp")) == []
    if point == "put-linked":  # sweeping the stage left the newest entry whole
        assert result_fingerprint(after.get(killed_key)) == result_fingerprint(KILLED)
    for i, key in enumerate(keys):  # nothing the kill left blocks a put
        after.put(key, _payload(i))
        assert result_fingerprint(after.get(key)) == result_fingerprint(_payload(i))


# ---------------------------------------------------------------------------
# interleavings
# ---------------------------------------------------------------------------

OPS = ("put", "get", "evict", "gc-age", "gc-size", "reopen")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(OPS), st.sampled_from((0, 1)), st.integers(0, 5)),
        min_size=1,
        max_size=12,
    )
)
def test_contains_many_matches_contains_under_interleavings(steps):
    """Two instances over one root act in turn, and ``reopen`` replaces
    one with a fresh instance; after every step each answers
    ``contains_many`` exactly as per-key ``contains``, with sets warmed
    by every earlier step."""
    keys = [_key(i) for i in range(6)]
    with tempfile.TemporaryDirectory() as root:
        views = [RunStore(root), RunStore(root)]
        for n, (op, actor, i) in enumerate(steps):
            store = views[actor]
            if op == "put":
                # Each put's content is its own, as a scenario that is not
                # deterministic would write after an eviction: a memory
                # that outlived its entry would answer the old fingerprint.
                store.put(keys[i], dict(_payload(i), put=n))
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
                views[actor] = RunStore(root)
            on_disk = _fingerprints_on_disk(root, keys)
            for view in views:
                assert _agrees(view, keys), (op, actor, i)
                assert view.fingerprints(keys) == on_disk, (op, actor, i)


def _fingerprints_on_disk(root, keys):
    """Each key's ``result_fingerprint``, read through a fresh instance."""
    fresh = RunStore(root)
    values = [fresh.get(key) for key in keys]
    return [None if v is None else result_fingerprint(v) for v in values]
