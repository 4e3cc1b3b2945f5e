"""One store layout, shared by several instances; retired layouts are
refused; gc under concurrency.

A root may be open in many :class:`RunStore` instances at once: one per
process of a fleet, or several in one process.  Here ``n`` is the number
of instances sharing a root.  Entries put through any of them land in
the one entry tree, every instance lists them in the same global
oldest-first order, and ``gc`` through any one of them evicts exactly
what a single-instance store over the same corpus evicts, in the same
order.  A root holding ``shards/`` (the retired sharded layout),
``objects/`` (the retired two-file entry layout) or ``runs/`` (the
retired layout of ``.npy`` entry records) is refused through the API
and the CLI, ``REPRO_STORE_SHARDS`` is ignored and ``--shards`` is an
argparse error.  This file also pins the two
store concurrency bugfixes: the gc size pass re-derives its total from
surviving entries (a racing ``put`` can no longer leave the store above
``max_total_bytes``), and an 8-thread put/evict/gc hammer leaves a
consistent store.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.__main__ import main
from repro.delta import delta_run, perturb
from repro.ensemble import run_ensemble
from repro.ensemble.store import RunStore, result_fingerprint, run_key
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan, injected
from repro.faults.retry import TaskFailed
from repro.parallel import get_backend
from tests.test_ensemble import REPO_ROOT, chain

INSTANCES = (1, 2, 7)

#: Every store-facing subcommand of ``python -m repro``.
STORE_COMMANDS = (
    ("ensemble", "run"),
    ("ensemble", "ls"),
    ("ensemble", "gc"),
    ("delta", "plan"),
    ("delta", "diff"),
    ("serve",),
)


def _payload(i: int):
    return {
        "series": np.arange(16, dtype=np.float64) * (i + 1),
        "scalar": float(i),
        "tag": f"run-{i}",
    }


def _instances(root, n):
    return [RunStore(root) for _ in range(n)]


def _populate(*stores, count=12, base_mtime=1_000_000_000.0):
    """Put ``count`` entries, entry ``i`` through ``stores[i % len]``,
    with deterministic, distinct pinned mtimes.

    Ages are deliberately *not* in put order (entry i gets mtime
    ``base + ((i * 5) % count)``) so oldest-first ordering exercises the
    sort, not the insertion sequence.
    """
    keys = []
    for i in range(count):
        store = stores[i % len(stores)]
        key = run_key("test.shared", {"i": i}, seed=i)
        store.put(key, _payload(i), scenario="test.shared", seed=i)
        stamp = base_mtime + ((i * 5) % count) * 60.0
        os.utime(store._entry_path(key), (stamp, stamp))
        keys.append(key)
    return keys


#: Retired layout -> where, under the root, it kept an entry's document.
RETIRED = {
    "shards": os.path.join("shards", "0", "objects", "{prefix}", "{key}", "run.json"),
    "objects": os.path.join("objects", "{prefix}", "{key}", "run.json"),
    "runs": os.path.join("runs", "{prefix}", "{key}"),
}


def _retired_root(root, layout):
    """A root as a retired layout left it: one entry's document at
    ``RETIRED[layout]`` and nothing else."""
    key = run_key("test.shared", {"i": 0}, seed=0)
    path = os.path.join(root, RETIRED[layout].format(prefix=key[:2], key=key))
    os.makedirs(os.path.dirname(path))
    with open(path, "w") as handle:
        handle.write('{"schema": 1, "result": {}}\n')
    return key


def _made(store):
    """The top-level directories a store makes under its root, sorted."""
    made = (store._runs_dir(), store.checkpoint_dir(), store._scratch_dir())
    return sorted(os.path.relpath(path, store.root) for path in made)


def _tree(root):
    return sorted(
        os.path.relpath(os.path.join(top, name), root)
        for top, dirs, files in os.walk(root)
        for name in dirs + files
    )


class TestLayoutAndRoundTrip:
    @pytest.mark.parametrize("n", INSTANCES)
    def test_entries_land_in_one_file_under_runs(self, tmp_path, n):
        """Whichever instance puts an entry, it lands as the one file
        ``_entry_path(key)`` and every instance sees it."""
        views = _instances(tmp_path, n)
        keys = _populate(*views, count=8)
        for key in keys:
            assert all(os.path.isfile(view._entry_path(key)) for view in views)
            assert all(view.contains(key) for view in views)
        assert sorted(os.listdir(tmp_path)) == _made(views[0])

    @pytest.mark.parametrize("n", INSTANCES)
    def test_round_trip_is_byte_identical_to_flat(self, tmp_path, n):
        views = _instances(tmp_path, n)
        for i in range(6):
            key = run_key("test.shared", {"i": i}, seed=i)
            views[i % n].put(key, _payload(i))
            for view in views:
                assert result_fingerprint(view.get(key)) == result_fingerprint(
                    _payload(i)
                )

    def test_shard_count_must_be_positive(self, tmp_path, capsys):
        """``--shards`` is an argparse error on every store subcommand."""
        store = str(tmp_path / "store")
        for command in STORE_COMMANDS:
            with pytest.raises(SystemExit) as exit_info:
                main([*command, "--store", store, "--shards", "2"])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --shards 2" in err, command
        assert not os.path.exists(store)

    @pytest.mark.parametrize("n", INSTANCES)
    def test_per_shard_summary_sums_to_global(self, tmp_path, n):
        """Every instance reports the same summary: the count and byte
        total of the entries it lists."""
        views = _instances(tmp_path, n)
        _populate(*views)
        listed = views[0].ls(with_meta=False)
        assert len(listed) == 12
        expected = (12, sum(entry.size_bytes for entry in listed))
        for view in views:
            assert view.summary() == expected
            assert view.total_bytes() == expected[1]


class TestGlobalOrderIdentity:
    """``ls``/``gc`` through any of ``n`` instances equals a
    single-instance store over the same corpus, key for key."""

    @pytest.mark.parametrize("n", INSTANCES)
    def test_ls_merges_shards_oldest_first(self, tmp_path, n):
        single = RunStore(tmp_path / "single")
        views = _instances(tmp_path / "shared", n)
        _populate(single)
        _populate(*views)
        expected = [(e.key, e.size_bytes, e.mtime) for e in single.ls()]
        assert [mtime for _, _, mtime in expected] == sorted(
            mtime for _, _, mtime in expected
        )
        for view in views:
            assert [(e.key, e.size_bytes, e.mtime) for e in view.ls()] == expected
            for limit in (0, 1, 5, 12, 50):
                assert [e.key for e in view.ls(limit=limit)] == [
                    e.key for e in single.ls(limit=limit)
                ]
            assert view.summary() == single.summary()
        # ls(limit=) reads metadata for exactly the returned entries.
        assert views[-1].ls(limit=3)[0].scenario == "test.shared"

    @pytest.mark.parametrize("n", INSTANCES)
    def test_gc_eviction_sets_and_order_match_flat(self, tmp_path, n):
        single = RunStore(tmp_path / "single")
        views = _instances(tmp_path / "shared", n)
        _populate(single)
        keys = _populate(*views)
        for view in views:  # every instance has seen every key present
            assert view.contains_many(keys) == [True] * len(keys)
        budget = single.total_bytes() // 3
        expected = single.gc(max_total_bytes=budget)
        assert views[-1].gc(max_total_bytes=budget) == expected
        assert views[-1].stats.evictions == single.stats.evictions
        for view in views:
            assert [e.key for e in view.ls()] == [e.key for e in single.ls()]
            assert view.total_bytes() == single.total_bytes() <= budget
            assert view.contains_many(keys) == [k not in expected for k in keys]

    @pytest.mark.parametrize("n", INSTANCES)
    def test_gc_by_age_matches_flat(self, tmp_path, n):
        single = RunStore(tmp_path / "single")
        views = _instances(tmp_path / "shared", n)
        base = 1_000_000_000.0
        _populate(single, base_mtime=base)
        keys = _populate(*views, base_mtime=base)
        for view in views:
            view.contains_many(keys)
        kwargs = {"max_age_seconds": 6 * 60.0, "now": base + 12 * 60.0}
        expected = single.gc(**kwargs)
        assert len(expected) == 6
        assert views[0].gc(**kwargs) == expected
        for view in views:
            assert [e.key for e in view.ls()] == [e.key for e in single.ls()]
            assert view.contains_many(keys) == [k not in expected for k in keys]

    def test_gc_fanout_recovers_from_injected_shard_fault(self, tmp_path):
        """gc starts no backend task, so a plan that fails every task
        past any retry leaves its eviction set unchanged."""
        plain = RunStore(tmp_path / "plain")
        faulted = RunStore(tmp_path / "faulted")
        _populate(plain)
        _populate(faulted)
        budget = plain.total_bytes() // 2
        expected = plain.gc(max_total_bytes=budget)
        with injected(FaultPlan(rate=1.0, fail_attempts=100)):
            with pytest.raises(TaskFailed):  # the plan is live
                get_backend("serial").map(abs, [-1])
            evicted = faulted.gc(max_total_bytes=budget)
        assert evicted == expected
        assert [e.key for e in faulted.ls()] == [e.key for e in plain.ls()]


#: Retired layout -> the words naming it in the refusal.
REFUSALS = {
    "shards": "holds shards/, the retired sharded layout",
    "objects": "holds objects/, the retired two-file entry layout",
    "runs": "holds runs/, the retired layout of .npy entry records",
}
RETIRED_LAYOUTS = pytest.mark.parametrize("layout", list(RETIRED))


class TestMigration:
    """A root a retired layout wrote is refused, untouched."""

    @RETIRED_LAYOUTS
    def test_open_refuses_a_retired_root(self, tmp_path, layout):
        _retired_root(tmp_path, layout)
        with pytest.raises(SimulationError, match=REFUSALS[layout]) as exc:
            RunStore(tmp_path)
        assert "a store is a cache: delete it and rerun" in str(exc.value)

    @RETIRED_LAYOUTS
    def test_cli_ls_refuses_a_retired_root(self, tmp_path, layout):
        """``python -m repro ensemble ls`` refuses it: exit code 1, the
        message as one line on stderr, nothing listed."""
        root = tmp_path / "store"
        _retired_root(root, layout)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        out = subprocess.run(
            [sys.executable, "-m", "repro", "ensemble", "ls", "--store", str(root)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 1
        assert REFUSALS[layout] in out.stderr
        assert out.stderr.endswith("delete it and rerun\n")
        assert out.stderr.count("\n") == 1
        assert out.stdout == ""

    @pytest.mark.parametrize("command", STORE_COMMANDS, ids=" ".join)
    def test_every_store_command_refuses_in_one_line(self, tmp_path, command):
        """Exit code 1, and stderr holds the refusal and nothing else."""
        root = tmp_path / "store"
        _retired_root(root, "shards")
        with pytest.raises(SimulationError) as refusal:
            RunStore(root)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        out = subprocess.run(
            [sys.executable, "-m", "repro", *command, "--store", str(root)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 1
        assert out.stderr == f"{refusal.value}\n"
        assert out.stdout == ""

    @RETIRED_LAYOUTS
    def test_the_refusal_creates_nothing(self, tmp_path, layout):
        """The refusal comes before the store creates anything."""
        _retired_root(tmp_path, layout)
        before = _tree(tmp_path)
        with pytest.raises(SimulationError):
            RunStore(tmp_path)
        assert _tree(tmp_path) == before
        assert sorted(os.listdir(tmp_path)) == [layout]

    def test_deleting_the_root_and_rerunning_works(self, tmp_path):
        """Following the message works: delete the root and rerun."""
        root = tmp_path / "store"
        _retired_root(root, "objects")
        with pytest.raises(SimulationError):
            RunStore(root)
        shutil.rmtree(root)
        cold = run_ensemble(chain(4), store=RunStore(root))
        assert cold.ok and cold.nodes_run == 4
        assert RunStore(root).summary()[0] == 4


class TestOpenStoreFactory:
    """The flat layout is the only one, whatever the environment says."""

    def test_explicit_shards_and_flat_default(self, tmp_path):
        store = RunStore(tmp_path / "a")
        assert sorted(os.listdir(store.root)) == _made(store)
        (key,) = _populate(store, count=1)
        reopened = RunStore(tmp_path / "a")
        assert result_fingerprint(reopened.get(key)) == result_fingerprint(
            _payload(0)
        )
        assert sorted(os.listdir(store.root)) == _made(store)

    def test_env_var_and_detection(self, tmp_path, monkeypatch):
        """A set ``REPRO_STORE_SHARDS`` is ignored by the API."""
        monkeypatch.setenv("REPRO_STORE_SHARDS", "3")
        store = RunStore(tmp_path / "via-env")
        keys = _populate(store, count=4)
        assert not os.path.exists(os.path.join(store.root, "shards"))
        assert all(os.path.isfile(store._entry_path(key)) for key in keys)
        reopened = RunStore(store.root)
        assert [e.key for e in reopened.ls()] == [e.key for e in store.ls()]

    def test_env_var_must_be_integer(self, tmp_path, monkeypatch, capsys):
        """A set ``REPRO_STORE_SHARDS``, even one that is no integer, is
        ignored by the CLI."""
        monkeypatch.setenv("REPRO_STORE_SHARDS", "many")
        root = tmp_path / "store"
        assert main(["ensemble", "ls", "--store", str(root)]) == 0
        assert "is empty" in capsys.readouterr().out
        assert main(["ensemble", "gc", "--store", str(root)]) == 0
        made = sorted(os.listdir(root))
        assert made == _made(RunStore(root))


class TestSchedulerAndDeltaOverShards:
    """Runs and what-if cones read through an instance that did not
    write the entries."""

    def test_warm_rerun_serves_every_node_byte_identically(self, tmp_path):
        cold = run_ensemble(chain(4), store=RunStore(tmp_path))
        warm = run_ensemble(chain(4), store=RunStore(tmp_path))
        assert cold.ok and warm.ok
        assert warm.nodes_cached == 4 and warm.nodes_run == 0
        assert warm.fingerprints() == cold.fingerprints()

    def test_delta_cone_executes_against_sharded_store(self, tmp_path):
        writer = RunStore(tmp_path)
        base = chain(4)
        assert run_ensemble(base, store=writer).ok
        target = perturb(base, params={"n2": {"x": 41}})
        outcome = delta_run(target, RunStore(tmp_path), base=base)
        outcome.raise_if_failed()
        assert outcome.nodes_run == 2  # n2 + its downstream n3
        assert outcome.nodes_reused == 2
        rerun = run_ensemble(target, store=writer)
        assert rerun.nodes_cached == 4
        assert outcome.fingerprints().items() <= rerun.fingerprints().items()


class TestConcurrencyRegressions:
    def test_gc_restats_after_racing_put(self, tmp_path):
        """Satellite bugfix: a put racing the size pass cannot leave the
        store above ``max_total_bytes`` when everything is evictable."""

        store = RunStore(tmp_path)
        _populate(store, count=4)
        entry_size = store.ls(with_meta=False)[0].size_bytes
        budget = int(entry_size * 1.5)  # room for exactly one entry

        real_evict_many = store._evict_many
        raced = {"done": False}

        def racing_evict_many(keys):
            removed = real_evict_many(keys)
            if not raced["done"]:
                raced["done"] = True
                # A concurrent writer lands *after* the eviction batch
                # but before gc returns — the stale snapshotted total
                # knew nothing about these bytes.
                for i in (100, 101):
                    store.put(
                        run_key("test.shared", {"i": i}, seed=i),
                        _payload(i),
                    )
            return removed

        store._evict_many = racing_evict_many
        try:
            store.gc(max_total_bytes=budget)
        finally:
            store._evict_many = real_evict_many
        assert raced["done"]
        assert store.total_bytes() <= budget

    @pytest.mark.parametrize("n", (1, 4))
    def test_eight_thread_put_evict_gc_hammer(self, tmp_path, n):
        """Eight threads, thread ``w`` working through instance
        ``w % n`` of ``n`` sharing the root."""
        views = _instances(tmp_path, n)
        seeded = _populate(*views, count=8)
        budget = views[0].total_bytes() * 2
        errors = []
        barrier = threading.Barrier(8)

        def worker(worker_id: int) -> None:
            store = views[worker_id % n]
            try:
                barrier.wait()
                for i in range(12):
                    tag = worker_id * 1000 + i
                    key = run_key("test.shared", {"i": tag}, seed=tag)
                    store.put(key, _payload(tag))
                    got = store.get(key)
                    assert got is None or got["tag"] == f"run-{tag}"
                    store.evict(seeded[(worker_id + i) % len(seeded)])
                    if i % 4 == worker_id % 4:
                        store.gc(max_total_bytes=budget)
                    store.get(run_key("test.shared", {"i": tag}, seed=tag))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Post-hammer invariants: a final quiesced gc lands (and keeps)
        # the store under budget, every surviving entry is readable, and
        # every instance agrees with a per-key stat.
        views[0].gc(max_total_bytes=budget)
        listed = [entry.key for entry in views[0].ls(with_meta=False)]
        for view in views:
            assert view.total_bytes() <= budget
            assert all(view.get(key) is not None for key in listed)
            assert view.contains_many(seeded) == [
                view.contains(key) for key in seeded
            ]
