"""Sharded RunStore: global-order identity, parallel gc, migration.

The first half of the sharded data plane answers to one oracle: a
:class:`ShardedRunStore` is *semantically* the flat :class:`RunStore`
at every shard count — ``get``/``put`` round-trips, global oldest-first
``ls(limit=)`` order, and size-ordered ``gc`` eviction sets must be
byte-/order-identical to the flat store over the same corpus — while
its gc deletions fan one-shard-per-task through the substrate under
the ``store.shard`` fault scope.  This file also pins the two store
concurrency bugfixes: the gc size pass re-derives its total from
surviving entries (a racing ``put`` can no longer leave the store above
``max_total_bytes``), and an 8-thread put/evict/gc hammer leaves a
consistent store.
"""

from __future__ import annotations

import os
import shutil
import threading

import numpy as np
import pytest

from repro.ensemble import run_ensemble
from repro.ensemble.store import (
    STORE_SHARD_SCOPE,
    RunStore,
    ShardedRunStore,
    detect_shards,
    open_store,
    result_fingerprint,
    run_key,
)
from repro.delta import delta_run
from repro.errors import SimulationError
from repro.parallel.keys import partition_index
from repro.faults.plan import FaultPlan, injected
from tests.test_ensemble import chain

SHARD_COUNTS = (1, 2, 7)


def _payload(i: int):
    return {
        "series": np.arange(16, dtype=np.float64) * (i + 1),
        "scalar": float(i),
        "tag": f"run-{i}",
    }


def _populate(store, count=12, base_mtime=1_000_000_000.0):
    """Put ``count`` entries with deterministic, distinct pinned mtimes.

    Ages are deliberately *not* in put order (entry i gets mtime
    ``base + ((i * 5) % count)``) so oldest-first ordering exercises the
    merge, not the insertion sequence.
    """
    keys = []
    for i in range(count):
        key = run_key("test.sharded", {"i": i}, seed=i)
        store.put(key, _payload(i), scenario="test.sharded", seed=i)
        stamp = base_mtime + ((i * 5) % count) * 60.0
        for candidate in store._candidate_dirs(key):
            run_path = os.path.join(candidate, "run.json")
            if os.path.exists(run_path):
                os.utime(run_path, (stamp, stamp))
        keys.append(key)
    return keys


class TestLayoutAndRoundTrip:
    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_entries_land_in_their_crc_shard(self, tmp_path, n):
        store = ShardedRunStore(tmp_path, shards=n)
        keys = _populate(store, count=8)
        for key in keys:
            shard = partition_index(key, n)
            assert store.shard_of(key) == shard
            entry_dir = os.path.join(
                str(tmp_path), "shards", str(shard), "objects", key[:2], key
            )
            assert os.path.isfile(os.path.join(entry_dir, "run.json"))
            assert store.contains(key)

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_round_trip_is_byte_identical_to_flat(self, tmp_path, n):
        flat = RunStore(tmp_path / "flat")
        sharded = ShardedRunStore(tmp_path / "sharded", shards=n)
        for i in range(6):
            key = run_key("test.sharded", {"i": i}, seed=i)
            flat.put(key, _payload(i))
            sharded.put(key, _payload(i))
            assert result_fingerprint(sharded.get(key)) == result_fingerprint(
                flat.get(key)
            )

    def test_shard_count_must_be_positive(self, tmp_path):
        with pytest.raises(SimulationError):
            ShardedRunStore(tmp_path, shards=0)

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_per_shard_summary_sums_to_global(self, tmp_path, n):
        store = ShardedRunStore(tmp_path, shards=n)
        _populate(store)
        per_shard = store.per_shard_summary()
        assert len(per_shard) == n
        count, size = store.summary()
        assert sum(c for c, _ in per_shard) == count == 12
        assert sum(s for _, s in per_shard) == size


class TestGlobalOrderIdentity:
    """``ls``/``gc`` over shards equals the flat store, key for key."""

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_ls_merges_shards_oldest_first(self, tmp_path, n):
        flat = RunStore(tmp_path / "flat")
        sharded = ShardedRunStore(tmp_path / "sharded", shards=n)
        _populate(flat)
        _populate(sharded)
        flat_ls = [(e.key, e.size_bytes, e.mtime) for e in flat.ls()]
        shard_ls = [(e.key, e.size_bytes, e.mtime) for e in sharded.ls()]
        assert shard_ls == flat_ls
        for limit in (0, 1, 5, 12, 50):
            assert [e.key for e in sharded.ls(limit=limit)] == [
                e.key for e in flat.ls(limit=limit)
            ]
        # ls(limit=) reads metadata for exactly the returned entries.
        entry = sharded.ls(limit=3)[0]
        assert entry.scenario == "test.sharded"
        assert flat.summary() == sharded.summary()

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_gc_eviction_sets_and_order_match_flat(self, tmp_path, n):
        flat = RunStore(tmp_path / "flat")
        sharded = ShardedRunStore(tmp_path / "sharded", shards=n)
        _populate(flat)
        _populate(sharded)
        budget = flat.total_bytes() // 3
        flat_evicted = flat.gc(max_total_bytes=budget)
        shard_evicted = sharded.gc(max_total_bytes=budget)
        assert shard_evicted == flat_evicted
        assert [e.key for e in sharded.ls()] == [e.key for e in flat.ls()]
        assert sharded.total_bytes() == flat.total_bytes() <= budget
        assert sharded.stats.evictions == flat.stats.evictions

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_gc_by_age_matches_flat(self, tmp_path, n):
        flat = RunStore(tmp_path / "flat")
        sharded = ShardedRunStore(tmp_path / "sharded", shards=n)
        base = 1_000_000_000.0
        _populate(flat, base_mtime=base)
        _populate(sharded, base_mtime=base)
        now = base + 12 * 60.0
        kwargs = {"max_age_seconds": 6 * 60.0, "now": now}
        assert sharded.gc(**kwargs) == flat.gc(**kwargs)
        assert [e.key for e in sharded.ls()] == [e.key for e in flat.ls()]

    def test_gc_fanout_recovers_from_injected_shard_fault(self, tmp_path):
        plain = ShardedRunStore(tmp_path / "plain", shards=4)
        faulted = ShardedRunStore(tmp_path / "faulted", shards=4)
        _populate(plain)
        _populate(faulted)
        budget = plain.total_bytes() // 2
        expected = plain.gc(max_total_bytes=budget)
        plan = FaultPlan(failures={(STORE_SHARD_SCOPE, 0): 1})
        with injected(plan):
            evicted = faulted.gc(max_total_bytes=budget)
        # The killed first attempt of shard task 0 is retried by the
        # substrate's default policy; the eviction worker is idempotent,
        # so the outcome is byte-identical to the fault-free store.
        assert evicted == expected
        assert [e.key for e in faulted.ls()] == [e.key for e in plain.ls()]


class TestMigration:
    def test_sharded_store_reads_flat_layout_transparently(self, tmp_path):
        flat = RunStore(tmp_path)
        keys = _populate(flat)
        baseline = [result_fingerprint(flat.get(k)) for k in keys]
        reopened = ShardedRunStore(tmp_path, shards=3)
        assert all(reopened.contains(k) for k in keys)
        assert [
            result_fingerprint(reopened.get(k)) for k in keys
        ] == baseline
        assert [e.key for e in reopened.ls()] == [e.key for e in flat.ls()]

    def test_migrate_layout_moves_entries_into_shards(self, tmp_path):
        flat = RunStore(tmp_path)
        keys = _populate(flat)
        store = ShardedRunStore(tmp_path, shards=3)
        order_before = [e.key for e in store.ls(with_meta=False)]
        assert store.migrate_layout() == len(keys)
        assert store.migrate_layout() == 0  # idempotent
        for key in keys:
            shard_dir = store._candidate_dirs(key)[0]
            flat_dir = store._candidate_dirs(key)[1]
            assert os.path.isdir(shard_dir)
            assert not os.path.isdir(flat_dir)
            assert store.get(key) is not None
        # rename preserves mtimes, so the global order is unchanged.
        assert [e.key for e in store.ls(with_meta=False)] == order_before

    def test_migrate_drops_flat_duplicate_of_sharded_entry(self, tmp_path):
        store = ShardedRunStore(tmp_path, shards=3)
        (key,) = _populate(store, count=1)
        shard_dir, flat_dir = store._candidate_dirs(key)
        shutil.copytree(shard_dir, flat_dir)
        assert store.migrate_layout() == 0
        assert not os.path.isdir(flat_dir)
        assert store.get(key) is not None

    def test_gc_covers_unmigrated_flat_entries(self, tmp_path):
        flat = RunStore(tmp_path)
        keys = _populate(flat)
        store = ShardedRunStore(tmp_path, shards=3)
        evicted = store.gc(max_total_bytes=0)
        assert sorted(evicted) == sorted(keys)
        assert store.summary() == (0, 0)
        assert RunStore(tmp_path).ls() == []  # flat copies gone too


class TestOpenStoreFactory:
    def test_explicit_shards_and_flat_default(self, tmp_path):
        flat = open_store(tmp_path / "a")
        assert type(flat) is RunStore
        sharded = open_store(tmp_path / "b", shards=5)
        assert isinstance(sharded, ShardedRunStore)
        assert sharded.shards == 5
        assert type(open_store(tmp_path / "c", shards=0)) is RunStore

    def test_env_var_and_detection(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_SHARDS", "3")
        store = open_store(tmp_path / "via-env")
        assert isinstance(store, ShardedRunStore) and store.shards == 3
        monkeypatch.delenv("REPRO_STORE_SHARDS")
        # An existing sharded layout is detected without any knobs.
        assert detect_shards(tmp_path / "via-env") == 3
        reopened = open_store(tmp_path / "via-env")
        assert isinstance(reopened, ShardedRunStore)
        assert reopened.shards == 3
        assert detect_shards(tmp_path / "nope") is None

    def test_env_var_must_be_integer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_SHARDS", "many")
        with pytest.raises(SimulationError):
            open_store(tmp_path)


class TestSchedulerAndDeltaOverShards:
    def test_warm_rerun_serves_every_node_byte_identically(self, tmp_path):
        flat_result = run_ensemble(chain(4), store=RunStore(tmp_path / "f"))
        store = ShardedRunStore(tmp_path / "s", shards=3)
        cold = run_ensemble(chain(4), store=store)
        warm = run_ensemble(chain(4), store=store)
        assert cold.ok and warm.ok
        assert warm.nodes_cached == 4 and warm.nodes_run == 0
        assert warm.fingerprints() == cold.fingerprints()
        assert warm.fingerprints() == flat_result.fingerprints()

    def test_delta_cone_executes_against_sharded_store(self, tmp_path):
        from repro.delta import perturb

        store = ShardedRunStore(tmp_path, shards=3)
        base = chain(4)
        cold = run_ensemble(base, store=store)
        assert cold.ok
        target = perturb(base, params={"n2": {"x": 41}})
        outcome = delta_run(target, store, base=base)
        outcome.raise_if_failed()
        assert outcome.nodes_run == 2  # n2 + its downstream n3
        assert outcome.nodes_reused == 2


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
                        run_key("test.sharded", {"i": i}, seed=i),
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
        store = ShardedRunStore(tmp_path, shards=n)
        seeded = _populate(store, count=8)
        budget = store.total_bytes() * 2
        errors = []
        barrier = threading.Barrier(8)

        def worker(worker_id: int) -> None:
            try:
                barrier.wait()
                for i in range(12):
                    tag = worker_id * 1000 + i
                    key = run_key("test.sharded", {"i": tag}, seed=tag)
                    store.put(key, _payload(tag))
                    got = store.get(key)
                    assert got is None or got["tag"] == f"run-{tag}"
                    store.evict(seeded[(worker_id + i) % len(seeded)])
                    if i % 4 == worker_id % 4:
                        store.gc(max_total_bytes=budget)
                    store.get(run_key("test.sharded", {"i": tag}, seed=tag))
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
        # the store under budget, and every surviving entry is readable.
        store.gc(max_total_bytes=budget)
        assert store.total_bytes() <= budget
        for entry in store.ls(with_meta=False):
            assert store.get(entry.key) is not None
