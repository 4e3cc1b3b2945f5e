"""BENCH_shard — the sharded data plane: store gc/ls across shard counts.

The same content-addressed corpus (pinned mtimes, oldest-first eviction
order) is written into a flat :class:`~repro.ensemble.store.RunStore`
and into :class:`~repro.ensemble.store.ShardedRunStore` layouts at
several shard counts, then ``ls`` and a size-bounded ``gc`` are timed.
The headline is not speed — per-shard stat passes and the fanned-out
eviction batches must produce *byte-identical eviction sets in
identical order* at every shard count, with gc overhead staying
bounded relative to the flat store.

Headline claims (asserted at every size):

* gc eviction sets and orders are identical at every shard count;
* sharded gc costs at most 3x flat gc (overhead bounded).
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks._util import (
    BenchConfig,
    format_table,
    save_json,
    save_report,
    timed,
)
from repro.ensemble.store import RunStore, ShardedRunStore


def _populate(store, count, payload_floats, base_mtime=1_700_000_000.0):
    """``count`` entries with pinned, shuffled mtimes (deterministic gc)."""
    rng = np.random.default_rng(11)
    keys = []
    for i in range(count):
        key = f"{i:03d}" + "c" * 61  # 64 hex-ish chars, distinct prefixes
        store.put(
            key,
            {"series": rng.uniform(0.0, 1.0, payload_floats), "tag": i},
            scenario="bench.shard",
            seed=i,
        )
        mtime = base_mtime + ((i * 7) % count) * 60.0
        run_path = os.path.join(store._candidate_dirs(key)[0], "run.json")
        os.utime(run_path, (mtime, mtime))
        keys.append(key)
    return keys


def _store_for(root, shards, backend):
    if shards == 0:
        return RunStore(root)
    return ShardedRunStore(root, shards=shards, backend=backend)


def store_experiment(tmp_root, config: BenchConfig):
    count = 16 if config.quick else 96
    payload_floats = 2_000 if config.quick else 40_000
    shard_counts = [0, 2, 4, 8]  # 0 = flat baseline
    rows = []
    evictions = {}
    gc_seconds = {}
    for shards in shard_counts:
        root = os.path.join(tmp_root, f"shards-{shards}")
        store = _store_for(root, shards, config.backend)
        _populate(store, count, payload_floats)
        budget = store.total_bytes() // 2
        _, ls_s = timed(store.ls, with_meta=False)
        evicted, gc_s = timed(store.gc, max_total_bytes=budget)
        survivors, _ = store.summary()
        label = "flat" if shards == 0 else f"shard-{shards}"
        evictions[label] = list(evicted)
        gc_seconds[label] = gc_s
        rows.append((label, count, ls_s, gc_s, len(evicted), survivors))
    identical = all(
        keys == evictions["flat"] for keys in evictions.values()
    )
    return {
        "rows": rows,
        "gc_seconds": gc_seconds,
        "evictions_identical": identical,
        "entries": count,
        "evicted": len(evictions["flat"]),
    }


# -- harness ---------------------------------------------------------------

STORE_HEADERS = [
    "layout", "entries", "ls s", "gc s", "evicted", "survivors",
]


def run_experiment(config: BenchConfig = BenchConfig()):
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-shard-") as tmp_root:
        return store_experiment(tmp_root, config)


def _record(store, quick):
    report = (
        "store maintenance (gc/ls across shard counts)\n"
        + format_table(STORE_HEADERS, store["rows"])
    )
    save_report("BENCH_shard", report)
    save_json(
        "BENCH_shard",
        {
            "config": {"quick": quick, "store_entries": store["entries"]},
            "store": {
                "columns": STORE_HEADERS,
                "rows": [list(row) for row in store["rows"]],
                "gc_seconds": store["gc_seconds"],
                "evictions_identical": store["evictions_identical"],
                "evicted": store["evicted"],
            },
            "note": (
                "store rows compare the flat RunStore against "
                "ShardedRunStore layouts on one corpus with pinned "
                "mtimes — gc eviction sets/orders must be identical at "
                "every shard count"
            ),
        },
    )


def _assert_claims(store):
    assert store["evictions_identical"], "gc eviction sets diverged"
    # Overhead stays bounded when sharding buys nothing.
    flat_gc = store["gc_seconds"]["flat"]
    for label, gc_s in store["gc_seconds"].items():
        assert gc_s <= max(flat_gc * 3.0, flat_gc + 0.5), (label, gc_s)


def test_shard_store(benchmark, bench_config):
    store = benchmark.pedantic(
        run_experiment, args=(bench_config,), rounds=1, iterations=1
    )
    _record(store, bench_config.quick)
    _assert_claims(store)


if __name__ == "__main__":
    config = BenchConfig.from_env()
    result = run_experiment(config)
    _record(result, config.quick)
    _assert_claims(result)
