"""BENCH_shard — the sharded data plane: store gc/ls + co-partitioned join.

Two workloads, one artifact:

* **Store maintenance across shard counts** — the same content-addressed
  corpus (pinned mtimes, oldest-first eviction order) is written into a
  flat :class:`~repro.ensemble.store.RunStore` and into
  :class:`~repro.ensemble.store.ShardedRunStore` layouts at several
  shard counts, then ``ls`` and a size-bounded ``gc`` are timed.  The
  headline is not speed — per-shard stat passes and the fanned-out
  eviction batches must produce *byte-identical eviction sets in
  identical order* at every shard count, with gc overhead staying
  bounded relative to the flat store.
* **Co-partitioned join vs shuffle join** — a fact/dim equi-join runs
  through the plain columnar hash join (the "shuffle" baseline: all
  rows of both sides flow through one build/probe), then through the
  co-partitioned executor (shard-i-against-shard-i, no redistribution)
  on the serial, thread, and process backends.  Fingerprints must match
  the baseline exactly; the recorded ``shuffle_bytes_avoided`` is the
  payload volume that never had to move.

Headline claims (asserted at full size):

* gc eviction sets and orders are identical at every shard count;
* join fingerprints are identical to the hash-join baseline on every
  backend, and the optimizer actually picked ``co_partitioned``;
* serial co-partitioned execution costs at most 3x the plain hash
  join, and sharded gc costs at most 3x flat gc (overhead bounded);
* the best parallel backend >= 1.1x over the hash-join baseline when
  ``usable_cpus > 1`` (reported either way, asserted only with real
  parallelism).
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks._util import (
    BenchConfig,
    format_table,
    host_info,
    save_json,
    save_report,
    timed,
)
from repro.engine import Database, Schema, parse_select
from repro.engine import plan as lp
from repro.ensemble.store import RunStore, ShardedRunStore, result_fingerprint

JOIN_SQL = (
    "SELECT f.k, d.mult FROM fact f JOIN dim d ON f.k = d.k"
)


# -- store maintenance across shard counts --------------------------------


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


# -- co-partitioned join vs shuffle join ----------------------------------


def build_database(num_rows: int, dim_rows: int, seed: int = 5) -> Database:
    rng = np.random.default_rng(seed)
    ks = rng.integers(0, dim_rows, num_rows)
    xs = rng.uniform(0.0, 1.0, num_rows)
    db = Database()
    db.create_table("fact", Schema.of(k=int, x=float))
    db.create_table("dim", Schema.of(k=int, mult=float))
    fact = db.table("fact")
    for i in range(num_rows):
        fact.insert({"k": int(ks[i]), "x": float(xs[i])})
    dim = db.table("dim")
    for k in range(dim_rows):
        dim.insert({"k": k, "mult": float(k) * 0.5})
    return db


def _join_modes(partitions: int):
    return [
        ("hash", None, "serial"),
        ("co-serial", partitions, "serial"),
        ("co-thread", partitions, "thread"),
        ("co-process", partitions, "process"),
    ]


def _chosen_algorithm(db):
    plan = db.optimize_plan(parse_select(JOIN_SQL))
    joins = [n for n in lp.walk(plan) if isinstance(n, lp.Join)]
    return joins[0].algorithm


def _run_join(db, partitions, backend, morsel_size):
    previous = os.environ.get("REPRO_BACKEND")
    os.environ["REPRO_BACKEND"] = backend
    if partitions is not None:
        db.partition_table("fact", "k", partitions)
        db.partition_table("dim", "k", partitions)
    try:
        if partitions is None:
            return db.sql(JOIN_SQL, execution="columnar")
        assert _chosen_algorithm(db) == "co_partitioned"
        return db.sql(JOIN_SQL, morsel_size=morsel_size)
    finally:
        for name in ("fact", "dim"):
            if db.partitioning(name) is not None:
                db.unpartition_table(name)
        if previous is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = previous


def join_experiment(config: BenchConfig):
    num_rows = 4_000 if config.quick else 120_000
    dim_rows = 64 if config.quick else 512
    usable = host_info()["usable_cpus"]
    partitions = max(2, min(usable, 8))
    morsel_size = max(1, num_rows // (2 * partitions))
    db = build_database(num_rows, dim_rows)

    fingerprints = {}
    seconds = {}
    rows = []
    for mode, parts, backend in _join_modes(partitions):
        _run_join(db, parts, backend, morsel_size)  # warm-up
        result, elapsed = timed(
            _run_join, db, parts, backend, morsel_size
        )
        fingerprints[mode] = result_fingerprint(result)
        seconds[mode] = elapsed
        rows.append(
            (
                mode,
                num_rows,
                elapsed,
                seconds["hash"] / elapsed,
                fingerprints[mode] == fingerprints["hash"],
            )
        )
    identical = len(set(fingerprints.values())) == 1
    speedups = {
        "serial_vs_hash": seconds["hash"] / seconds["co-serial"],
        "thread_vs_hash": seconds["hash"] / seconds["co-thread"],
        "process_vs_hash": seconds["hash"] / seconds["co-process"],
    }
    return {
        "rows": rows,
        "speedups": speedups,
        "identical": identical,
        "num_rows": num_rows,
        "dim_rows": dim_rows,
        "partitions": partitions,
        "morsel_size": morsel_size,
        "usable_cpus": usable,
    }


# -- harness ---------------------------------------------------------------

STORE_HEADERS = [
    "layout", "entries", "ls s", "gc s", "evicted", "survivors",
]
JOIN_HEADERS = ["mode", "rows", "seconds", "x vs hash", "identical"]


def run_experiment(config: BenchConfig = BenchConfig()):
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-shard-") as tmp_root:
        store = store_experiment(tmp_root, config)
    join = join_experiment(config)
    return {"store": store, "join": join, "usable_cpus": join["usable_cpus"]}


def _record(outcome, quick):
    store, join = outcome["store"], outcome["join"]
    report = (
        "store maintenance (gc/ls across shard counts)\n"
        + format_table(STORE_HEADERS, store["rows"])
        + "\n\nco-partitioned join vs shuffle (hash) join\n"
        + format_table(JOIN_HEADERS, join["rows"])
    )
    save_report("BENCH_shard", report)
    save_json(
        "BENCH_shard",
        {
            "config": {
                "quick": quick,
                "store_entries": store["entries"],
                "join_rows": join["num_rows"],
                "dim_rows": join["dim_rows"],
                "partitions": join["partitions"],
                "morsel_size": join["morsel_size"],
                "usable_cpus": outcome["usable_cpus"],
            },
            "store": {
                "columns": STORE_HEADERS,
                "rows": [list(row) for row in store["rows"]],
                "gc_seconds": store["gc_seconds"],
                "evictions_identical": store["evictions_identical"],
                "evicted": store["evicted"],
            },
            "join": {
                "columns": JOIN_HEADERS,
                "rows": [list(row) for row in join["rows"]],
                "speedups": join["speedups"],
                "identical": join["identical"],
            },
            "note": (
                "store rows compare the flat RunStore against "
                "ShardedRunStore layouts on one corpus with pinned "
                "mtimes — gc eviction sets/orders must be identical at "
                "every shard count; join rows compare the plain hash "
                "join against the co-partitioned executor "
                "(shard-i-vs-shard-i, no shuffle) with speedups "
                "relative to the hash baseline"
            ),
        },
    )


def _assert_claims(outcome, quick):
    store, join = outcome["store"], outcome["join"]
    assert store["evictions_identical"], "gc eviction sets diverged"
    assert join["identical"], "join fingerprints diverged"
    # Overhead stays bounded when sharding/partitioning buys nothing.
    flat_gc = store["gc_seconds"]["flat"]
    for label, gc_s in store["gc_seconds"].items():
        assert gc_s <= max(flat_gc * 3.0, flat_gc + 0.5), (label, gc_s)
    assert join["speedups"]["serial_vs_hash"] >= (
        0.25 if quick else 1 / 3.0
    ), join["speedups"]
    # Parallel speedup, asserted only with real parallelism.
    if outcome["usable_cpus"] > 1 and not quick:
        best = max(
            join["speedups"]["thread_vs_hash"],
            join["speedups"]["process_vs_hash"],
        )
        assert best >= 1.1, join["speedups"]


def test_shard_store(benchmark, bench_config):
    outcome = benchmark.pedantic(
        run_experiment, args=(bench_config,), rounds=1, iterations=1
    )
    _record(outcome, bench_config.quick)
    _assert_claims(outcome, bench_config.quick)


if __name__ == "__main__":
    config = BenchConfig.from_env()
    result = run_experiment(config)
    _record(result, config.quick)
    _assert_claims(result, config.quick)
