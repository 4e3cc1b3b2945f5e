"""``analytics``: one analyst in a closed loop over an in-process database.

Inputs come from the seed: a NULL-rich 100k-row fact table (4 regions
plus NULLs, about 5k groups, float and int measures with NULLs), a
4-row dimension table, two 50k-row tables hash-partitioned 4 ways on
their join key, and the paper's SBP_DATA set-up (150 patients and one
Normal-VG random table).  Eight op classes run in a seeded interleaving
with seeded constants; every round holds each class a fixed number of
times, so a different seed changes order and constants but not the mix.

Every SQL statement goes through the engine's three public calls
(``parse_statement`` → ``Database.optimize_plan`` →
``Database.execute_plan(plan, optimized=False)``), which is what lets
the traced mode time parse, optimize and execute separately from here.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench.common import (
    NoSpans,
    Speed,
    gated_metrics,
    latency_metrics,
    metric,
    peak_rss_mb,
    percentile,
    user_cpu_s,
)
from perfbench import layers
from repro.engine import Database, Schema
from repro.ensemble.store import result_fingerprint
from repro.mcdb import NormalVG, RandomTableSpec

#: Full-size inputs; ``scale`` shrinks the table sizes for tests.
FACT_ROWS = 100_000
GROUPS = 5_000
PART_ROWS = 50_000
PART_KEYS = 20_000
PATIENTS = 150
APPEND_ROWS = 1_000
NAIVE_WORLDS = 20
BUNDLED_WORLDS = 500
PARTITIONS = 4
REGIONS = ("north", "south", "east", "west")

#: One round of the closed loop: how often each class runs.  The counts
#: put each percentile inside one cluster of similar ops, never where two
#: meet (there it moved with the order of a few ops: spread 0.09 over four
#: seeds): the median among ``group_many`` and the joins, p95 in the
#: middle of the ``mc_naive`` ops.
ROUND = {
    "scan_agg": 1,
    "group_many": 5,
    "join_dim": 1,
    "join_copart": 1,
    "topk": 1,
    "mc_naive": 3,
    "mc_bundled": 1,
    "append": 1,
}
#: Rounds per second of ``--seconds`` (a round takes two to four CPU
#: seconds on a 2-vCPU host at the commit that defined the benchmark).  The op
#: count is fixed by seed and seconds, never by elapsed time, so both
#: sides of a comparison end in the same table state.
ROUNDS_PER_SECOND = 0.4
SETUPS = 3
#: Reference-kernel samples taken before and after each set-up.
SETUP_SAMPLES = 5

FACT_SCHEMA = Schema.of(id=int, region=str, grp=int, x=float, k=int)
PART_SCHEMA = Schema.of(jk=int, v=float)


# -- inputs -----------------------------------------------------------------------

def seeded_order(rng: np.random.Generator, counts: Dict[str, int], rounds: int) -> List[str]:
    """A seeded interleaving: each round holds every class ``counts`` times."""
    order: List[str] = []
    for _ in range(rounds):
        block = [name for name, count in counts.items() for _ in range(count)]
        order.extend(block[i] for i in rng.permutation(len(block)))
    return order


def _fact_rows(rng: np.random.Generator, start: int, n: int, groups: int) -> List[dict]:
    region = rng.integers(0, len(REGIONS) + 1, n)  # the extra code is NULL
    grp = rng.integers(0, groups, n)
    x = np.round(rng.normal(10.0, 3.0, n), 6)
    k = rng.integers(0, 1000, n)
    x_null = rng.random(n) < 0.1
    k_null = rng.random(n) < 0.05
    return [
        {
            "id": start + i,
            "region": REGIONS[region[i]] if region[i] < len(REGIONS) else None,
            "grp": int(grp[i]),
            "x": None if x_null[i] else float(x[i]),
            "k": None if k_null[i] else int(k[i]),
        }
        for i in range(n)
    ]


def _part_rows(rng: np.random.Generator, n: int, keys: int) -> List[dict]:
    jk = rng.integers(0, keys, n)
    v = np.round(rng.normal(0.0, 1.0, n), 6)
    return [{"jk": int(jk[i]), "v": float(v[i])} for i in range(n)]


def _constants(rng: np.random.Generator, cls: str) -> Dict[str, Any]:
    """Seeded constants, in ranges narrow enough that an op's cost barely
    depends on the seed while its answer does."""
    if cls == "scan_agg":
        return {"x": round(float(rng.uniform(9.5, 10.5)), 3), "k": int(rng.integers(450, 550))}
    if cls == "group_many":
        return {"k": int(rng.integers(0, 50))}
    if cls == "join_dim":
        return {"k": int(rng.integers(100, 150))}
    if cls == "join_copart":
        return {"c": round(float(rng.uniform(0.5, 2.0)), 3)}
    if cls == "topk":
        return {
            "region": REGIONS[int(rng.integers(0, len(REGIONS)))],
            "k": int(rng.integers(200, 250)),
            "limit": int(rng.integers(5, 20)),
        }
    if cls in ("mc_naive", "mc_bundled"):
        return {"t": round(float(rng.uniform(100.0, 125.0)), 3)}
    return {}


def statement(cls: str, c: Dict[str, Any]) -> str:
    """The SQL text of one op (``mc_naive`` gives its per-world query)."""
    if cls == "scan_agg":
        return (
            "SELECT COUNT(*) AS n, SUM(x) AS s, AVG(x) AS a, MIN(k) AS lo, "
            f"MAX(k) AS hi FROM fact WHERE x > {c['x']} AND k < {c['k']}"
        )
    if cls == "group_many":
        return (
            "SELECT grp, COUNT(*) AS n, SUM(x) AS s, AVG(k) AS a FROM fact "
            f"WHERE k >= {c['k']} GROUP BY grp"
        )
    if cls == "join_dim":
        return (
            "SELECT d.region AS region, SUM(f.x * d.weight) AS s, COUNT(*) AS n "
            "FROM fact f JOIN dim d ON f.region = d.region "
            f"WHERE f.k > {c['k']} GROUP BY d.region"
        )
    if cls == "join_copart":
        return (
            f"SELECT COUNT(*) AS n, SUM(a.v * {c['c']}) AS sa, SUM(b.v) AS sb "
            "FROM pa a JOIN pb b ON a.jk = b.jk"
        )
    if cls == "topk":
        return (
            f"SELECT id, x, k FROM fact WHERE region = '{c['region']}' "
            f"AND k > {c['k']} ORDER BY x DESC LIMIT {c['limit']}"
        )
    if cls == "mc_naive":
        return f"SELECT AVG(sbp) AS m FROM sbp_data WHERE sbp > {c['t']}"
    raise ValueError(f"{cls} has no SQL statement")


class Inputs:
    """Everything the workload feeds the program, derived from one seed."""

    def __init__(self, seed: int, seconds: float, scale: float = 1.0) -> None:
        rng = np.random.default_rng([seed, 1])
        size = lambda n: max(8, int(n * scale))  # noqa: E731
        self.seed = seed
        self.groups = size(GROUPS)
        self.fact = _fact_rows(rng, 0, size(FACT_ROWS), self.groups)
        self.dim = [
            {"region": r, "weight": round(1.0 + 0.25 * i, 2)} for i, r in enumerate(REGIONS)
        ]
        part_keys = size(PART_KEYS)
        self.pa = _part_rows(rng, size(PART_ROWS), part_keys)
        self.pb = _part_rows(rng, size(PART_ROWS), part_keys)
        # Full size at every scale: with few patients a world can hold no
        # reading above the threshold, and AVG over nothing is NULL.
        self.patients = [{"pid": i, "gender": "FM"[i % 2]} for i in range(PATIENTS)]
        self.naive_worlds = NAIVE_WORLDS if scale >= 1.0 else 4
        self.bundled_worlds = BUNDLED_WORLDS if scale >= 1.0 else 50
        rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
        self.order = seeded_order(rng, ROUND, rounds)
        self.ops: List[Tuple[str, Dict[str, Any]]] = [
            (cls, _constants(rng, cls)) for cls in self.order
        ]
        self.warm = [(cls, _constants(rng, cls)) for cls in ROUND]
        appends = sum(1 for cls, _ in self.ops + self.warm if cls == "append")
        batch = size(APPEND_ROWS)
        next_id = len(self.fact)
        self.batches = []
        for _ in range(appends):
            self.batches.append(
                (_fact_rows(rng, next_id, batch, self.groups), _part_rows(rng, batch, part_keys))
            )
            next_id += batch


# -- the program under test ----------------------------------------------------

class Analyst:
    """The analyst's session: one database, its MCDB, the op bodies."""

    def __init__(self, inputs: Inputs, spans, counters: layers.Counters) -> None:
        self.inputs = inputs
        self.spans = spans
        self.counters = counters
        self.appended = 0
        started = time.perf_counter()
        db = Database()
        db.create_table("fact", FACT_SCHEMA).insert_many(inputs.fact)
        db.create_table("dim", Schema.of(region=str, weight=float)).insert_many(inputs.dim)
        db.create_table("pa", PART_SCHEMA).insert_many(inputs.pa)
        db.create_table("pb", PART_SCHEMA).insert_many(inputs.pb)
        db.create_table("patients", Schema.of(pid=int, gender=str)).insert_many(inputs.patients)
        db.create_table("sbp_param", Schema.of(mean=float, std=float)).insert_many(
            [{"mean": 120.0, "std": 10.0}]
        )
        db.analyze()
        db.partition_table("pa", "jk", PARTITIONS)
        db.partition_table("pb", "jk", PARTITIONS)
        self.load_s = time.perf_counter() - started
        self.db = db
        self.mcdb = layers.monte_carlo_database(db, inputs.seed, spans)
        self.mcdb.register_random_table(
            RandomTableSpec(
                name="sbp_data",
                vg=NormalVG(),
                outer_table="patients",
                parameters="SELECT mean, std FROM sbp_param",
                select={"pid": "outer.pid", "gender": "outer.gender", "sbp": "vg.value"},
            )
        )

    def run(self, cls: str, c: Dict[str, Any], execution: Optional[str] = None) -> Any:
        """Execute one op; returns its result (rows, samples or counts)."""
        spans = self.spans
        if cls == "mc_naive":
            query = layers.WorldQuery(spans, self.counters, statement(cls, c), execution)
            worlds = self.inputs.naive_worlds
            return layers.run_naive(spans, self.counters, self.mcdb, query, worlds)
        if cls == "mc_bundled":
            with spans.span("mcdb.run_bundled"):
                return self.mcdb.run_bundled(
                    _BundleQuery(c["t"]),
                    self.inputs.bundled_worlds,
                    columnar=False if execution == "row" else None,
                ).samples
        if cls == "append":
            fact_rows, part_rows = self.inputs.batches[self.appended]
            self.appended += 1
            with spans.span("engine.load"):
                added = self.db.table("fact").insert_many(fact_rows)
                added += self.db.table("pa").insert_many(part_rows)
            return added
        return layers.sql(spans, self.db, statement(cls, c), execution)

    def engine_counts(self) -> Tuple[int, int, int]:
        m = self.db.metrics
        w = self.counters.world_rows
        return (m.rows_scanned + w[0], m.join_pairs_examined + w[1], m.rows_output + w[2])


class _BundleQuery:
    """The bundled form of the SBP query: AVG(sbp) WHERE sbp > t."""

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold

    def __call__(self, bundles, _db):
        t = self.threshold
        return bundles["sbp_data"].filter(lambda row: row["sbp"] > t).aggregate_avg("sbp")


def _sane(cls: str, result: Any) -> bool:
    """Cheap per-op shape check during the timed phase."""
    if cls in ("mc_naive", "mc_bundled"):
        return bool(np.all(np.isfinite(result)))
    if cls == "append":
        return result > 0
    return len(result) > 0


# -- checks ----------------------------------------------------------------------

def check(analyst: Analyst, last: Dict[str, Dict[str, Any]], corrupt: Optional[str]) -> List[dict]:
    """Every class on the final state: default path vs the row executor.

    ``mc_naive`` compares samples from row-executed worlds; ``mc_bundled``
    compares against row bundles (``columnar=False``); ``append`` checks
    the row counts and re-reads both appended tables both ways.
    """
    results = []
    inputs = analyst.inputs
    for cls in ROUND:
        if cls == "append":
            batch = len(inputs.batches[0][0])
            want_fact = len(inputs.fact) + batch * analyst.appended
            want_pa = len(inputs.pa) + len(inputs.batches[0][1]) * analyst.appended
            got = (len(analyst.db.table("fact")), len(analyst.db.table("pa")))
            if corrupt == cls:
                got = (got[0] + 1, got[1])
            ok = got == (want_fact, want_pa)
            for text in (
                "SELECT COUNT(*) AS n, SUM(k) AS s, COUNT(x) AS nx, MAX(id) AS top FROM fact",
                "SELECT COUNT(*) AS n, SUM(v) AS s FROM pa",
            ):
                default = layers.sql(analyst.spans, analyst.db, text)
                reference = layers.sql(analyst.spans, analyst.db, text, "row")
                ok = ok and result_fingerprint(default) == result_fingerprint(reference)
            results.append({"name": f"analytics.{cls}", "ok": bool(ok)})
            continue
        c = last.get(cls, inputs.warm[list(ROUND).index(cls)][1])
        default = analyst.run(cls, c)
        reference = analyst.run(cls, c, execution="row")
        if corrupt == cls:
            default = _corrupted(default)
        ok = result_fingerprint(default) == result_fingerprint(reference)
        results.append({"name": f"analytics.{cls}", "ok": bool(ok)})
    return results


def _corrupted(result: Any) -> Any:
    if isinstance(result, np.ndarray):
        bad = result.copy()
        bad[0] = np.nextafter(bad[0], np.inf)
        return bad
    bad = [dict(row) for row in result]
    key = next(iter(bad[0]))
    value = bad[0][key]
    bad[0][key] = (value + 1) if isinstance(value, (int, float)) else f"{value}!"
    return bad


# -- the run -----------------------------------------------------------------------

def run(
    seed: int,
    seconds: float,
    spans,
    scale: float = 1.0,
    corrupt: Optional[str] = None,
) -> Dict[str, Any]:
    inputs = Inputs(seed, seconds, scale)
    speed = Speed()
    setups, setup_walls, setup_mids = [], [], []
    analyst = None
    for _ in range(SETUPS):
        analyst = None  # release the previous set-up before building anew
        counters = layers.Counters()
        speed.sample(SETUP_SAMPLES)
        started, cpu_started = time.perf_counter(), user_cpu_s()
        analyst = Analyst(inputs, spans, counters)
        for cls, c in inputs.warm:
            analyst.run(cls, c)
        # User CPU: the kernel time of faulting in a fresh set-up's memory
        # followed the VM's memory state (spread 0.19 over four seeds).
        setups.append(user_cpu_s() - cpu_started)
        setup_walls.append(time.perf_counter() - started)
        setup_mids.append(started + setup_walls[-1] / 2)
    speed.sample(SETUP_SAMPLES)
    if spans.enabled:
        spans.records.clear()  # layer metrics cover the timed phase only
    counters.naive_worlds = 0

    counts_before = analyst.engine_counts()
    latencies: Dict[str, List[float]] = {cls: [] for cls in ROUND}
    every: List[float] = []
    cpu: List[float] = []
    mids: List[float] = []
    failed = 0
    last: Dict[str, Dict[str, Any]] = {}
    for i, (cls, c) in enumerate(inputs.ops):
        # Free the previous answer here, not inside the next op's timing.
        result = None
        speed.sample()
        started = time.perf_counter()
        cpu_started = user_cpu_s()
        try:
            with spans.op_span(i, f"op.{cls}"):
                result = analyst.run(cls, c)
            ok = _sane(cls, result)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            ok = False
        elapsed = time.perf_counter() - started
        cpu.append(user_cpu_s() - cpu_started)
        failed += not ok
        latencies[cls].append(elapsed)
        every.append(elapsed)
        mids.append(started + elapsed / 2)
        last[cls] = c
    speed.sample()
    # The closed loop's busy time: reference-kernel samples between the
    # ops are not part of it.
    wall = sum(every)
    ref_cpu = [s * speed.scale(mid) for s, mid in zip(cpu, mids)]
    ref_setups = [s * speed.scale(mid) for s, mid in zip(setups, setup_mids)]
    rss = peak_rss_mb()
    counts_after = analyst.engine_counts()

    if spans.enabled:
        layer_metrics = layers.span_metrics(spans, counters, None)
    analyst.spans = analyst.mcdb.spans = NoSpans()
    checks = check(analyst, last, corrupt)
    attempted = len(inputs.ops)
    e2e = {
        "setup_cpu_s": metric(percentile(setups, 50), "s", len(setups)),
        "setup_wall_s": metric(percentile(setup_walls, 50), "s", len(setup_walls)),
        "peak_rss_mb": metric(rss, "MB", 1),
        "failed_frac": metric(failed / attempted, "ratio", attempted),
        "queries_per_s": metric(attempted / wall, "1/s", attempted),
    }
    e2e.update(latency_metrics("query", every))
    e2e.update(latency_metrics("query_cpu", cpu))
    e2e["queries_per_cpu_s"] = metric(attempted / sum(cpu), "1/s", attempted)
    per_layer = {
        f"analytics.{cls}_ms": metric(percentile(lat, 50) * 1e3, "ms", len(lat))
        for cls, lat in latencies.items()
    }
    worlds = sum(
        inputs.naive_worlds if cls == "mc_naive" else inputs.bundled_worlds
        for cls in inputs.order
        if cls.startswith("mc_")
    )
    per_layer["mcdb.worlds"] = metric(worlds, "count", 1)
    names = ("engine.rows_scanned", "engine.join_pairs_examined", "engine.rows_output")
    for name, before, after in zip(names, counts_before, counts_after):
        per_layer[name] = metric(after - before, "count", 1)
    per_layer["bench.host_speed"] = speed.metric()
    if spans.enabled:
        per_layer.update(layer_metrics)
        per_layer["engine.load_ms"] = metric(analyst.load_s * 1e3, "ms", 1)
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "e2e": e2e,
        "generic": gated_metrics(
            ref_setups, rss, ref_cpu, (attempted / sum(ref_cpu), attempted)
        ),
        "layers": per_layer,
        "timed_wall_s": wall,
        "timed_cpu_s": sum(ref_cpu),
    }
