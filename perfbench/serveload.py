"""``serve``: independent analysts in an open loop against ``repro serve``.

The server is ``python -m repro serve`` in its own process, over a seeded
CSV catalog (``person``, ``visit`` and a 40-row ``accounts`` table that
MCDB requests use as their outer table) and a fresh ``--store``.  One
generator process with one thread sends seeded Poisson arrivals over two
pipelined NDJSON connections, framed with
``repro.serve.protocol.encode_message``/``decode_message``.

The mix, fixed per block of 20 requests and shuffled by seed:

* ``sql_unique`` (8/20): distinct constants, so every one misses the
  server's result cache;
* ``sql_popular`` (9/20): Zipf draws from a pool of 600 statements, more
  than the 256-entry cache holds, giving hits, misses and evictions;
* ``mcdb`` (2/20): naive Monte Carlo over 10 worlds, seeds from a pool of 8;
* ``ensemble`` (1/20): the demo sweep, seeds from a pool of 4.

The server runs pinned to one CPU; the generator takes its
reference-kernel samples (see :class:`perfbench.common.Speed`) pinned to
the same CPU, so they see the host speed the server saw.

Phases: set-up (three server starts, the last one kept), a warm-up that
is not timed, the nominal-rate phase that gives latency, failures, CPU
per request and the server's counters, a probe of 600 requests sent one
at a time that gives the server CPU each fresh statement costs, and a search
over offered rates for the highest one that keeps p95 within the
latency limit with nothing shed, no growing backlog and a generator that
kept up.  Latency is timed from each request's due time.  Afterwards
every distinct request is executed in-process to check each ``ok``
answer's fingerprint; in the traced mode the same replay times execution
and encoding per layer.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import layers
from perfbench.common import (
    OUT_DIR,
    NoSpans,
    Speed,
    clean_env,
    gated_metrics,
    metric,
    peak_rss_mb,
    percentile,
    process_cpu_ns,
)
from repro.engine import Database, Schema
from repro.ensemble import result_fingerprint
from repro.ensemble.scenarios import DEMO_ENSEMBLES
from repro.mcdb import NormalVG, QueryDistribution, RandomTableSpec
from repro.serve import load_csv_catalog
from repro.serve.protocol import decode_message, encode_message, encode_payload

PERSONS = 3000
VISITS = 9000
ACCOUNTS = 40
POOL = 600
ZIPF_S = 1.1
MCDB_POOL = 8
ENSEMBLE_POOL = 4
MCDB_WORLDS = 10
BLOCK = {"sql_unique": 8, "sql_popular": 9, "mcdb": 2, "ensemble": 1}
CLASSES = tuple(BLOCK)
CONNECTIONS = 2

#: The nominal rate sits well below the knee (about 100 req/s for this
#: mix on a 2-vCPU host), so its latency is service time, not queueing.
NOMINAL_RPS = 20.0
WARM_S = 2.0
#: Share of ``--seconds`` spent at the nominal rate (the search steps
#: come on top).
NOMINAL_SHARE = 1.0
STEP_S = 3.0
LATENCY_LIMIT_MS = 250.0
#: A search step fails when the generator's p99 lateness exceeds this.
LATE_LIMIT_MS = 50.0
#: ... or when the last quarter's median latency exceeds the first
#: quarter's by more than this (a growing backlog).
BACKLOG_MS = 50.0
#: Offered rates form a ladder of 5% steps: ``LADDER_BASE * LADDER**rung``.
LADDER_BASE = 50.0
LADDER = 1.05
START_RUNG = 14
COARSE = 4
MAX_STEPS = 6
#: Requests of the sequential phase that measures server CPU per request.
#: Two in five are fresh statements, so their p95 has about twelve
#: samples beyond it (with half as many it jumped with single outliers).
PROBE_REQUESTS = 600
#: The probe takes a reference-kernel sample after every this many requests.
PROBE_SAMPLE_EVERY = 4
SETUPS = 3
#: Reference-kernel samples taken before and after each set-up and phase.
PHASE_SAMPLES = 5
REGIONS = ("north", "south", "east", "west")


# -- inputs --------------------------------------------------------------------------

def build_catalog(rng: np.random.Generator, scale: float) -> Database:
    persons = max(20, int(PERSONS * scale))
    visits = max(60, int(VISITS * scale))
    db = Database()
    db.create_table(
        "person", Schema.of(pid=int, age=int, region=str, income=float)
    ).insert_many(
        {
            "pid": i,
            "age": int(a),
            "region": REGIONS[int(r)],
            "income": float(round(m, 2)),
        }
        for i, (a, r, m) in enumerate(
            zip(
                rng.integers(0, 90, persons),
                rng.integers(0, len(REGIONS), persons),
                rng.uniform(15000.0, 120000.0, persons),
            )
        )
    )
    db.create_table("visit", Schema.of(pid=int, day=int, cost=float)).insert_many(
        {"pid": int(p), "day": int(d), "cost": float(round(c, 2))}
        for p, d, c in zip(
            rng.integers(0, persons, visits),
            rng.integers(0, 30, visits),
            rng.exponential(40.0, visits),
        )
    )
    db.create_table("accounts", Schema.of(aid=int, tier=int)).insert_many(
        {"aid": i, "tier": i % 4} for i in range(ACCOUNTS)
    )
    return db


def _sql(rng: np.random.Generator, template: int, unique: bool) -> str:
    """One statement of a template.

    The constants move in narrow ranges, so a template's cost barely
    depends on them; their digits make statements distinct: nine for a
    ``unique`` statement, three for the popular pool.
    """
    fraction = f"{rng.random():.9f}"[1:] if unique else f"{rng.random():.3f}"[1:]
    if template == 0:
        lo = int(rng.integers(20, 30))
        return (
            "SELECT region, COUNT(*) AS n, AVG(income) AS a FROM person "
            f"WHERE age >= {lo}{fraction} AND age < {lo + 30} GROUP BY region"
        )
    if template == 1:
        day = int(rng.integers(0, 30))
        return (
            "SELECT p.region AS region, SUM(v.cost) AS s, COUNT(*) AS n "
            "FROM person p JOIN visit v ON p.pid = v.pid "
            f"WHERE v.day = {day} AND p.age > {int(rng.integers(20, 30))}{fraction} "
            "GROUP BY p.region"
        )
    return (
        "SELECT day, AVG(cost) AS a, MAX(cost) AS hi FROM visit "
        f"WHERE cost > {int(rng.integers(20, 30))}{fraction} "
        f"AND day < {int(rng.integers(15, 25))} GROUP BY day"
    )


class Mix:
    """Seeded request bodies of every class."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        self.popular = []
        seen = set()
        while len(self.popular) < POOL:
            # Rank r uses template r % 3, so every seed's popular head has
            # the same shape of work.
            text = _sql(rng, len(self.popular) % 3, unique=False)
            if text not in seen:
                seen.add(text)
                self.popular.append(text)
        weights = 1.0 / np.arange(1, POOL + 1) ** ZIPF_S
        self.zipf = weights / weights.sum()
        self.mcdb = [
            {
                "op": "mcdb",
                "mode": "naive",
                "n_mc": MCDB_WORLDS,
                "seed": int(rng.integers(0, 2**31)),
                "tables": [
                    {
                        "name": "draws",
                        "vg": "normal",
                        "outer_table": "accounts",
                        "parameters": {"mean": 50.0 + 5.0 * i, "std": 5.0},
                    }
                ],
                "statement": f"SELECT AVG(value) AS m FROM draws WHERE tier < {1 + i % 4}",
            }
            for i in range(MCDB_POOL)
        ]
        self.ensembles = [
            {"op": "ensemble", "demo": "sweep", "quick": True, "seed": int(rng.integers(0, 2**31))}
            for _ in range(ENSEMBLE_POOL)
        ]

    def draw(self, rng: np.random.Generator, block: List[str]) -> Tuple[str, dict]:
        """The next request: its class from ``block`` (refilled), then its body.

        A block holds every class its fixed number of times, and the unique
        statements in a block use the three templates in fixed shares.
        """
        if not block:
            names = [name for name, count in BLOCK.items() for _ in range(count)]
            names = [name if name != "sql_unique" else f"sql_unique/{i % 3}"
                     for i, name in enumerate(names)]
            block.extend(names[i] for i in rng.permutation(len(names)))
        cls = block.pop()
        if cls.startswith("sql_unique/"):
            template = int(cls.rsplit("/", 1)[1])
            return "sql_unique", {"op": "sql", "statement": _sql(rng, template, unique=True)}
        if cls == "sql_popular":
            return cls, {"op": "sql", "statement": self.popular[int(rng.choice(POOL, p=self.zipf))]}
        if cls == "mcdb":
            return cls, self.mcdb[int(rng.integers(0, MCDB_POOL))]
        return cls, self.ensembles[int(rng.integers(0, ENSEMBLE_POOL))]

    def schedule(
        self, rng: np.random.Generator, rate: float, seconds: float
    ) -> List[Tuple[float, str, dict]]:
        """Poisson arrivals at ``rate`` for ``seconds``: ``(offset, class, body)``."""
        out = []
        block: List[str] = []
        offset = float(rng.exponential(1.0 / rate))
        while offset < seconds:
            out.append((offset, *self.draw(rng, block)))
            offset += float(rng.exponential(1.0 / rate))
        return out


# -- the server process --------------------------------------------------------------

class Server:
    """``python -m repro serve`` in its own process."""

    def __init__(self, workdir: str, csvs: Dict[str, str]) -> None:
        self.store = tempfile.mkdtemp(prefix="store-", dir=workdir)
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", self.store]
        for name, path in csvs.items():
            cmd += ["--csv", f"{name}={path}"]
        self.errors = open(os.path.join(workdir, "server.err"), "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self.errors,
            env=clean_env(os.path.abspath("src")),
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline().decode() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            address = line.split("listening on ", 1)[1].split()[0]
            host, port = address.rsplit(":", 1)
            self.address = (host, int(port))
            self.control({"op": "ping"})
            self.setup_wall_s = time.perf_counter() - self.started
            self.setup_cpu_s = process_cpu_ns(self.proc.pid) / 1e9
        except BaseException:
            self.stop()
            raise

    def control(self, body: dict) -> dict:
        """One request on a fresh blocking connection."""
        with socket.create_connection(self.address, timeout=60) as sock:
            sock.sendall(encode_message(dict(body, id=0)))
            with sock.makefile("rb") as reader:
                reply = decode_message(reader.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"{body['op']} failed: {reply}")
        return reply["result"]

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a process started in the background by a
        # non-interactive shell inherits SIGINT ignored, and so would the
        # server.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.errors.close()


# -- the generator -------------------------------------------------------------------

class Record:
    __slots__ = (
        "cls", "body", "due", "sent", "done", "ok", "cache", "fingerprint", "bytes", "cpu_ms",
    )

    def __init__(self, cls: str, body: dict, due: float) -> None:
        self.cls = cls
        self.body = body
        self.due = due
        self.sent = self.done = None
        self.ok = False
        self.cache = self.fingerprint = None
        self.bytes = 0
        self.cpu_ms = None

    def latency(self) -> float:
        return self.done - self.due

    def answer(self, line: bytes, now: float) -> None:
        reply = decode_message(line)
        self.done = now
        self.bytes = len(line)
        self.ok = bool(reply.get("ok"))
        self.cache = reply.get("cache")
        self.fingerprint = reply.get("fingerprint")


async def _drive(address, schedule, drain_s: float) -> List[Record]:
    """Send ``schedule`` open-loop over pipelined connections; collect replies."""
    loop = asyncio.get_running_loop()
    conns = [
        await asyncio.open_connection(*address, limit=64 * 1024 * 1024)
        for _ in range(CONNECTIONS)
    ]
    records: List[Record] = []
    pending = {"left": len(schedule)}
    finished = loop.create_future()

    async def read(reader):
        while True:
            line = await reader.readline()
            if not line:
                return
            now = loop.time()
            records[decode_message(line)["id"]].answer(line, now)
            pending["left"] -= 1
            if pending["left"] == 0 and not finished.done():
                finished.set_result(None)

    readers = [asyncio.ensure_future(read(reader)) for reader, _ in conns]
    start = loop.time() + 0.05
    try:
        for i, (offset, cls, body) in enumerate(schedule):
            due = start + offset
            records.append(Record(cls, body, due))
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = conns[i % CONNECTIONS][1]
            records[i].sent = loop.time()
            writer.write(encode_message(dict(body, id=i)))
            if writer.transport.get_write_buffer_size() > 1 << 20:
                await writer.drain()
        if schedule:
            try:
                await asyncio.wait_for(asyncio.shield(finished), timeout=drain_s)
            except asyncio.TimeoutError:
                pass
    finally:
        for _, writer in conns:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except OSError:
                pass
    return records


#: How long a phase waits for outstanding replies after its last send; a
#: request still unanswered then counts as failed.
DRAIN_S = 10.0


def drive(address, schedule, drain_s: float = DRAIN_S) -> List[Record]:
    records = asyncio.run(_drive(address, schedule, drain_s))
    missing = [r for r in records if r.done is None]
    if missing:
        print(
            f"serve: {len(missing)} of {len(records)} requests unanswered after "
            f"{drain_s:g} s: {sorted({r.cls for r in missing})}",
            file=sys.stderr,
        )
    return records


@contextlib.contextmanager
def pinned(cpu: int):
    """Run this (single-threaded) generator on ``cpu`` for a while."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def probe(server: "Server", pairs: List[Tuple[str, dict]], speed: Speed) -> List[Record]:
    """One request at a time: the server CPU each request costs.

    With nothing else outstanding, the server's CPU time (every thread,
    from ``schedstat``) between sending a request and reading its reply
    is that request's cost, whatever share of the host's CPU the server
    got meanwhile.  Call it pinned to the server's CPU: between requests
    it samples the reference kernel there.
    """
    records = [Record(cls, body, 0.0) for cls, body in pairs]
    pid = server.proc.pid
    with socket.create_connection(server.address, timeout=DRAIN_S) as sock:
        with sock.makefile("rb") as reader:
            for i, rec in enumerate(records):
                if i % PROBE_SAMPLE_EVERY == 0:
                    speed.sample()
                before = process_cpu_ns(pid)
                rec.due = rec.sent = time.perf_counter()
                sock.sendall(encode_message(dict(rec.body, id=i)))
                try:
                    line = reader.readline()
                except TimeoutError:
                    print(f"serve: probe request {i} unanswered after {DRAIN_S:g} s",
                          file=sys.stderr)
                    break  # the rest count as failed
                rec.answer(line, time.perf_counter())
                rec.cpu_ms = (process_cpu_ns(pid) - before) / 1e6
    return records


def lateness_ms(records: List[Record]) -> List[float]:
    return [(r.sent - r.due) * 1e3 for r in records if r.sent is not None]


def step_passes(records: List[Record]) -> Tuple[bool, Dict[str, Any]]:
    """The max-rate criterion for one offered-rate step."""
    done = [r for r in records if r.done is not None]
    info: Dict[str, Any] = {"sent": len(records), "done": len(done)}
    if len(done) < len(records) or any(not r.ok for r in done) or not done:
        info["why"] = "failed or shed"
        return False, info
    lat = [r.latency() * 1e3 for r in records]
    info["p95_ms"] = percentile(lat, 95)
    info["late_p99_ms"] = percentile(lateness_ms(records), 99)
    quarter = max(1, len(lat) // 4)
    info["backlog_ms"] = percentile(lat[-quarter:], 50) - percentile(lat[:quarter], 50)
    if info["late_p99_ms"] > LATE_LIMIT_MS:
        info["why"] = "generator late"
        return False, info
    if info["p95_ms"] > LATENCY_LIMIT_MS:
        info["why"] = "p95 over limit"
        return False, info
    if info["backlog_ms"] > BACKLOG_MS:
        info["why"] = "growing backlog"
        return False, info
    return True, info


def search_max_rate(server: Server, mix: Mix, seed: int, step_s: float) -> Tuple[float, List[dict]]:
    """Highest passing rung of the 5% ladder: coarse climb, then bisect.

    At most ``MAX_STEPS`` steps run; the answer is the highest rung that
    passed (0 when none did).
    """
    steps: List[dict] = []
    verdicts: Dict[int, bool] = {}

    def trial(rung: int) -> bool:
        if rung not in verdicts:
            rate = LADDER_BASE * LADDER**rung
            schedule = mix.schedule(np.random.default_rng([seed, 7, rung]), rate, step_s)
            ok, info = step_passes(drive(server.address, schedule))
            steps.append(dict(info, rung=rung, rate=rate, ok=ok))
            verdicts[rung] = ok
        return verdicts[rung]

    def budget() -> bool:
        return len(steps) < MAX_STEPS

    rung = START_RUNG
    if trial(rung):
        while budget() and trial(rung + COARSE):
            rung += COARSE
        low, high = rung, rung + COARSE
    else:
        while budget() and rung > 0 and not trial(rung - COARSE):
            rung -= COARSE
        low, high = max(rung - COARSE, 0), rung
    while high - low > 1 and budget():
        mid = (low + high) // 2
        if trial(mid):
            low = mid
        else:
            high = mid
    passed = [r for r, ok in verdicts.items() if ok]
    return (LADDER_BASE * LADDER ** max(passed) if passed else 0.0), steps


# -- in-process replay ----------------------------------------------------------------

class Replayer:
    """Executes requests in-process exactly as the server's op bodies do."""

    def __init__(self, catalog: Database, spans, workdir: str) -> None:
        self.db = catalog
        self.spans = spans
        self.workdir = workdir
        self.counters = layers.Counters()
        self.backend = layers.backend_for(spans)

    def run(self, body: dict) -> Tuple[str, float, float]:
        """``(fingerprint, exec seconds, encode seconds)`` of one request."""
        spans = self.spans
        started = time.perf_counter()
        if body["op"] == "sql":
            with spans.span("serve.sql_exec"):
                rows = layers.sql(spans, self.db, body["statement"])
            fingerprint = result_fingerprint(rows)
            result = {"rows": rows, "rowcount": len(rows)}
        elif body["op"] == "mcdb":
            with spans.span("serve.mcdb_exec"):
                mcdb = layers.monte_carlo_database(self.db, body["seed"], spans)
                for raw in body["tables"]:
                    mcdb.register_random_table(
                        RandomTableSpec(
                            name=raw["name"],
                            vg=NormalVG(),
                            outer_table=raw["outer_table"],
                            parameters=raw["parameters"],
                        )
                    )
                query = layers.WorldQuery(spans, self.counters, body["statement"])
                samples = layers.run_naive(spans, self.counters, mcdb, query, body["n_mc"])
            dist = QueryDistribution(samples)
            fingerprint = result_fingerprint({"samples": samples})
            result = {
                "n": int(dist.n),
                "expectation": float(dist.expectation()),
                "variance": float(dist.variance()),
                "samples": samples,
                "seed": body["seed"],
            }
        else:
            with spans.span("serve.ensemble_exec"):
                ensemble = DEMO_ENSEMBLES[body["demo"]](seed=body["seed"], quick=body["quick"])
                store = layers.open_store(
                    tempfile.mkdtemp(prefix="replay-", dir=self.workdir), spans
                )
                outcome = layers.timed_run_ensemble(
                    spans, self.counters, ensemble, store, self.backend
                )
            results = {name: outcome.results[name] for name in sorted(outcome.results)}
            fingerprint = result_fingerprint(results)
            result = {"name": outcome.name, "ok": outcome.ok, "results": results}
        executed = time.perf_counter()
        with spans.span("serve.encode"):
            encode_message(
                {"id": 0, "ok": True, "cache": "miss", "fingerprint": fingerprint,
                 "result": encode_payload(result)}
            )
        return fingerprint, executed - started, time.perf_counter() - executed


def _request_key(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


# -- the run ---------------------------------------------------------------------------

def run(
    seed: int,
    seconds: float,
    spans,
    scale: float = 1.0,
    corrupt: Optional[str] = None,
) -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.abspath(tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR))
    try:
        return _run(seed, seconds, spans, scale, corrupt, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(seed, seconds, spans, scale, corrupt, workdir) -> Dict[str, Any]:
    catalog = build_catalog(np.random.default_rng([seed, 4]), scale)
    csvs = {}
    for name in catalog.table_names():
        csvs[name] = os.path.join(workdir, f"{name}.csv")
        catalog.dump_csv(name, csvs[name])
    mix = Mix(seed)
    nominal_s = seconds * NOMINAL_SHARE
    # Small scales (the benchmark's own tests) shorten every phase.
    warm_s, step_s = (WARM_S, STEP_S) if scale >= 1.0 else (0.5, 0.5)

    cpu = max(os.sched_getaffinity(0))
    speed = Speed()
    setups, setup_walls, setup_mids = [], [], []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            # Started while the generator is pinned, the server inherits the pin.
            with pinned(cpu):
                speed.sample(PHASE_SAMPLES)
                server = Server(workdir, csvs)
            setups.append(server.setup_cpu_s)
            setup_walls.append(server.setup_wall_s)
            setup_mids.append(server.started + server.setup_wall_s / 2)
        with pinned(cpu):
            speed.sample(PHASE_SAMPLES)
        warm = mix.schedule(np.random.default_rng([seed, 5]), NOMINAL_RPS, warm_s)
        warm_records = drive(server.address, warm)
        before = server.control({"op": "stats"})
        cpu_before = process_cpu_ns(server.proc.pid)
        nominal = mix.schedule(np.random.default_rng([seed, 6]), NOMINAL_RPS, nominal_s)
        records = drive(server.address, nominal)
        cpu_used = (process_cpu_ns(server.proc.pid) - cpu_before) / 1e9
        after = server.control({"op": "stats"})
        probe_rng, block = np.random.default_rng([seed, 8]), []
        probe_n = PROBE_REQUESTS if scale >= 1.0 else 20
        probe_pairs = [mix.draw(probe_rng, block) for _ in range(probe_n)]
        with pinned(cpu):
            speed.sample(PHASE_SAMPLES)
            cpu_before = process_cpu_ns(server.proc.pid)
            probed = probe(server, probe_pairs, speed)
            probe_cpu_s = (process_cpu_ns(server.proc.pid) - cpu_before) / 1e9
            speed.sample(PHASE_SAMPLES)
        max_rps, steps = search_max_rate(server, mix, seed, step_s)
        rss = peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    # Replay every distinct request in-process: the fingerprint oracle and,
    # traced, the per-layer execute and encode times.
    replay = Replayer(load_csv_catalog(csvs), spans, workdir)
    replayed: Dict[str, Tuple[str, float, float]] = {}
    for i, rec in enumerate(records):
        key = _request_key(rec.body)
        if key not in replayed:
            with spans.op_span(i, f"op.replay.{rec.cls}"):
                replayed[key] = replay.run(rec.body)
    m, w = replay.db.metrics, replay.counters.world_rows
    replay_counts = {
        "engine.rows_scanned": m.rows_scanned + w[0],
        "engine.join_pairs_examined": m.join_pairs_examined + w[1],
        "engine.rows_output": m.rows_output + w[2],
        "mcdb.worlds": replay.counters.naive_worlds,
    }
    replay.spans = NoSpans()
    for rec in warm_records + probed:
        key = _request_key(rec.body)
        if key not in replayed:
            replayed[key] = replay.run(rec.body)
    if corrupt in CLASSES:
        victim = next(r for r in records if r.cls == corrupt and r.ok)
        victim.fingerprint = "0" * 64

    def wrong(group: List[Record]) -> int:
        """Answers whose fingerprint differs from the in-process result."""
        return sum(
            1
            for rec in group
            if rec.ok and rec.fingerprint != replayed[_request_key(rec.body)][0]
        )

    checks = [
        {"name": f"serve.{phase}_fingerprints", "ok": wrong(group) == 0}
        for phase, group in (("warmup", warm_records), ("nominal", records), ("probe", probed))
    ]
    # Errors, shed and unanswered requests fail; so does a wrong answer.
    failed = sum(1 for rec in records + probed if not rec.ok) + wrong(records) + wrong(probed)
    attempted = len(records) + len(probed)
    latencies = [r.latency() * 1e3 for r in records if r.done is not None]
    # Fresh statements only: each block holds them in fixed template
    # shares, so their median sits in the same place for every seed,
    # while cache hits, popular misses and MCDB/ensemble misses come in
    # seed-dependent shares of very different costs.
    probe_cpu = [r.cpu_ms for r in probed if r.ok and r.cls == "sql_unique"]
    ref_probe = [(r, r.cpu_ms / 1e3 * speed.scale(r.sent)) for r in probed if r.cpu_ms is not None]
    ref_unique_s = [s for r, s in ref_probe if r.ok and r.cls == "sql_unique"]
    # The rate counts the probe only: at the nominal rate, which pool
    # entries miss (an ensemble miss costs tens of milliseconds) depends
    # on the seed's order of requests.
    ref_probe_rate = len(ref_probe) / sum(s for _, s in ref_probe)
    ref_setups = [s * speed.scale(mid) for s, mid in zip(setups, setup_mids)]
    late = lateness_ms(records)
    e2e = {
        "setup_cpu_s": metric(percentile(setups, 50), "s", len(setups)),
        "setup_wall_s": metric(percentile(setup_walls, 50), "s", len(setup_walls)),
        "peak_rss_mb": metric(rss, "MB", 1),
        "failed_frac": metric(failed / attempted, "ratio", attempted),
        "serve_p50_ms": metric(percentile(latencies, 50), "ms", len(latencies)),
        "serve_p95_ms": metric(percentile(latencies, 95), "ms", len(latencies)),
        "serve_max_rps": metric(max_rps, "1/s", len(steps)),
        "serve_cpu_p50_ms": metric(percentile(probe_cpu, 50), "ms", len(probe_cpu)),
        "serve_cpu_p95_ms": metric(percentile(probe_cpu, 95), "ms", len(probe_cpu)),
        # Nominal and probe requests together: more requests, so the
        # seed's share of cheap cache hits moves the figure less.
        "serve_req_per_cpu_s": metric(
            (len(records) + len(probed)) / (cpu_used + probe_cpu_s), "1/s",
            len(records) + len(probed),
        ),
    }
    per_layer = {
        f"serve.{cls}_ms": _class_p50(records, cls) for cls in CLASSES
    }
    cache_0, cache_1 = before["cache"], after["cache"]
    hits = sum(cache_1[k] - cache_0[k] for k in ("hits", "coalesced"))
    misses = cache_1["misses"] - cache_0["misses"]
    per_layer.update(
        {
            "serve.cache_hit_frac": metric(hits / max(hits + misses, 1), "ratio", hits + misses),
            "serve.cache_evictions": metric(
                cache_1["evictions"] - cache_0["evictions"], "count", 1
            ),
            "serve.queue_peak": metric(after["admission"]["queue_peak"], "count", 1),
            "serve.rejected": metric(
                after["admission"]["rejected"] - before["admission"]["rejected"], "count", 1
            ),
            "serve.cpu_ms_per_req": metric(cpu_used * 1e3 / len(records), "ms", len(records)),
            "serve.response_bytes": metric(
                float(np.mean([r.bytes for r in records if r.done is not None])), "B", len(records)
            ),
            "bench.gen_late_ms": metric(percentile(late, 99), "ms", len(late)),
            "bench.host_speed": speed.metric(),
        }
    )
    per_layer.update({name: metric(count, "count", 1) for name, count in replay_counts.items()})
    if spans.enabled:
        per_layer.update(_traced_metrics(spans, replay, records, replayed))
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "e2e": e2e,
        "generic": gated_metrics(
            ref_setups, rss, ref_unique_s, (ref_probe_rate, len(ref_probe))
        ),
        "layers": per_layer,
        "timed_wall_s": float(np.mean(latencies)) / 1e3,
        "timed_cpu_s": sum(s for _, s in ref_probe),
        "search": steps,
    }


def _class_p50(records: List[Record], cls: str) -> Dict[str, Any]:
    lat = [r.latency() * 1e3 for r in records if r.cls == cls and r.done is not None]
    return metric(percentile(lat, 50) if lat else 0.0, "ms", len(lat))


def _traced_metrics(spans, replay: Replayer, records, replayed) -> Dict[str, Dict[str, Any]]:
    out = layers.span_metrics(spans, replay.counters, replay.backend)
    out.pop("bench.span_coverage_min", None)
    totals = spans.layer_totals()
    for name in ("serve.sql_exec", "serve.mcdb_exec", "serve.ensemble_exec", "serve.encode"):
        entry = totals.get(name, {"total_s": 0.0, "calls": 0})
        calls = int(entry["calls"])
        value = entry["total_s"] * 1e3 / calls if calls else 0.0
        out[f"{name}_ms"] = metric(value, "ms", calls)
    residual = []
    for rec in records:
        if rec.done is None:
            continue
        _, exec_s, encode_s = replayed[_request_key(rec.body)]
        spent = exec_s + encode_s if rec.cache == "miss" else 0.0
        residual.append((rec.latency() - spent) * 1e3)
    out["serve.residual_ms"] = metric(percentile(residual, 50), "ms", len(residual))
    return out
