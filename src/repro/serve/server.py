"""The asyncio simulation server: admission → execution → dedup cache.

Architecture (one process, two tiers of threads):

* the **event-loop thread** owns every piece of shared mutable state —
  sessions, the admission controller, the result cache, counters — so
  none of it needs locking;
* a bounded **worker pool** (``max_in_flight`` threads) runs the actual
  executions: SQL through the session's overlay catalog, MCDB through
  :class:`~repro.mcdb.MonteCarloDatabase`, ensembles through
  :func:`~repro.ensemble.run_ensemble`.  Workers receive fully resolved
  request descriptors and return encoded payloads; they never touch
  loop state.

A request travels::

    readline → decode/validate (loop)         — bad_request/invalid_query
      → cache fetch_or_begin (loop)           — hit / coalesced / miss
      → admission.acquire (loop, FIFO)        — overloaded when shed
      → run_with_retry in a worker thread     — REPRO_FAULTS scope
                                                "serve.request", policy
                                                timeout per attempt
      → encode + fingerprint (worker)
      → cache.complete, counters, respond (loop)

Every execution carries a ``serve.request`` span with ``serve.execute``
and ``serve.serialize`` children plus the measured queue wait, and the
server mirrors its bookkeeping to ``serve.*`` obs counters the same way
the run store mirrors :class:`~repro.ensemble.store.StoreStats`.

Determinism contract: the ``result`` object of a response is canonical
JSON and a pure function of (request body, session scope, catalog
versions, effective seed) — computed once per content address and
byte-identical for every client that receives it, whether computed,
coalesced, or cached.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.engine.catalog import Database
from repro.engine.csvio import table_from_csv
from repro.engine.operators import EXECUTIONS
from repro.engine.schema import Schema
from repro.engine.sqlparser import (
    execute_statement,
    parse_statement,
    parsed_statement,
)
from repro.ensemble.store import RunStore, result_fingerprint
from repro.errors import FaultError, SimulationError
from repro.faults.plan import FaultPlan, get_fault_plan
from repro.faults.retry import RetryPolicy, RetryStats, run_with_retry
from repro.obs import get_observer
from repro.serve.admission import AdmissionController
from repro.serve.cache import CachedResult, ResultCache, request_key
from repro.serve.protocol import (
    BadRequest,
    Forbidden,
    ServeError,
    classify_exception,
    decode_message,
    encode_message,
    encode_payload,
    fold_seed,
)
from repro.serve.session import Session, SessionManager

#: Exceptions worth a second attempt: injected faults, per-attempt
#: timeouts, and infrastructure errors.  Client mistakes (bad SQL,
#: unknown tables) and genuine model failures propagate immediately —
#: retrying a deterministic error would only multiply its latency.
SERVE_RETRYABLE: Tuple[type, ...] = (FaultError, OSError)

#: Fault-plan scope for served executions: ``REPRO_FAULTS=at=serve.request:0``
#: kills the first admitted execution's first attempt.
REQUEST_SCOPE = "serve.request"

_EXEC_OPS = ("sql", "mcdb", "ensemble", "ping")
_CONTROL_OPS = ("open", "close", "stats")


@dataclass(frozen=True)
class ServeConfig:
    """Operational knobs of one server instance.

    ``retry_attempts=None`` resolves like :meth:`repro.parallel.Backend.
    map`: with an ambient fault plan (``REPRO_FAULTS``) executions get
    the default three attempts, otherwise one.  ``request_timeout`` is
    a *per-attempt* wall-clock limit enforced by
    :class:`~repro.faults.retry.RetryPolicy`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_in_flight: int = 4
    max_queue: int = 32
    queue_timeout: Optional[float] = None
    request_timeout: Optional[float] = None
    retry_attempts: Optional[int] = None
    cache_entries: int = 256
    backend: Optional[str] = None
    max_line_bytes: int = 16 * 1024 * 1024


@dataclass
class ServerStats:
    """Driver-side accounting, mirrored to ``serve.*`` obs counters."""

    requests: int = 0
    executed: int = 0
    rejected: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    errors: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "executed": self.executed,
            "rejected": self.rejected,
            "sessions_opened": self.sessions_opened,
            "sessions_closed": self.sessions_closed,
            "errors": dict(sorted(self.errors.items())),
        }


@dataclass
class _Descriptor:
    """A fully validated, ready-to-execute request."""

    family: str
    fn: Callable[[], Tuple[Any, Optional[str]]]
    key: Optional[str] = None  # None → uncached (DDL/DML, ping, failures)


def build_demo_catalog() -> Database:
    """A small deterministic shared catalog for demos/benchmarks.

    Mirrors the test suite's demographic fixture: 20 people across two
    regions plus a visits fact table, so a freshly started
    ``python -m repro serve --demo-catalog`` answers joins and
    aggregates immediately.
    """
    db = Database()
    db.create_table(
        "person", Schema.of(pid=int, age=int, region=str, income=float)
    )
    regions = ["east", "west"]
    for i in range(20):
        db.table("person").insert(
            {
                "pid": i,
                "age": (i * 7) % 80,
                "region": regions[i % 2],
                "income": 20000.0 + 1000.0 * i,
            }
        )
    db.create_table("visit", Schema.of(pid=int, day=int, cost=float))
    for i in range(60):
        db.table("visit").insert(
            {
                "pid": i % 20,
                "day": i // 20,
                "cost": float((i * 13) % 50) / 2.0,
            }
        )
    db.analyze()
    return db


def load_csv_catalog(specs: Mapping[str, str]) -> Database:
    """Build a shared catalog from ``{table_name: csv_path}`` specs."""
    db = Database()
    for name, path in specs.items():
        db.register(table_from_csv(name, path))
    db.analyze()
    return db


class ReproServer:
    """Simulation-as-a-service over a shared catalog and run store."""

    def __init__(
        self,
        config: ServeConfig = ServeConfig(),
        catalog: Optional[Database] = None,
        store: Optional[RunStore] = None,
    ) -> None:
        self.config = config
        self.catalog = catalog if catalog is not None else Database()
        self.store = store
        self.sessions = SessionManager(self.catalog)
        self.admission = AdmissionController(
            config.max_in_flight, config.max_queue, config.queue_timeout
        )
        self.cache = ResultCache(config.cache_entries)
        self.stats = ServerStats()
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = ThreadPoolExecutor(
            max_workers=config.max_in_flight,
            thread_name_prefix="repro-serve",
        )
        self._exec_index = itertools.count()
        self._session_locks: Dict[str, asyncio.Lock] = {}
        self._conn_tasks: set = set()

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_line_bytes,
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drop connections, release the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._pool.shutdown(wait=False)

    # -- connection handling -------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        pending: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    response = self._error_response(
                        None,
                        BadRequest(
                            "request line exceeds "
                            f"{self.config.max_line_bytes} bytes"
                        ),
                    )
                    await self._write(writer, write_lock, response)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Pipelined requests execute concurrently; each writes
                # its own response under the connection lock.
                request_task = asyncio.ensure_future(
                    self._serve_one(line, writer, write_lock)
                )
                pending.add(request_task)
                request_task.add_done_callback(pending.discard)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass
            self._conn_tasks.discard(task)

    async def _serve_one(self, line: bytes, writer, write_lock) -> None:
        request_id: Any = None
        try:
            message = decode_message(line)
            request_id = message.get("id")
            response = await self._handle_request(message)
        except Exception as exc:  # noqa: BLE001 - mapped to the taxonomy
            response = self._error_response(request_id, exc)
        try:
            await self._write(writer, write_lock, response)
        except (ConnectionResetError, OSError):
            pass

    async def _write(self, writer, write_lock, response: Dict[str, Any]):
        async with write_lock:
            writer.write(encode_message(response))
            await writer.drain()

    def _error_response(self, request_id, exc) -> Dict[str, Any]:
        error = classify_exception(exc)
        self.stats.errors[error.code] = (
            self.stats.errors.get(error.code, 0) + 1
        )
        observer = get_observer()
        observer.counter("serve.errors", code=error.code).inc()
        if error.code == "overloaded":
            self.stats.rejected += 1
            observer.counter("serve.rejected").inc()
        return {"id": request_id, "ok": False, "error": error.payload()}

    # -- request dispatch ----------------------------------------------------
    async def _handle_request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        request_id = message.get("id")
        self.stats.requests += 1
        get_observer().counter("serve.requests").inc()
        if op == "open":
            return self._op_open(request_id, message)
        if op == "close":
            return self._op_close(request_id, message)
        if op == "stats":
            return self._op_stats(request_id)
        if op not in _EXEC_OPS:
            raise BadRequest(
                f"unknown op {op!r}; expected one of "
                f"{_CONTROL_OPS + _EXEC_OPS}"
            )
        session = self.sessions.get(message.get("session"))
        session.requests += 1
        if session.writable:
            # One mutable scope, one request at a time: DDL/DML and the
            # reads that follow it stay strictly ordered per session.
            async with self._lock_for(session):
                return await self._execute_op(request_id, op, message, session)
        return await self._execute_op(request_id, op, message, session)

    def _lock_for(self, session: Session) -> asyncio.Lock:
        lock = self._session_locks.get(session.token)
        if lock is None:
            lock = self._session_locks[session.token] = asyncio.Lock()
        return lock

    async def _execute_op(
        self, request_id, op: str, message: Dict[str, Any], session: Session
    ) -> Dict[str, Any]:
        if op == "sql":
            descriptor = self._describe_sql(message, session)
        elif op == "mcdb":
            descriptor = self._describe_mcdb(message, session)
        elif op == "ensemble":
            descriptor = self._describe_ensemble(message, session)
        else:
            descriptor = self._describe_ping(message)

        observer = get_observer()
        if descriptor.key is None:
            entry = await self._run(descriptor)
            return self._ok(request_id, "uncached", entry)
        status, entry = await self.cache.fetch_or_begin(descriptor.key)
        if status == "hit":
            observer.counter("serve.cache.hit").inc()
            return self._ok(request_id, "hit", entry)
        if status == "coalesced":
            observer.counter("serve.cache.coalesced").inc()
            return self._ok(request_id, "coalesced", entry)
        observer.counter("serve.cache.miss").inc()
        try:
            entry = await self._run(descriptor)
        except Exception as exc:  # noqa: BLE001 - riders see the same error
            self.cache.fail(descriptor.key, classify_exception(exc))
            raise
        # A result without a fingerprint (e.g. a partially failed
        # ensemble) is not a pure function of the request, so riders
        # still receive it byte-identically but the LRU never pins it.
        self.cache.complete(
            descriptor.key, entry, store=entry.fingerprint is not None
        )
        return self._ok(request_id, "miss", entry)

    def _ok(self, request_id, cache_status: str, entry: CachedResult):
        return {
            "id": request_id,
            "ok": True,
            "cache": cache_status,
            "fingerprint": entry.fingerprint,
            "result": entry.payload,
        }

    # -- execution -----------------------------------------------------------
    def _recovery(self) -> Tuple[Optional[RetryPolicy], Optional[FaultPlan]]:
        """Resolve the (policy, plan) pair for one execution."""
        plan = get_fault_plan()
        attempts = self.config.retry_attempts
        if attempts is None:
            attempts = 3 if plan is not None else 1
        timeout = self.config.request_timeout
        if attempts == 1 and timeout is None and plan is None:
            return None, None  # zero-overhead direct call
        policy = RetryPolicy(
            max_attempts=attempts,
            timeout=timeout,
            retryable=SERVE_RETRYABLE,
        )
        return policy, plan

    async def _run(self, descriptor: _Descriptor) -> CachedResult:
        queue_wait = await self.admission.acquire()
        observer = get_observer()
        observer.timer("serve.queue_seconds").add(queue_wait)
        policy, plan = self._recovery()
        index = next(self._exec_index)
        loop = asyncio.get_running_loop()
        try:
            entry, retry_stats, seconds = await loop.run_in_executor(
                self._pool,
                _execute_in_worker,
                descriptor,
                policy,
                plan,
                index,
                queue_wait,
            )
        finally:
            self.admission.release()
        self.stats.executed += 1
        observer.counter("serve.exec").inc()
        observer.counter("serve.exec", family=descriptor.family).inc()
        observer.timer("serve.exec_seconds").add(seconds)
        if retry_stats.injected:
            observer.counter("serve.faults.injected").add(retry_stats.injected)
        if retry_stats.retries:
            observer.counter("serve.faults.retries").add(retry_stats.retries)
        return entry

    # -- op bodies -----------------------------------------------------------
    def _op_open(self, request_id, message) -> Dict[str, Any]:
        namespace = _as_int(message.get("namespace", 0), "namespace")
        session = self.sessions.open(namespace=namespace)
        self.stats.sessions_opened += 1
        get_observer().counter("serve.sessions.opened").inc()
        return self._ok(
            request_id, "uncached", CachedResult(session.describe(), None)
        )

    def _op_close(self, request_id, message) -> Dict[str, Any]:
        token = message.get("session")
        if not token:
            raise BadRequest("close requires a session token")
        session = self.sessions.get(token)  # raises unknown_session
        self.sessions.close(token)
        self._session_locks.pop(token, None)
        self.stats.sessions_closed += 1
        get_observer().counter("serve.sessions.closed").inc()
        return self._ok(
            request_id,
            "uncached",
            CachedResult({"closed": token, "requests": session.requests}, None),
        )

    def _op_stats(self, request_id) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "server": self.stats.as_dict(),
            "admission": self.admission.snapshot(),
            "cache": self.cache.snapshot(),
            "sessions": len(self.sessions),
        }
        if self.store is not None:
            body["store"] = self.store.stats.as_dict()
        return self._ok(request_id, "uncached", CachedResult(body, None))

    def _describe_ping(self, message) -> _Descriptor:
        delay = message.get("delay", 0.0)
        if not isinstance(delay, (int, float)) or delay < 0 or delay > 60:
            raise BadRequest(f"ping delay must be 0..60 seconds, got {delay!r}")

        def fn() -> Tuple[Any, Optional[str]]:
            if delay:
                time.sleep(float(delay))
            return {"pong": True, "delay": float(delay)}, None

        return _Descriptor("ping", fn)

    def _describe_sql(self, message, session: Session) -> _Descriptor:
        statement = message.get("statement")
        if not isinstance(statement, str) or not statement.strip():
            raise BadRequest("sql requires a non-empty 'statement' string")
        execution = message.get("execution")
        if execution is not None and execution not in EXECUTIONS:
            raise BadRequest(
                f"execution must be {'|'.join(EXECUTIONS)}, got {execution!r}"
            )
        # One parse per distinct text, shared with the worker below.
        kind, payload, reads, writes = parsed_statement(statement)  # → invalid_query
        for target in sorted(writes):
            if not session.writable:
                raise Forbidden(
                    "the public scope is read-only; open a session "
                    "(op=open) to create tables"
                )
            if not session.db.is_session_table(target) and (
                target in self.catalog
            ):
                raise Forbidden(
                    f"table {target!r} belongs to the shared catalog; "
                    "sessions may only create, modify, or drop their "
                    "own tables"
                )
        table_scopes: Dict[str, str] = {}
        for name in sorted(reads):
            table = session.db.table(name)  # unknown → invalid_query
            table_scopes[name] = (
                f"{session.table_scope_tag(name)}:v{table.version}"
            )
        selects = kind in ("select", "select_with_ctes")
        key = None
        if selects:
            # A request naming no executor runs the default one, so both
            # share one entry.
            key = request_key(
                "sql",
                {"statement": statement, "execution": execution or EXECUTIONS[0]},
                0,
                table_scopes,
            )
        db = session.db

        def fn() -> Tuple[Any, Optional[str]]:
            rows = execute_statement(db, kind, payload, execution)
            fingerprint = result_fingerprint(rows) if selects else None
            return {"rows": rows, "rowcount": len(rows)}, fingerprint

        return _Descriptor("sql", fn, key)

    def _describe_mcdb(self, message, session: Session) -> _Descriptor:
        from repro.mcdb import MonteCarloDatabase, RandomTableSpec

        tables = message.get("tables")
        if not isinstance(tables, list) or not tables:
            raise BadRequest(
                "mcdb requires 'tables': a non-empty list of random-"
                "table specs"
            )
        n_mc = _as_int(message.get("n_mc", 100), "n_mc")
        if not 1 <= n_mc <= 1_000_000:
            raise BadRequest(f"n_mc must be 1..1000000, got {n_mc}")
        mode = message.get("mode", "naive")
        if mode not in ("naive", "bundled"):
            raise BadRequest(f"mode must be naive|bundled, got {mode!r}")
        seed = _as_int(message.get("seed", 0), "seed")
        effective_seed = fold_seed(session.namespace, seed)

        specs: List[RandomTableSpec] = []
        for raw in tables:
            if not isinstance(raw, dict) or "name" not in raw:
                raise BadRequest(
                    f"each mcdb table spec needs a 'name', got {raw!r}"
                )
            vg_name = raw.get("vg", "normal")
            vg_factory = VG_REGISTRY.get(vg_name)
            if vg_factory is None:
                raise ServeError(
                    "invalid_query",
                    f"unknown vg {vg_name!r}; choose from "
                    f"{sorted(VG_REGISTRY)}",
                )
            outer = raw.get("outer_table")
            if outer is not None and outer not in session.db:
                raise ServeError(
                    "invalid_query",
                    f"mcdb outer_table {outer!r} is not in the catalog",
                )
            parameters = raw.get("parameters")
            if parameters is not None and not isinstance(parameters, dict):
                raise BadRequest(
                    "mcdb table parameters must be an object of "
                    "constants (server requests cannot carry callables)"
                )
            specs.append(
                RandomTableSpec(
                    name=str(raw["name"]),
                    vg=vg_factory(),
                    outer_table=outer,
                    parameters=parameters,
                )
            )

        statement = message.get("statement")
        aggregate = message.get("aggregate")
        if mode == "naive":
            if not isinstance(statement, str) or not statement.strip():
                raise BadRequest(
                    "mcdb mode=naive requires 'statement': a SELECT "
                    "returning one row with one scalar column"
                )
            kind, _ = parse_statement(statement)
            if kind not in ("select", "select_with_ctes"):
                raise ServeError(
                    "invalid_query",
                    "mcdb statements must be SELECTs (the per-world "
                    "query cannot mutate the catalog)",
                )
        else:
            if not isinstance(aggregate, dict):
                raise BadRequest(
                    "mcdb mode=bundled requires 'aggregate': "
                    '{"table": ..., "column": ..., "func": ...}'
                )
            func = aggregate.get("func", "avg")
            if func not in _BUNDLE_AGGREGATES:
                raise BadRequest(
                    f"aggregate func must be one of "
                    f"{sorted(_BUNDLE_AGGREGATES)}, got {func!r}"
                )
            if func != "count" and not aggregate.get("column"):
                raise BadRequest(
                    f"aggregate func {func!r} requires a 'column'"
                )
            if aggregate.get("table") not in {s.name for s in specs}:
                raise ServeError(
                    "invalid_query",
                    f"aggregate table {aggregate.get('table')!r} is not "
                    "one of the declared random tables",
                )

        # Conservative catalog pinning: an instantiated MC world copies
        # every visible deterministic table, so the key folds them all.
        table_scopes = {
            name: f"{session.table_scope_tag(name)}"
            f":v{session.db.table(name).version}"
            for name in session.db.table_names()
        }
        canonical_tables = [
            {
                "name": str(raw["name"]),
                "vg": raw.get("vg", "normal"),
                "outer_table": raw.get("outer_table"),
                "parameters": raw.get("parameters"),
            }
            for raw in tables
        ]
        key = request_key(
            "mcdb",
            {
                "tables": canonical_tables,
                "statement": statement,
                "aggregate": aggregate,
                "n_mc": n_mc,
                "mode": mode,
            },
            effective_seed,
            table_scopes,
        )
        db = session.db
        backend_spec = self.config.backend

        def fn() -> Tuple[Any, Optional[str]]:
            mcdb = MonteCarloDatabase(db, seed=effective_seed)
            for spec in specs:
                mcdb.register_random_table(spec)
            if mode == "naive":
                dist = mcdb.run_naive(
                    _ScalarQuery(statement), n_mc, backend=backend_spec
                )
            else:
                dist = mcdb.run_bundled(
                    _BundleQuery(
                        aggregate["table"],
                        aggregate.get("column"),
                        aggregate.get("func", "avg"),
                        aggregate.get("q"),
                    ),
                    n_mc,
                    backend=backend_spec,
                )
            samples = dist.samples
            body = {
                "n": int(dist.n),
                "expectation": float(dist.expectation()),
                "variance": float(dist.variance()),
                "samples": samples,
                "seed": effective_seed,
            }
            return body, result_fingerprint({"samples": samples})

        return _Descriptor("mcdb", fn, key)

    def _describe_ensemble(self, message, session: Session) -> _Descriptor:
        from repro.ensemble import Ensemble, ScenarioSpec, run_ensemble
        from repro.ensemble.scenarios import DEMO_ENSEMBLES
        from repro.ensemble.spec import get_scenario

        demo = message.get("demo")
        nodes = message.get("nodes")
        quick = bool(message.get("quick", True))
        seed = _as_int(message.get("seed", 0), "seed")
        effective_seed = fold_seed(session.namespace, seed)
        if demo is not None:
            if demo not in DEMO_ENSEMBLES:
                raise ServeError(
                    "invalid_query",
                    f"unknown demo ensemble {demo!r}; choose from "
                    f"{sorted(DEMO_ENSEMBLES)}",
                )
            builder = DEMO_ENSEMBLES[demo]

            def build() -> Ensemble:
                return builder(seed=effective_seed, quick=quick)

            canonical_nodes: Any = {"demo": demo, "quick": quick}
        elif isinstance(nodes, list) and nodes:
            for raw in nodes:
                if not isinstance(raw, dict) or not raw.get("name"):
                    raise BadRequest(
                        f"each ensemble node needs a 'name', got {raw!r}"
                    )
                try:
                    get_scenario(str(raw.get("scenario")))
                except SimulationError as exc:
                    raise ServeError("invalid_query", str(exc)) from None
            node_specs = [
                {
                    "name": str(raw["name"]),
                    "scenario": str(raw["scenario"]),
                    "params": raw.get("params") or {},
                    "seed": fold_seed(
                        session.namespace, _as_int(raw.get("seed", 0), "seed")
                    ),
                    "deps": [str(dep) for dep in raw.get("deps") or []],
                }
                for raw in nodes
            ]

            def build() -> Ensemble:
                ensemble = Ensemble(str(message.get("name", "serve")))
                for spec in node_specs:
                    try:
                        ensemble.add(
                            spec["name"],
                            ScenarioSpec(
                                spec["scenario"], spec["params"], spec["seed"]
                            ),
                            deps=spec["deps"],
                        )
                    except SimulationError as exc:
                        raise ServeError("invalid_query", str(exc)) from None
                return ensemble

            canonical_nodes = {"nodes": node_specs}
        else:
            raise BadRequest(
                "ensemble requires either 'demo': <name> or 'nodes': "
                "a non-empty list of {name, scenario, params, seed, deps}"
            )
        build()  # validate the DAG before admitting the request

        key = request_key(
            "ensemble",
            {"spec": canonical_nodes, "name": str(message.get("name", ""))},
            effective_seed if demo is not None else 0,
            {},
        )
        store = self.store
        backend_spec = self.config.backend
        cacheable_key = key

        def fn() -> Tuple[Any, Optional[str]]:
            outcome = run_ensemble(build(), store=store, backend=backend_spec)
            body: Dict[str, Any] = {
                "name": outcome.name,
                "ok": outcome.ok,
                "nodes": {
                    name: {
                        "status": report.status,
                        "key": report.key,
                        "error": report.error,
                        "blocked_on": report.blocked_on,
                    }
                    for name, report in sorted(outcome.reports.items())
                },
                "counts": {
                    "run": outcome.nodes_run,
                    "cached": outcome.nodes_cached,
                    "failed": outcome.nodes_failed,
                    "skipped": outcome.nodes_skipped,
                },
                "results": {
                    name: outcome.results[name]
                    for name in sorted(outcome.results)
                },
            }
            # A partial outcome (failed/skipped nodes) is not a pure
            # function of the request — a transient failure may succeed
            # next time — so it carries no fingerprint, which keeps it
            # out of the persistent result cache.
            if not outcome.ok:
                return body, None
            return body, result_fingerprint(body["results"])

        return _Descriptor("ensemble", fn, cacheable_key)


class _ScalarQuery:
    """Per-world scalar SQL evaluation (picklable for process backends)."""

    def __init__(self, statement: str) -> None:
        self.statement = statement

    def __call__(self, db: Database) -> float:
        rows = db.sql(self.statement)
        if len(rows) != 1 or len(rows[0]) != 1:
            raise SimulationError(
                "mcdb naive statements must return exactly one row with "
                f"one column; {self.statement!r} returned "
                f"{len(rows)} row(s)"
            )
        value = next(iter(rows[0].values()))
        if value is None:
            raise SimulationError(
                f"mcdb naive statement {self.statement!r} returned NULL"
            )
        return float(value)


_BUNDLE_AGGREGATES = ("avg", "sum", "count", "min", "max", "quantile")


class _BundleQuery:
    """Bundle-aggregate evaluation (picklable for process backends)."""

    def __init__(self, table, column, func, q=None) -> None:
        self.table = table
        self.column = column
        self.func = func
        self.q = q

    def __call__(self, bundles, db):
        bundle = bundles[self.table]
        if self.func == "count":
            return bundle.aggregate_count()
        if self.func == "quantile":
            return bundle.aggregate_quantile(
                self.column, 0.5 if self.q is None else float(self.q)
            )
        return getattr(bundle, f"aggregate_{self.func}")(self.column)


def _execute_in_worker(
    descriptor: _Descriptor,
    policy: Optional[RetryPolicy],
    plan: Optional[FaultPlan],
    index: int,
    queue_wait: float,
) -> Tuple[CachedResult, RetryStats, float]:
    """One admitted execution, on a worker thread.

    Runs through :func:`repro.faults.retry.run_with_retry` under the
    ``serve.request`` scope, so ambient fault plans inject here exactly
    as they do into any other fan-out, and the per-attempt timeout of
    the policy bounds each try.  The span tree (request → execute →
    serialize, queue wait attached) nests correctly because the tracer
    keeps per-thread stacks and this whole function owns its thread.
    """
    observer = get_observer()
    stats = RetryStats()
    started = time.perf_counter()
    with observer.span(
        "serve.request", family=descriptor.family, queue_wait=queue_wait
    ):
        with observer.span("serve.execute"):
            if policy is None and plan is None:
                body, fingerprint = descriptor.fn()
            else:
                body, fingerprint = run_with_retry(
                    lambda _: descriptor.fn(),
                    None,
                    scope=REQUEST_SCOPE,
                    index=index,
                    policy=policy or RetryPolicy(max_attempts=1),
                    plan=plan,
                    stats=stats,
                )
        with observer.span("serve.serialize"):
            payload = encode_payload(body)
    seconds = time.perf_counter() - started
    return CachedResult(payload, fingerprint), stats, seconds


#: Declarative VG functions a request may name (zero-arg constructible;
#: parameters arrive per-spec through ``RandomTableSpec.parameters``).
def _vg_registry() -> Dict[str, Callable[[], Any]]:
    from repro.mcdb import NormalVG, PoissonVG

    return {"normal": NormalVG, "poisson": PoissonVG}


class _LazyVGRegistry(dict):
    """Resolves VG factories on first use (keeps import graph lazy)."""

    def _ensure(self) -> None:
        if not super().__len__():
            super().update(_vg_registry())

    def get(self, key, default=None):
        self._ensure()
        return super().get(key, default)

    def __iter__(self):
        self._ensure()
        return super().__iter__()

    def __len__(self) -> int:
        self._ensure()
        return super().__len__()


VG_REGISTRY: Dict[str, Callable[[], Any]] = _LazyVGRegistry()


def _as_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{name} must be an integer, got {value!r}")
    return int(value)


class _ServerThread:
    """A :class:`ReproServer` running on a dedicated event-loop thread.

    The in-process harness tests, benchmarks, and examples use: start
    the loop, await :meth:`ReproServer.start`, hand back the bound
    address, and tear everything down on exit.
    """

    def __init__(self, server: ReproServer) -> None:
        import threading

        self.server = server
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._started = threading.Event()
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise SimulationError("server event loop failed to start")
        future = asyncio.run_coroutine_threadsafe(server.start(), self.loop)
        self.address: Tuple[str, int] = future.result(timeout=30)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._started.set)
        self.loop.run_forever()

    def stop(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        )
        try:
            future.result(timeout=30)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=30)
            self.loop.close()

    def __enter__(self) -> Tuple[str, int]:
        return self.address

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(server: ReproServer) -> _ServerThread:
    """Run ``server`` on a background event-loop thread.

    Context manager yielding the bound ``(host, port)``; exiting stops
    the server and joins the loop thread.  The object is also usable
    imperatively via ``.address`` / ``.stop()``.
    """
    return _ServerThread(server)


__all__ = [
    "REQUEST_SCOPE",
    "ReproServer",
    "SERVE_RETRYABLE",
    "ServeConfig",
    "ServerStats",
    "build_demo_catalog",
    "load_csv_catalog",
    "serve_in_thread",
]
