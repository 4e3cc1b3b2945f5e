"""Tests for repro.serve — the simulation-as-a-service layer.

Covers the PR 7 acceptance surface:

* protocol units: canonical encoding, lossless array round trips, the
  closed error taxonomy, seed-namespace folding;
* admission control units: FIFO grant order, explicit ``overloaded``
  shedding, queue timeouts, slot-transfer accounting;
* result-cache units: hit/coalesce/miss, single-flight error
  propagation, LRU bounds, unpinned (store=False) completions;
* session units: overlay resolution, scope epochs, scope tags;
* engine units: :func:`repro.engine.sqlparser.statement_tables`
  read/write set extraction (the server's authorization + cache-key
  input);
* integration (real server, real sockets): N concurrent identical
  clients → exactly ONE execution with byte-identical payloads;
  session isolation; the error taxonomy over the wire; fingerprint
  parity with the in-process API across the serial and process
  backends; fault injection (``serve.request`` scope) with retry and
  terminal attempt history; overload shedding and per-request
  timeouts;
* the RunStore concurrent-access regression (many threads hammering
  one key).

Every test runs with no fault plan, and one that needs a plan wraps
itself in ``injected(...)``, so the suite passes unchanged under a
CI-set ``REPRO_FAULTS`` environment.  A test marked ``ambient_faults``
runs under the ambient plan instead: under the CI ``serve`` job's
``REPRO_FAULTS=at=serve.request:0`` its first request's first attempt
is killed, and the retry must still answer byte for byte.
"""

from __future__ import annotations

import asyncio
import json
import threading
import traceback

import numpy as np
import pytest

from repro import obs
from repro.engine.catalog import Database
from repro.engine.schema import Schema
from repro.engine.sqlparser import parse_statement, statement_tables
from repro.ensemble import register_scenario
from repro.ensemble.store import RunStore, result_fingerprint
from repro.errors import QueryError, SimulationError
from repro.faults import (
    DEFAULT_RETRY_POLICY,
    FaultPlan,
    TaskFailed,
    TaskTimeout,
    injected,
)
from repro.serve import (
    AdmissionController,
    CachedResult,
    Client,
    Overloaded,
    ReproServer,
    ResultCache,
    ServeConfig,
    ServeError,
    build_demo_catalog,
    classify_exception,
    decode_payload,
    encode_payload,
    fold_seed,
    serve_in_thread,
)
from repro.serve.protocol import decode_message, encode_message
from repro.serve.session import Session, SessionDatabase, SessionManager


def record_scenario(params, seed, upstream):
    """A result holding a record array (module-level: it pickles)."""
    table = np.array([(1, 0.5), (2, -1.5)], dtype=[("a", "<i8"), ("b", "<f8")])
    return {"table": table}


register_scenario("test.serve.record", record_scenario)


@pytest.fixture(autouse=True)
def _quiet_faults(request):
    """Serve tests control fault state explicitly (see module docstring)."""
    if request.node.get_closest_marker("ambient_faults"):
        yield
        return
    with injected(None):
        yield


@pytest.fixture
def observer():
    obs.disable()
    live = obs.enable()
    yield live
    obs.disable()


def run_async(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_messages_are_canonical_single_lines(self):
        raw = encode_message({"b": 1, "a": [1, 2]})
        assert raw == b'{"a":[1,2],"b":1}\n'
        assert decode_message(raw) == {"a": [1, 2], "b": 1}

    def test_decode_rejects_garbage_and_non_objects(self):
        with pytest.raises(ServeError) as excinfo:
            decode_message(b"not json\n")
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ServeError):
            decode_message(b"[1,2,3]\n")

    def test_payload_round_trips_arrays_losslessly(self):
        tree = {
            "samples": np.linspace(0.0, 1.0, 7),
            "counts": np.arange(6, dtype=np.int32).reshape(2, 3),
            "scalar": np.float64(0.25),
            "nested": [{"x": np.array([1, 2])}, None, "s"],
        }
        encoded = encode_payload(tree)
        json.dumps(encoded)  # must be pure JSON
        decoded = decode_payload(encoded)
        assert decoded["scalar"] == 0.25
        np.testing.assert_array_equal(decoded["samples"], tree["samples"])
        assert decoded["counts"].dtype == np.int32
        assert decoded["counts"].shape == (2, 3)
        assert result_fingerprint(
            {"samples": decoded["samples"]}
        ) == result_fingerprint({"samples": tree["samples"]})

    def test_payload_rejects_unencodable_values(self):
        with pytest.raises(SimulationError):
            encode_payload({"fn": len})
        with pytest.raises(SimulationError):
            encode_payload({"__ndarray__": 1})
        with pytest.raises(SimulationError):
            encode_payload({1: "non-string key"})
        # Refused at encode time, as the run store refuses them.
        with pytest.raises(SimulationError, match="cannot persist"):
            encode_payload({"t": np.datetime64("2020-01-01")})
        with pytest.raises(SimulationError, match="without pickling"):
            encode_payload({"labels": np.array(["a", 1], dtype=object)})

    def test_classify_maps_the_taxonomy(self):
        assert classify_exception(QueryError("x")).code == "invalid_query"
        assert classify_exception(SimulationError("x")).code == (
            "execution_failed"
        )
        assert classify_exception(ValueError("x")).code == "internal"
        assert classify_exception(Overloaded("x")).code == "overloaded"
        assert classify_exception(
            TaskTimeout("serve.request", 0, 0, 1.0)
        ).code == "timeout"

    def test_classify_taskfailed_keeps_attempt_history(self):
        try:
            raise TaskFailed(
                "serve.request",
                0,
                (
                    (0, "InjectedFault", "boom", 0.01),
                    (1, "InjectedFault", "boom", 0.01),
                ),
            )
        except TaskFailed as exc:
            error = classify_exception(exc)
        assert error.code == "execution_failed"
        assert [a["attempt"] for a in error.attempts] == [0, 1]
        assert error.attempts[0]["error_type"] == "InjectedFault"

    def test_classify_all_timeout_attempts_collapse_to_timeout(self):
        failure = TaskFailed(
            "serve.request",
            0,
            ((0, "TaskTimeout", "slow", 1.0), (1, "TaskTimeout", "slow", 1.0)),
        )
        assert classify_exception(failure).code == "timeout"

    def test_fold_seed_identity_and_disjoint_namespaces(self):
        assert fold_seed(0, 42) == 42
        assert fold_seed(1, 42) != 42
        assert fold_seed(1, 42) == fold_seed(1, 42)
        assert fold_seed(1, 42) != fold_seed(2, 42)
        assert fold_seed(1, 42) != fold_seed(1, 43)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_grant_and_release(self):
        async def scenario():
            gate = AdmissionController(2, 4)
            assert await gate.acquire() == 0.0
            assert await gate.acquire() == 0.0
            assert gate.in_flight == 2
            gate.release()
            gate.release()
            assert gate.in_flight == 0

        run_async(scenario())

    def test_waiters_granted_in_fifo_order(self):
        async def scenario():
            gate = AdmissionController(1, 8)
            await gate.acquire()
            order = []

            async def wait(tag):
                await gate.acquire()
                order.append(tag)

            tasks = [asyncio.ensure_future(wait(i)) for i in range(3)]
            await asyncio.sleep(0)  # let all three enqueue
            assert gate.queued == 3
            for _ in range(4):
                gate.release()
                await asyncio.sleep(0)
            await asyncio.gather(*tasks)
            assert order == [0, 1, 2]
            assert gate.in_flight == 0

        run_async(scenario())

    def test_full_queue_sheds_immediately(self):
        async def scenario():
            gate = AdmissionController(1, 1)
            await gate.acquire()
            waiter = asyncio.ensure_future(gate.acquire())
            await asyncio.sleep(0)
            with pytest.raises(Overloaded):
                await gate.acquire()
            assert gate.stats.rejected == 1
            gate.release()
            await waiter
            gate.release()

        run_async(scenario())

    def test_zero_queue_is_admit_or_reject(self):
        async def scenario():
            gate = AdmissionController(1, 0)
            await gate.acquire()
            with pytest.raises(Overloaded):
                await gate.acquire()
            gate.release()
            await gate.acquire()
            gate.release()

        run_async(scenario())

    def test_queue_timeout_sheds_the_waiter(self):
        async def scenario():
            gate = AdmissionController(1, 4, queue_timeout=0.02)
            await gate.acquire()
            with pytest.raises(Overloaded):
                await gate.acquire()
            assert gate.stats.queue_timeouts == 1
            assert gate.queued == 0
            gate.release()
            assert gate.in_flight == 0

        run_async(scenario())

    def test_release_without_acquire_raises(self):
        async def scenario():
            gate = AdmissionController(1, 1)
            with pytest.raises(SimulationError):
                gate.release()

        run_async(scenario())

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SimulationError):
            AdmissionController(0, 1)
        with pytest.raises(SimulationError):
            AdmissionController(1, -1)
        with pytest.raises(SimulationError):
            AdmissionController(1, 1, queue_timeout=0.0)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_miss_complete_hit(self):
        async def scenario():
            cache = ResultCache(4)
            status, entry = await cache.fetch_or_begin("k")
            assert (status, entry) == ("miss", None)
            done = CachedResult({"x": 1}, "fp")
            cache.complete("k", done)
            status, entry = await cache.fetch_or_begin("k")
            assert status == "hit"
            assert entry is done
            assert cache.stats.hits == 1

        run_async(scenario())

    def test_concurrent_identical_requests_coalesce(self):
        async def scenario():
            cache = ResultCache(4)
            status, _ = await cache.fetch_or_begin("k")
            assert status == "miss"
            riders = [
                asyncio.ensure_future(cache.fetch_or_begin("k"))
                for _ in range(5)
            ]
            await asyncio.sleep(0)
            done = CachedResult({"x": 1}, "fp")
            cache.complete("k", done)
            outcomes = await asyncio.gather(*riders)
            assert all(status == "coalesced" for status, _ in outcomes)
            assert all(entry is done for _, entry in outcomes)
            assert cache.stats.coalesced == 5
            assert cache.stats.misses == 1

        run_async(scenario())

    def test_failed_flight_propagates_to_riders(self):
        async def scenario():
            cache = ResultCache(4)
            await cache.fetch_or_begin("k")
            rider = asyncio.ensure_future(cache.fetch_or_begin("k"))
            await asyncio.sleep(0)
            cache.fail("k", ServeError("execution_failed", "boom"))
            with pytest.raises(ServeError):
                await rider
            # the failure is not cached: the next fetch is a fresh miss
            status, _ = await cache.fetch_or_begin("k")
            assert status == "miss"

        run_async(scenario())

    def test_lru_eviction_is_bounded(self):
        async def scenario():
            cache = ResultCache(2)
            for key in ("a", "b", "c"):
                await cache.fetch_or_begin(key)
                cache.complete(key, CachedResult({"k": key}, key))
            assert len(cache) == 2
            assert cache.stats.evictions == 1
            status, _ = await cache.fetch_or_begin("a")  # oldest, evicted
            assert status == "miss"

        run_async(scenario())

    def test_unpinned_completion_serves_riders_but_is_not_stored(self):
        async def scenario():
            cache = ResultCache(4)
            await cache.fetch_or_begin("k")
            rider = asyncio.ensure_future(cache.fetch_or_begin("k"))
            await asyncio.sleep(0)
            partial = CachedResult({"ok": False}, None)
            cache.complete("k", partial, store=False)
            status, entry = await rider
            assert status == "coalesced"
            assert entry is partial
            status, _ = await cache.fetch_or_begin("k")
            assert status == "miss"

        run_async(scenario())


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class TestSessions:
    def _base(self):
        base = Database()
        base.create_table("shared", Schema.of(x=int), rows=[{"x": 1}])
        return base

    def test_overlay_resolves_local_first_then_base(self):
        base = self._base()
        db = SessionDatabase(base)
        assert db.table("shared") is base.table("shared")
        db.create_table("mine", Schema.of(y=int))
        assert db.is_session_table("mine")
        assert not db.is_session_table("shared")
        assert db.table_names() == ["mine", "shared"]
        assert "shared" in db and "mine" in db

    def test_shadowing_hides_without_mutating_base(self):
        base = self._base()
        db = SessionDatabase(base)
        db.create_table("shared", Schema.of(x=int), rows=[{"x": 99}])
        assert len(db.table("shared")) == 1
        assert db.table("shared") is not base.table("shared")
        assert base.table("shared").rows[0]["x"] == 1

    def test_mutations_bump_scope_epoch(self):
        db = SessionDatabase(self._base())
        assert db.scope_epoch == 0
        db.create_table("t", Schema.of(x=int))
        assert db.scope_epoch == 1
        db.drop_table("t")
        assert db.scope_epoch == 2

    def test_cannot_drop_shared_table(self):
        db = SessionDatabase(self._base())
        with pytest.raises(Exception) as excinfo:
            db.drop_table("shared")
        assert "not a session-scope table" in str(excinfo.value)

    def test_scope_tags_separate_shared_and_private(self):
        base = self._base()
        session = Session("s000001", base)
        assert session.table_scope_tag("shared") == "shared"
        session.db.create_table("t", Schema.of(x=int))
        tag = session.table_scope_tag("t")
        assert tag.startswith("s000001:e")
        session.db.drop_table("t")
        session.db.create_table("t", Schema.of(x=int))
        assert session.table_scope_tag("t") != tag  # epoch moved on

    def test_manager_tokens_and_public_scope(self):
        manager = SessionManager(self._base())
        one = manager.open()
        two = manager.open(namespace=7)
        assert (one.token, two.token) == ("s000001", "s000002")
        assert manager.get(None) is manager.public
        assert not manager.public.writable
        assert two.writable and two.namespace == 7
        assert manager.close(one.token)
        with pytest.raises(ServeError) as excinfo:
            manager.get(one.token)
        assert excinfo.value.code == "unknown_session"


# ---------------------------------------------------------------------------
# Statement read/write sets (engine support for the server)
# ---------------------------------------------------------------------------


class TestStatementTables:
    def cases(self):
        return [
            ("SELECT * FROM t", {"t"}, set()),
            (
                "SELECT a FROM t JOIN u ON t.a = u.a "
                "WHERE a IN (SELECT b FROM v)",
                {"t", "u", "v"},
                set(),
            ),
            ("CREATE TABLE z (x int)", set(), {"z"}),
            ("CREATE TABLE z AS SELECT * FROM t", {"t"}, {"z"}),
            ("INSERT INTO z VALUES (1)", set(), {"z"}),
            ("INSERT INTO z SELECT x FROM t", {"t"}, {"z"}),
            ("UPDATE z SET x = 1 WHERE x > 0", set(), {"z"}),
            ("DELETE FROM z WHERE x = 1", set(), {"z"}),
            ("DROP TABLE z", set(), {"z"}),
        ]

    def test_read_write_sets(self):
        for statement, reads, writes in self.cases():
            kind, payload = parse_statement(statement)
            got_reads, got_writes = statement_tables(kind, payload)
            assert got_reads == reads, statement
            assert got_writes == writes, statement

    def test_cte_names_are_not_reads(self):
        kind, payload = parse_statement(
            "WITH c AS (SELECT x FROM t) SELECT * FROM c JOIN u ON c.x = u.x"
        )
        reads, writes = statement_tables(kind, payload)
        assert reads == {"t", "u"}
        assert writes == set()


# ---------------------------------------------------------------------------
# Integration: a real server on real sockets
# ---------------------------------------------------------------------------


def start_server(**config_kwargs):
    """A ReproServer on an OS-assigned port over the demo catalog."""
    config = ServeConfig(port=0, **config_kwargs)
    return serve_in_thread(ReproServer(config, catalog=build_demo_catalog()))


GROUP_SQL = (
    "SELECT region, COUNT(*) AS n, AVG(income) AS income "
    "FROM person GROUP BY region ORDER BY region"
)
MCDB_BODY = {
    "tables": [
        {
            "name": "noise",
            "vg": "normal",
            "outer_table": "person",
            "parameters": {"mean": 0.0, "std": 1.0},
        }
    ],
    "statement": "SELECT AVG(value) AS v FROM noise",
    "n_mc": 12,
    "seed": 9,
}


class TestServerIntegration:
    def test_sql_round_trip_matches_in_process_engine(self):
        with start_server() as (host, port):
            with Client(host, port) as client:
                outcome = client.sql(GROUP_SQL)
        rows = build_demo_catalog().sql(GROUP_SQL)
        assert outcome.result["rows"] == rows
        assert outcome.result["rowcount"] == len(rows)
        assert outcome.fingerprint == result_fingerprint(rows)

    def test_repeat_query_hits_cache_with_identical_bytes(self):
        with start_server() as (host, port):
            with Client(host, port) as client:
                first = client.sql(GROUP_SQL)
                second = client.sql(GROUP_SQL)
        assert (first.cache, second.cache) == ("miss", "hit")
        assert first.result_bytes == second.result_bytes
        assert first.fingerprint == second.fingerprint

    def test_sql_ignores_fields_it_does_not_read(self):
        with start_server() as (host, port):
            with Client(host, port) as client:
                first = client.request(
                    {"op": "sql", "statement": GROUP_SQL, "morsel_size": 7}
                )
                second = client.request(
                    {"op": "sql", "statement": GROUP_SQL, "morsel_size": "x"}
                )
        assert (first.cache, second.cache) == ("miss", "hit")
        assert first.result_bytes == second.result_bytes

    def test_concurrent_identical_clients_execute_exactly_once(
        self, observer
    ):
        clients = 6
        outcomes = [None] * clients
        errors = []
        with start_server(max_in_flight=3, max_queue=32) as (host, port):

            def issue(slot):
                try:
                    with Client(host, port) as client:
                        outcomes[slot] = client.mcdb(**MCDB_BODY)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=issue, args=(slot,))
                for slot in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        # The acceptance criterion: N identical concurrent requests,
        # exactly ONE execution, proven by the serve.exec counter...
        assert observer.counter("serve.exec").value == 1
        statuses = sorted(o.cache for o in outcomes)
        assert statuses.count("miss") == 1
        assert all(s in ("miss", "coalesced", "hit") for s in statuses)
        # ... and every client received byte-identical payloads.
        payloads = {o.result_bytes for o in outcomes}
        fingerprints = {o.fingerprint for o in outcomes}
        assert len(payloads) == 1
        assert len(fingerprints) == 1

    def test_sessions_cannot_observe_each_other(self):
        with start_server() as (host, port):
            with Client(host, port) as one, Client(host, port) as two:
                one.open_session()
                two.open_session()
                one.sql("CREATE TABLE scratch (x int)")
                one.sql("INSERT INTO scratch VALUES (1), (2)")
                two.sql("CREATE TABLE scratch (x int)")
                two.sql("INSERT INTO scratch VALUES (10)")
                assert one.sql(
                    "SELECT SUM(x) AS s FROM scratch"
                ).result["rows"] == [{"s": 3.0}]
                assert two.sql(
                    "SELECT SUM(x) AS s FROM scratch"
                ).result["rows"] == [{"s": 10.0}]
                # the public scope sees neither session's table
                with Client(host, port) as anon:
                    with pytest.raises(ServeError) as excinfo:
                        anon.sql("SELECT * FROM scratch")
                    assert excinfo.value.code == "invalid_query"

    def test_session_drop_recreate_never_serves_stale_cache(self):
        with start_server() as (host, port):
            with Client(host, port) as client:
                client.open_session()
                client.sql("CREATE TABLE t (x int)")
                client.sql("INSERT INTO t VALUES (1)")
                first = client.sql("SELECT SUM(x) AS s FROM t")
                client.sql("DROP TABLE t")
                client.sql("CREATE TABLE t (x int)")
                client.sql("INSERT INTO t VALUES (2)")
                second = client.sql("SELECT SUM(x) AS s FROM t")
        assert first.result["rows"] == [{"s": 1.0}]
        assert second.result["rows"] == [{"s": 2.0}]
        assert second.cache == "miss"

    def test_error_taxonomy_over_the_wire(self):
        with start_server() as (host, port):
            with Client(host, port) as client:
                # bad_request: unknown op
                with pytest.raises(ServeError) as excinfo:
                    client.request({"op": "frobnicate"})
                assert excinfo.value.code == "bad_request"
                # invalid_query: parse error, then unknown table
                with pytest.raises(ServeError) as excinfo:
                    client.sql("SELEKT 1")
                assert excinfo.value.code == "invalid_query"
                with pytest.raises(ServeError) as excinfo:
                    client.sql("SELECT * FROM nope")
                assert excinfo.value.code == "invalid_query"
                # forbidden: public DDL, session writes to shared tables
                with pytest.raises(ServeError) as excinfo:
                    client.sql("CREATE TABLE t (x int)")
                assert excinfo.value.code == "forbidden"
                client.open_session()
                for statement in (
                    "DROP TABLE person",
                    "INSERT INTO person VALUES (1, 2, 'x', 3.0)",
                    "CREATE TABLE person (pid int)",
                ):
                    with pytest.raises(ServeError) as excinfo:
                        client.sql(statement)
                    assert excinfo.value.code == "forbidden", statement
                # unknown_session
                with pytest.raises(ServeError) as excinfo:
                    client.request({"op": "ping", "session": "s999999"})
                assert excinfo.value.code == "unknown_session"
                # bad_request: malformed op-specific fields
                with pytest.raises(ServeError) as excinfo:
                    client.request({"op": "mcdb", "tables": []})
                assert excinfo.value.code == "bad_request"
                for execution in ("auto", "vectorized", 1):
                    with pytest.raises(ServeError) as excinfo:
                        client.sql("SELECT pid FROM person", execution=execution)
                    assert excinfo.value.code == "bad_request", execution

    def test_execution_failure_carries_code(self):
        with start_server() as (host, port):
            with Client(host, port) as client:
                # a naive mcdb statement returning 2 rows is a
                # SimulationError at execution time, not a parse error
                with pytest.raises(ServeError) as excinfo:
                    client.mcdb(
                        tables=MCDB_BODY["tables"],
                        statement=(
                            "SELECT value FROM noise"
                        ),
                        n_mc=2,
                    )
        assert excinfo.value.code == "execution_failed"

    def test_overload_sheds_with_explicit_code(self):
        with start_server(max_in_flight=1, max_queue=0) as (host, port):
            slow_error = []

            def slow():
                try:
                    with Client(host, port) as client:
                        client.ping(delay=1.5)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    slow_error.append(exc)

            thread = threading.Thread(target=slow)
            thread.start()
            shed = None
            try:
                with Client(host, port) as client:
                    deadline = 50
                    for _ in range(deadline):
                        snapshot = client.stats()
                        if snapshot["admission"]["in_flight"] >= 1:
                            break
                        import time

                        time.sleep(0.05)
                    else:
                        pytest.fail("slow request never admitted")
                    try:
                        client.ping()
                    except ServeError as exc:
                        shed = exc
                    snapshot = client.stats()
            finally:
                thread.join()
        assert not slow_error
        assert shed is not None and shed.code == "overloaded"
        assert snapshot["admission"]["rejected"] >= 1
        assert snapshot["server"]["errors"].get("overloaded", 0) >= 1

    def test_burst_resolves_every_request_answered_or_shed(self):
        burst = 8
        answered, shed, errors = [], [], []
        # Every client connects before any sends, so the burst arrives
        # together against 1 in-flight slot and 2 queue entries.
        connected = threading.Barrier(burst, timeout=10)
        with start_server(max_in_flight=1, max_queue=2) as (host, port):

            def send(slot):
                try:
                    with Client(host, port) as client:
                        connected.wait()
                        try:
                            client.ping(delay=0.3)
                        except ServeError as exc:
                            if exc.code != "overloaded":
                                raise
                            shed.append(slot)
                        else:
                            answered.append(slot)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=send, args=(slot,))
                for slot in range(burst)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(answered) + len(shed) == burst
        assert answered and shed

    def test_request_timeout_maps_to_timeout_code(self):
        with start_server(request_timeout=0.2) as (host, port):
            with Client(host, port) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.ping(delay=5)
        assert excinfo.value.code == "timeout"
        assert excinfo.value.attempts  # per-attempt history present
        assert excinfo.value.attempts[0]["error_type"] == "TaskTimeout"


class TestServerDeterminism:
    @pytest.mark.parametrize("backend", ["serial", "process", None])
    def test_mcdb_fingerprint_parity_across_backends(self, backend):
        from repro.mcdb import MonteCarloDatabase, NormalVG, RandomTableSpec

        with start_server(backend=backend) as (host, port):
            with Client(host, port) as client:
                served = client.mcdb(**MCDB_BODY)
        mcdb = MonteCarloDatabase(build_demo_catalog(), seed=MCDB_BODY["seed"])
        mcdb.register_random_table(
            RandomTableSpec(
                name="noise",
                vg=NormalVG(),
                outer_table="person",
                parameters={"mean": 0.0, "std": 1.0},
            )
        )
        from repro.serve.server import _ScalarQuery

        dist = mcdb.run_naive(
            _ScalarQuery(MCDB_BODY["statement"]), MCDB_BODY["n_mc"],
            backend="serial",
        )
        assert served.fingerprint == result_fingerprint(
            {"samples": dist.samples}
        )
        np.testing.assert_array_equal(
            served.result["samples"], dist.samples
        )

    @pytest.mark.ambient_faults
    def test_served_answers_equal_in_process_under_the_ambient_plan(self):
        from repro.mcdb import MonteCarloDatabase, NormalVG, RandomTableSpec
        from repro.serve.server import _ScalarQuery

        def canonical(result):
            return json.dumps(
                encode_payload(result), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")

        namespace = 3
        with start_server() as (host, port):
            with Client(host, port) as client:
                client.open_session(namespace=namespace)
                # The naive world's table is built a column at a time:
                # an outer table and constant parameters.
                served = client.mcdb(**MCDB_BODY)
                rows = client.sql(GROUP_SQL)
        seed = fold_seed(namespace, MCDB_BODY["seed"])
        mcdb = MonteCarloDatabase(build_demo_catalog(), seed=seed)
        mcdb.register_random_table(
            RandomTableSpec(
                name="noise",
                vg=NormalVG(),
                outer_table="person",
                parameters={"mean": 0.0, "std": 1.0},
            )
        )
        dist = mcdb.run_naive(
            _ScalarQuery(MCDB_BODY["statement"]), MCDB_BODY["n_mc"],
            backend="serial",
        )
        np.testing.assert_array_equal(served.result["samples"], dist.samples)
        assert served.result_bytes == canonical(
            {
                "n": dist.n,
                "expectation": float(dist.expectation()),
                "variance": float(dist.variance()),
                "samples": dist.samples,
                "seed": seed,
            }
        )
        expected = build_demo_catalog().sql(GROUP_SQL)
        assert rows.result_bytes == canonical(
            {"rows": expected, "rowcount": len(expected)}
        )

    def test_seed_namespaces_give_disjoint_streams(self):
        with start_server() as (host, port):
            with Client(host, port) as one, Client(host, port) as two:
                one.open_session(namespace=1)
                two.open_session(namespace=2)
                first = one.mcdb(**MCDB_BODY)
                second = two.mcdb(**MCDB_BODY)
                anonymous = Client(host, port)
                try:
                    public = anonymous.mcdb(**MCDB_BODY)
                finally:
                    anonymous.close()
        assert first.fingerprint != second.fingerprint
        assert first.fingerprint != public.fingerprint
        # namespace 0 folds to the identity: a session without a
        # namespace shares the public stream (and its cache entries)
        with start_server() as (host, port):
            with Client(host, port) as client:
                client.open_session(namespace=0)
                again = client.mcdb(**MCDB_BODY)
        assert again.fingerprint == public.fingerprint

    def test_ensemble_served_matches_in_process(self):
        from repro.ensemble import run_ensemble
        from repro.ensemble.scenarios import epidemic_branching_ensemble

        with start_server() as (host, port):
            with Client(host, port) as client:
                served = client.ensemble(demo="epidemic", seed=5, quick=True)
                repeat = client.ensemble(demo="epidemic", seed=5, quick=True)
        assert served.result["ok"] is True
        assert repeat.cache == "hit"
        assert repeat.result_bytes == served.result_bytes
        outcome = run_ensemble(epidemic_branching_ensemble(seed=5, quick=True))
        expected = result_fingerprint(
            {name: outcome.results[name] for name in sorted(outcome.results)}
        )
        assert served.fingerprint == expected

    def test_a_record_array_result_decodes_to_its_fingerprint(self):
        """A scenario returning a record array, requested through
        ``ensemble``: the client decodes the payload, and the decoded
        result has the response's fingerprint."""
        with start_server() as (host, port):
            with Client(host, port) as client:
                served = client.ensemble(
                    nodes=[{"name": "n0", "scenario": "test.serve.record"}]
                )
        assert served.result["ok"] is True
        table = served.result["results"]["n0"]["table"]
        expected = record_scenario({}, 0, {})["table"]
        assert table.dtype == expected.dtype
        np.testing.assert_array_equal(table, expected)
        assert result_fingerprint(served.result["results"]) == served.fingerprint

    def test_injected_fault_recovers_with_identical_bytes(self, observer):
        reference = None
        with start_server() as (host, port):
            with Client(host, port) as client:
                reference = client.sql(GROUP_SQL)
        with injected(FaultPlan(failures={("serve.request", 0): 1})):
            with start_server() as (host, port):
                with Client(host, port) as client:
                    recovered = client.sql(GROUP_SQL)
        assert recovered.result_bytes == reference.result_bytes
        assert recovered.fingerprint == reference.fingerprint
        assert observer.counter("serve.faults.injected").value == 1
        assert observer.counter("serve.faults.retries").value == 1

    @pytest.mark.parametrize(
        "plan, timeout, attempts",
        [
            (None, None, None),
            (None, 5.0, 1),
            (FaultPlan(failures={("serve.request", 0): 1}), None,
             DEFAULT_RETRY_POLICY.max_attempts),
        ],
        ids=["neither", "timeout", "plan"],
    )
    def test_recovery_attempts(self, plan, timeout, attempts):
        # A fault plan buys the default policy's attempts; a timeout
        # alone bounds one attempt; with neither, the call runs bare.
        server = ReproServer(ServeConfig(request_timeout=timeout))
        try:
            with injected(plan):
                policy, active = server._recovery()
        finally:
            asyncio.run(server.stop())
        assert active is plan
        if attempts is None:
            assert policy is None
        else:
            assert policy.max_attempts == attempts
            assert policy.timeout == timeout

    def test_exhausted_retries_report_full_history(self):
        with injected(FaultPlan(failures={("serve.request", 0): 99})):
            with start_server() as (host, port):
                with Client(host, port) as client:
                    with pytest.raises(ServeError) as excinfo:
                        client.sql(GROUP_SQL)
        error = excinfo.value
        assert error.code == "execution_failed"
        assert len(error.attempts) == 3  # the default plan-active budget
        assert [a["attempt"] for a in error.attempts] == [0, 1, 2]
        assert all(
            a["error_type"] == "InjectedFault" for a in error.attempts
        )


class TestServeExample:
    def test_serve_session_example_runs(self):
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = subprocess.run(
            [sys.executable, os.path.join(root, "examples",
                                          "serve_session.py")],
            capture_output=True,
            text=True,
            timeout=180,
            cwd=root,
        )
        assert result.returncode == 0, result.stderr
        assert "payloads byte-identical: True" in result.stdout
        assert "writing shared state -> forbidden" in result.stdout
        assert "shed with explicit 'overloaded'" in result.stdout


# ---------------------------------------------------------------------------
# RunStore concurrency regression (satellite 2)
# ---------------------------------------------------------------------------


class TestRunStoreConcurrency:
    def test_many_threads_hammering_one_key(self, tmp_path):
        """put/get/evict races on a single key must never corrupt state.

        Every round also asks the instance's memory, which those races
        fill and drop: a fingerprint it answers must be the value's.
        """
        store = RunStore(tmp_path)
        key = "deadbeef" * 8
        value = {"samples": np.arange(32, dtype=np.float64), "n": 32}
        expected = result_fingerprint(value)
        errors = []
        rounds = 25

        def hammer(slot):
            try:
                for i in range(rounds):
                    store.put(key, value, scenario="hammer", seed=slot)
                    got = store.get(key)
                    if got is not None:
                        np.testing.assert_array_equal(
                            got["samples"], value["samples"]
                        )
                    (fingerprint,) = store.fingerprints([key])
                    assert fingerprint in (None, expected), fingerprint
                    store.contains_many([key])
                    if slot == 0 and i % 5 == 0:
                        store.evict(key)
                    if slot == 1 and i % 3 == 0:
                        # gc concurrent with in-flight puts: the
                        # age-gated scratch sweep must never delete a
                        # live staging dir (an unconditional sweep made
                        # racing puts crash on a half-deleted stage).
                        store.gc()
            except Exception:  # noqa: BLE001 - surfaced below
                errors.append(traceback.format_exc())

        threads = [
            threading.Thread(target=hammer, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, "\n".join(errors)
        # the store is still coherent: one final put/get round trips
        store.put(key, value, scenario="hammer", seed=0)
        final = store.get(key)
        assert final is not None
        np.testing.assert_array_equal(final["samples"], value["samples"])
        assert store.stats.puts >= 1
