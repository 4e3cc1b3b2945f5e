"""Command-line entry points: ``python -m repro [command]``.

``tour`` (the default) runs a miniature pass through the library's
layers — uncertain data in the Monte Carlo database, an epidemic
intervention, a particle filter against an exact Kalman reference, and
a result-caching optimum — and points at the full examples and
benchmarks.  Each stage is isolated: a raising stage prints a one-line
failure instead of a bare traceback, the remaining stages still run,
and the process exits non-zero.

``obs-report`` force-enables the :mod:`repro.obs` observability
subsystem, runs a figure-scale experiment across the instrumented hot
paths, and dumps a Chrome-trace JSON plus a metrics snapshot.

``ensemble`` drives the :mod:`repro.ensemble` orchestration layer:
``run`` schedules a demo ensemble against the content-addressed run
store (re-running serves every node from the warm store), ``ls`` lists
stored runs, and ``gc`` evicts by age/size.

``delta`` drives the :mod:`repro.delta` incremental-recomputation
layer: ``plan`` shows (and ``--execute`` recomputes) the exact
invalidation cone of a ``--set NODE:KEY=VALUE`` perturbation against a
warm store, and ``diff`` compares two branch timelines store-side
without re-running either.

``serve`` starts the :mod:`repro.serve` simulation service (async
multi-client server with admission control, session isolation, and a
deduplicating result cache); ``query`` is the matching one-shot SQL
client.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

import repro

#: Environment variable naming the default on-disk run store location.
STORE_ENV_VAR = "REPRO_ENSEMBLE_STORE"
DEFAULT_STORE = ".repro-ensemble-store"

EPILOG = """\
commands:
  tour        one-minute guided tour through the library's layers (default)
  obs-report  run an instrumented experiment, dump trace + metrics snapshots
  ensemble    scenario orchestration: run a demo ensemble against the
              content-addressed run store, list stored runs, or gc the store
  delta       incremental recomputation: plan/execute the exact invalidation
              cone of a perturbation, or diff two branch timelines
              store-side without re-running either
  serve       start the simulation service (SQL + MCDB + ensembles over
              newline-delimited JSON, with admission control and a
              deduplicating result cache)
  query       one-shot SQL client for a running `serve` instance

run `python -m repro <command> --help` for per-command options.
"""


# -- tour -------------------------------------------------------------------

def _tour_mcdb() -> None:
    from repro.engine import Database
    from repro.mcdb import MonteCarloDatabase, NormalVG, RandomTableSpec

    db = Database()
    db.sql("CREATE TABLE patients (pid int)")
    for i in range(50):
        db.sql(f"INSERT INTO patients VALUES ({i})")
    mcdb = MonteCarloDatabase(db, seed=1)
    mcdb.register_random_table(
        RandomTableSpec(
            name="sbp",
            vg=NormalVG(),
            outer_table="patients",
            parameters={"mean": 120.0, "std": 10.0},
        )
    )
    dist = mcdb.run_bundled(
        lambda bundles, _db: bundles["sbp"].aggregate_avg("value"), n_mc=200
    )
    print(f"[mcdb]        E[avg SBP] = {dist.expectation():.2f}, "
          f"95% quantile = {dist.quantile(0.95):.2f}")


def _tour_indemics() -> None:
    from repro.epidemics import (
        DiseaseParameters,
        IndemicsEngine,
        VaccinatePreschoolersPolicy,
        generate_population,
        run_with_policy,
    )
    from repro.stats import make_rng

    population = generate_population(120, make_rng(0))
    engine = IndemicsEngine(population, DiseaseParameters(), seed=2)
    engine.seed_infections(4)
    log = run_with_policy(engine, VaccinatePreschoolersPolicy(0.01), 30)
    fired = [e for e in log if e.triggered]
    print(f"[indemics]    attack rate {engine.attack_rate():.2f}; "
          f"Algorithm 1 triggered: {bool(fired)}")


def _tour_assimilation() -> None:
    from repro.assimilation import (
        LinearGaussianSSM,
        kalman_filter,
        particle_filter,
    )
    from repro.stats import make_rng

    ssm = LinearGaussianSSM()
    _, observations = ssm.simulate(30, make_rng(3))
    kalman_means, _ = kalman_filter(ssm, observations)
    result = particle_filter(
        ssm.to_state_space_model(), observations, 500, make_rng(4)
    )
    rmse = float(
        np.sqrt(np.mean((result.filtered_means[:, 0] - kalman_means) ** 2))
    )
    print(f"[assimilate]  particle filter vs exact Kalman: RMSE {rmse:.3f}")


def _tour_caching() -> None:
    from repro.composite import (
        ArrivalProcessModel,
        QueueModel,
        estimate_statistics,
        optimal_alpha,
    )
    from repro.stats import make_rng

    stats = estimate_statistics(
        ArrivalProcessModel(cost=5.0),
        QueueModel(cost=0.5),
        make_rng(5),
        pilot_m1_runs=40,
        m2_runs_per_m1=4,
    )
    print(f"[caching]     optimal replication fraction alpha* = "
          f"{optimal_alpha(stats):.3f}")


def _tour_ensemble() -> None:
    import tempfile

    from repro.ensemble import RunStore, run_ensemble
    from repro.ensemble.scenarios import epidemic_branching_ensemble

    with tempfile.TemporaryDirectory() as scratch:
        store = RunStore(scratch)
        cold = run_ensemble(
            epidemic_branching_ensemble(quick=True), store=store
        )
        warm = run_ensemble(
            epidemic_branching_ensemble(quick=True), store=store
        )
    print(f"[ensemble]    branched timelines: cold ran {cold.nodes_run} "
          f"node(s), warm rerun served {warm.nodes_cached} from the store")


def _tour_serve() -> None:
    from repro.serve import Client, ReproServer, ServeConfig
    from repro.serve import build_demo_catalog, serve_in_thread

    server = ReproServer(ServeConfig(), catalog=build_demo_catalog())
    statement = (
        "SELECT region, COUNT(*) AS n, AVG(income) AS income "
        "FROM person GROUP BY region ORDER BY region"
    )
    with serve_in_thread(server) as (host, port):
        with Client(host, port) as client:
            first = client.sql(statement)
            second = client.sql(statement)
    identical = first.result_bytes == second.result_bytes
    print(f"[serve]       2 clientside queries -> {first.cache} then "
          f"{second.cache} (payloads byte-identical: {identical})")


TOUR_STAGES: Tuple[Tuple[str, Callable[[], None]], ...] = (
    ("mcdb", _tour_mcdb),
    ("indemics", _tour_indemics),
    ("assimilate", _tour_assimilation),
    ("caching", _tour_caching),
    ("ensemble", _tour_ensemble),
    ("serve", _tour_serve),
)


def tour(
    stages: Optional[Sequence[Tuple[str, Callable[[], None]]]] = None,
) -> int:
    """Run the guided tour; returns a process exit code.

    Stages run independently: one raising stage is reported as a
    one-line ``FAILED`` row (full traceback suppressed), the remaining
    stages still execute, and the exit code is 1 if anything failed.
    """
    print(f"repro {repro.__version__} — Model-Data Ecosystems (PODS 2014)")
    print("=" * 60)
    failures: List[str] = []
    for label, stage in TOUR_STAGES if stages is None else stages:
        try:
            stage()
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            failures.append(label)
            print(f"[{label}]  FAILED: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    print("=" * 60)
    print("full walkthroughs:  python examples/<name>.py")
    print("all reproductions:  pytest benchmarks/ --benchmark-only")
    print("observability:      python -m repro obs-report")
    print("ensembles:          python -m repro ensemble run --demo epidemic")
    if failures:
        print(f"tour failed in stage(s): {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


# -- ensemble ---------------------------------------------------------------

def _open_store(root):
    """The run store at ``root``; one the store refuses to open ends the
    command with its message as one line on stderr and exit code 1."""
    from repro.ensemble import RunStore
    from repro.errors import SimulationError

    try:
        return RunStore(root)
    except SimulationError as exc:
        raise SystemExit(str(exc)) from None


def ensemble_run(args) -> int:
    from repro.ensemble import run_ensemble
    from repro.ensemble.scenarios import DEMO_ENSEMBLES

    store = _open_store(args.store)
    builder = DEMO_ENSEMBLES[args.demo]
    ensemble = builder(seed=args.seed, quick=args.quick)
    result = run_ensemble(ensemble, store=store, backend=args.backend)
    print(result.render())
    return 0 if result.ok else 1


def _store_header(store) -> str:
    """The one-line store summary (no entry is read)."""
    count, total = store.summary()
    if not count:
        return f"store {store.root!r} is empty"
    return f"store {store.root!r}: {count} run(s), {total} bytes"


def ensemble_ls(args) -> int:
    store = _open_store(args.store)
    print(_store_header(store))
    if args.summary:
        return 0
    for entry in store.ls(limit=args.limit):
        print(f"  {entry.key[:16]}  {entry.size_bytes:>8}B  "
              f"seed={entry.seed:<6} {entry.scenario}")
    if args.limit is not None:
        count, _ = store.summary()
        if count > args.limit:
            print(f"  ... ({count - args.limit} more; raise --limit)")
    return 0


def _non_negative(cast):
    """An argparse ``type``: ``cast(raw)``, refused unless it is >= 0."""

    def parse(raw: str):
        value = cast(raw)
        if not value >= 0:  # NaN too
            raise argparse.ArgumentTypeError(f"must be >= 0, got {raw}")
        return value

    parse.__name__ = cast.__name__  # names the type in argparse errors
    return parse


def ensemble_gc(args) -> int:
    store = _open_store(args.store)
    max_age = (
        args.max_age_days * 86400.0 if args.max_age_days is not None else None
    )
    evicted = store.gc(
        max_age_seconds=max_age, max_total_bytes=args.max_bytes
    )
    print(f"evicted {len(evicted)} run(s) from {store.root!r}; "
          f"{store.total_bytes()} bytes retained")
    return 0


# -- delta ------------------------------------------------------------------

def _parse_value(raw: str):
    """CLI literal -> int, float, bool, or string (in that order)."""
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            continue
    return raw


def _parse_sets(items):
    """``NODE:KEY=VALUE`` occurrences -> ``{node: {key: value}}``."""
    updates = {}
    for item in items or ():
        node, sep, assignment = item.partition(":")
        key, eq, raw = assignment.partition("=")
        if not sep or not eq or not node or not key:
            raise SystemExit(
                f"--set expects NODE:KEY=VALUE, got {item!r}"
            )
        updates.setdefault(node, {})[key] = _parse_value(raw)
    return updates


def _demo_ensemble(demo: str, seed: int, quick: bool):
    from repro.ensemble.scenarios import DEMO_ENSEMBLES

    return DEMO_ENSEMBLES[demo](seed=seed, quick=quick)


def delta_plan_cmd(args) -> int:
    from repro.delta import execute_plan, perturb, plan_delta

    store = _open_store(args.store)
    base = _demo_ensemble(args.demo, args.seed, args.quick)
    updates = _parse_sets(args.set)
    if updates:
        target = perturb(base, params=updates, name=f"{base.name}~delta")
        plan = plan_delta(target, store, base=base)
    else:
        target, plan = base, plan_delta(base, store)
    print(_store_header(store))
    print(plan.render())
    if not args.execute:
        return 0
    result = execute_plan(plan, store, backend=args.backend)
    print(result.render())
    return 0 if result.ok else 1


def delta_diff_cmd(args) -> int:
    import json as _json

    from repro.delta import diff_timelines, perturb

    store = _open_store(args.store)

    def timeline(seed, sets, suffix):
        ensemble = _demo_ensemble(args.demo, seed, args.quick)
        updates = _parse_sets(sets)
        if updates:
            ensemble = perturb(
                ensemble, params=updates, name=f"{ensemble.name}~{suffix}"
            )
        return ensemble

    ensemble_a = timeline(args.seed_a, args.set_a, "a")
    ensemble_b = timeline(args.seed_b, args.set_b, "b")
    report = diff_timelines(store, ensemble_a, ensemble_b)
    if args.json:
        print(_json.dumps(report.as_dict(), indent=2, default=str))
    else:
        print(report.render())
    return 0 if report.identical else 1


# -- serve ------------------------------------------------------------------

def serve_cmd(args) -> int:
    import asyncio

    from repro.serve import ReproServer, ServeConfig
    from repro.serve.server import build_demo_catalog, load_csv_catalog

    catalog = None
    if args.csv:
        specs = {}
        for item in args.csv:
            name, _, path = item.partition("=")
            if not name or not path:
                print(f"--csv expects NAME=PATH, got {item!r}",
                      file=sys.stderr)
                return 2
            specs[name] = path
        catalog = load_csv_catalog(specs)
    elif args.demo_catalog:
        catalog = build_demo_catalog()

    store = _open_store(args.store) if args.store else None

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        request_timeout=args.request_timeout,
        cache_entries=args.cache_entries,
        backend=args.backend,
    )
    server = ReproServer(config, catalog=catalog, store=store)

    async def _run() -> None:
        host, port = await server.start()
        tables = server.catalog.table_names()
        print(f"repro serve listening on {host}:{port} "
              f"(catalog: {tables or 'empty'}; "
              f"max_in_flight={config.max_in_flight}, "
              f"max_queue={config.max_queue})")
        sys.stdout.flush()
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    return 0


def query_cmd(args) -> int:
    import json as _json

    from repro.serve import Client, ServeError

    try:
        with Client(args.host, args.port, timeout=args.timeout) as client:
            if args.session_namespace is not None:
                client.open_session(namespace=args.session_namespace)
            outcome = client.sql(args.statement, execution=args.execution)
    except ServeError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        for record in exc.attempts:
            print(f"  attempt {record.get('attempt')}: "
                  f"{record.get('error_type')}: {record.get('message')}",
                  file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    for row in outcome.result.get("rows", []):
        print(_json.dumps(row, sort_keys=True, default=str))
    print(f"-- {outcome.result.get('rowcount', 0)} row(s), "
          f"cache={outcome.cache}, fingerprint={outcome.fingerprint}",
          file=sys.stderr)
    return 0


# -- argument parsing -------------------------------------------------------

def main(argv=None) -> int:
    from repro.engine.operators import EXECUTIONS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Model-Data Ecosystems (PODS 2014) reproduction.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command")
    commands.add_parser(
        "tour", help="one-minute guided tour (default)"
    )
    report = commands.add_parser(
        "obs-report",
        help="run an instrumented figure-scale experiment and dump the "
        "trace + metrics snapshot",
    )
    report.add_argument(
        "--out-dir",
        default=None,
        help="artifact directory (default: benchmarks/results)",
    )
    report.add_argument(
        "--backend",
        default=None,
        help="execution backend: serial or process "
        "(default: the REPRO_BACKEND environment variable, else serial)",
    )
    report.add_argument(
        "--quick",
        action="store_true",
        help="shrink problem sizes (CI smoke mode)",
    )

    ensemble = commands.add_parser(
        "ensemble",
        help="scenario orchestration over the content-addressed run store",
    )
    default_store = os.environ.get(STORE_ENV_VAR) or DEFAULT_STORE
    actions = ensemble.add_subparsers(dest="action", required=True)

    run_cmd = actions.add_parser(
        "run", help="schedule a demo ensemble (cached by content address)"
    )
    run_cmd.add_argument(
        "--demo",
        choices=("composite", "epidemic", "sweep"),
        default="epidemic",
        help="which demo ensemble to run (default: epidemic branching)",
    )
    run_cmd.add_argument(
        "--store", default=default_store,
        help=f"run-store directory (default: ${STORE_ENV_VAR} "
        f"or {DEFAULT_STORE})",
    )
    run_cmd.add_argument(
        "--backend", default=None,
        help="execution backend: serial or process "
        "(default: the REPRO_BACKEND environment variable, else serial)",
    )
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument(
        "--quick", action="store_true", help="shrink problem sizes"
    )
    run_cmd.set_defaults(handler=ensemble_run)

    ls_cmd = actions.add_parser("ls", help="list stored runs, oldest first")
    ls_cmd.add_argument("--store", default=default_store)
    ls_cmd.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show at most N runs (metadata is read only for those N)",
    )
    ls_cmd.add_argument(
        "--summary", action="store_true",
        help="print only the count/bytes header (no per-run metadata reads)",
    )
    ls_cmd.set_defaults(handler=ensemble_ls)

    gc_cmd = actions.add_parser(
        "gc", help="evict stored runs by age and/or total size"
    )
    gc_cmd.add_argument("--store", default=default_store)
    gc_cmd.add_argument(
        "--max-age-days", type=_non_negative(float), default=None,
        help="evict entries older than this many days",
    )
    gc_cmd.add_argument(
        "--max-bytes", type=_non_negative(int), default=None,
        help="evict oldest entries until the store fits in this many bytes",
    )
    gc_cmd.set_defaults(handler=ensemble_gc)

    delta_parser = commands.add_parser(
        "delta",
        help="incremental recomputation: plan/execute invalidation cones "
        "and diff branch timelines store-side",
    )
    delta_actions = delta_parser.add_subparsers(dest="action", required=True)

    plan_cmd = delta_actions.add_parser(
        "plan",
        help="plan (and optionally execute) the exact invalidation cone "
        "of a perturbed demo ensemble",
    )
    plan_cmd.add_argument(
        "--demo", choices=("composite", "epidemic", "sweep"),
        default="sweep",
        help="base demo ensemble (default: sweep — the DoE surface)",
    )
    plan_cmd.add_argument("--store", default=default_store)
    plan_cmd.add_argument("--seed", type=int, default=0)
    plan_cmd.add_argument(
        "--quick", action="store_true", help="shrink problem sizes"
    )
    plan_cmd.add_argument(
        "--set", action="append", metavar="NODE:KEY=VALUE",
        help="perturb one node's parameter (repeatable); the plan shows "
        "the cone the change invalidates",
    )
    plan_cmd.add_argument(
        "--execute", action="store_true",
        help="recompute the cone (default: plan only)",
    )
    plan_cmd.add_argument(
        "--backend", default=None,
        help="execution backend: serial or process "
        "(default: the REPRO_BACKEND environment variable, else serial)",
    )
    plan_cmd.set_defaults(handler=delta_plan_cmd)

    diff_cmd = delta_actions.add_parser(
        "diff",
        help="compare two branch timelines store-side (no re-execution); "
        "exits 1 if they differ",
    )
    diff_cmd.add_argument(
        "--demo", choices=("composite", "epidemic", "sweep"),
        default="sweep",
    )
    diff_cmd.add_argument("--store", default=default_store)
    diff_cmd.add_argument("--seed-a", type=int, default=0)
    diff_cmd.add_argument("--seed-b", type=int, default=0)
    diff_cmd.add_argument(
        "--set-a", action="append", metavar="NODE:KEY=VALUE",
        help="perturb timeline A (repeatable)",
    )
    diff_cmd.add_argument(
        "--set-b", action="append", metavar="NODE:KEY=VALUE",
        help="perturb timeline B (repeatable)",
    )
    diff_cmd.add_argument(
        "--quick", action="store_true", help="shrink problem sizes"
    )
    diff_cmd.add_argument(
        "--json", action="store_true",
        help="emit the structured per-node report as JSON",
    )
    diff_cmd.set_defaults(handler=delta_diff_cmd)

    serve_parser = commands.add_parser(
        "serve",
        help="start the simulation service (async multi-client server)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=7411,
        help="TCP port (0 picks a free one; default: 7411)",
    )
    serve_parser.add_argument(
        "--demo-catalog", action="store_true",
        help="serve the built-in demo tables (person, visit)",
    )
    serve_parser.add_argument(
        "--csv", action="append", metavar="NAME=PATH",
        help="load a CSV file as shared table NAME (repeatable)",
    )
    serve_parser.add_argument(
        "--store", default=None,
        help="run-store directory for ensemble requests "
        "(default: no persistent store)",
    )
    serve_parser.add_argument("--max-in-flight", type=int, default=4)
    serve_parser.add_argument("--max-queue", type=int, default=32)
    serve_parser.add_argument(
        "--queue-timeout", type=float, default=None,
        help="shed queued requests after this many seconds",
    )
    serve_parser.add_argument(
        "--request-timeout", type=float, default=None,
        help="per-attempt execution timeout in seconds",
    )
    serve_parser.add_argument("--cache-entries", type=int, default=256)
    serve_parser.add_argument(
        "--backend", default=None,
        help="execution backend for mcdb/ensemble fan-out: serial or "
        "process (default: the REPRO_BACKEND environment variable, else "
        "serial)",
    )
    serve_parser.set_defaults(handler=serve_cmd)

    query_parser = commands.add_parser(
        "query", help="one-shot SQL query against a running serve instance"
    )
    query_parser.add_argument("statement", help="SQL statement to execute")
    query_parser.add_argument("--host", default="127.0.0.1")
    query_parser.add_argument("--port", type=int, default=7411)
    query_parser.add_argument(
        "--execution", default=None, choices=EXECUTIONS,
        help="executor for the statement: columnar (the default) or row, "
        "the reference; both answer byte for byte alike",
    )
    query_parser.add_argument(
        "--session-namespace", type=int, default=None,
        help="open a private session with this seed namespace first "
        "(needed for DDL/DML; the public scope is read-only)",
    )
    query_parser.add_argument("--timeout", type=float, default=60.0)
    query_parser.set_defaults(handler=query_cmd)

    args = parser.parse_args(argv)
    if args.command == "obs-report":
        from repro.obs.report import run_report

        run_report(
            out_dir=args.out_dir, backend=args.backend, quick=args.quick
        )
        return 0
    if args.command in ("ensemble", "delta", "serve", "query"):
        return args.handler(args)
    return tour()


if __name__ == "__main__":
    sys.exit(main())
