"""The repository benchmark: one command for every workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 15 --trace 0

``--workload`` is ``analytics``, ``whatif`` or ``serve`` (see
``perfbench/README.md`` for what each exercises and why).  Each workload
runs in a fresh Python process with every ``REPRO_*`` variable unset and
the checkout's ``src`` first on ``PYTHONPATH``.

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs it untraced and then traced (same seed,
same op sequence), reports the per-layer metrics and the tracing
overhead, and leaves a Chrome-trace span file under ``.perfbench-out/``.

Human-readable lines (every metric with its unit and sample count, the
provenance of the run and every output check) come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong answer makes the exit code 1.

Seeds: develop against seed 1; confirm a claimed gain on the held-out
seeds 1001 and 1002 as well.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import (  # noqa: E402
    OUT_DIR,
    clean_env,
    cpu_times,
    provenance,
    read_json,
    repro_env,
    steal_fraction,
    write_json,
)

WORKLOADS = ("analytics", "whatif", "serve")

#: The end-to-end metrics every workload reports with ``--trace 0``:
#: ``(name, unit, better, bound)``.  The op is a query (analytics), a
#: what-if cycle (whatif) or a fresh SQL request the server executed
#: (serve, sent one at a time); the rate is queries, what-if cycles or
#: probe requests per CPU-second of the process doing the work, and set-up
#: is timed the same way.  Every time is CPU time scaled to the reference
#: speed (``perfbench.common.Speed``): CPU time, not wall time, because on
#: a shared VM wall time follows the hypervisor's steal; scaled, because
#: even CPU time follows the neighbours.  README.md gives the measurements
#: behind that and behind the bounds.  The raw CPU and wall-clock figures
#: are printed beside them.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ref_cpu_p50_ms", "ms", "lower", 0.25),
    ("ref_cpu_p95_ms", "ms", "lower", 0.25),
    ("ref_ops_per_cpu_s", "1/s", "higher", 0.25),
)

#: The per-layer metrics every workload reports with ``--trace 1``; a
#: layer a workload never calls reads 0.
PER_LAYER = (
    ("engine.parse_ms", "ms"),
    ("engine.optimize_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.load_ms", "ms"),
    ("engine.rows_scanned", "count"),
    ("engine.join_pairs_examined", "count"),
    ("engine.rows_output", "count"),
    ("analytics.scan_agg_ms", "ms"),
    ("analytics.group_many_ms", "ms"),
    ("analytics.join_dim_ms", "ms"),
    ("analytics.join_copart_ms", "ms"),
    ("analytics.topk_ms", "ms"),
    ("analytics.mc_naive_ms", "ms"),
    ("analytics.mc_bundled_ms", "ms"),
    ("analytics.append_ms", "ms"),
    ("mcdb.world_ms", "ms"),
    ("mcdb.bundle_ms", "ms"),
    ("mcdb.worlds", "count"),
    ("exec.dispatch_ms", "ms"),
    ("exec.tasks", "count"),
    ("exec.task_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.puts", "count"),
    ("store.get_ms", "ms"),
    ("store.gets", "count"),
    ("store.contains_ms", "ms"),
    ("store.contains_calls", "count"),
    ("store.bytes_per_node", "B"),
    ("scheduler.keys_ms", "ms"),
    ("scheduler.self_ms", "ms"),
    ("delta.plan_ms", "ms"),
    ("delta.diff_ms", "ms"),
    ("delta.execute_ms", "ms"),
    ("delta.loads", "count"),
    ("delta.recompute_frac", "ratio"),
    ("delta.useful_frac", "ratio"),
    ("whatif.leaf_ms", "ms"),
    ("whatif.stage_ms", "ms"),
    ("serve.sql_exec_ms", "ms"),
    ("serve.mcdb_exec_ms", "ms"),
    ("serve.ensemble_exec_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.response_bytes", "B"),
    ("serve.cpu_ms_per_req", "ms"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.queue_peak", "count"),
    ("serve.rejected", "count"),
    ("serve.residual_ms", "ms"),
    ("serve.sql_unique_ms", "ms"),
    ("serve.sql_popular_ms", "ms"),
    ("serve.mcdb_ms", "ms"),
    ("serve.ensemble_ms", "ms"),
    ("bench.gen_late_ms", "ms"),
    ("bench.steal_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.span_coverage_min", "ratio"),
    ("bench.host_speed", "ratio"),
    # The wall-clock end-to-end metrics, from the untraced run.
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("sweep_nodes_per_s", "1/s"),
    ("reload_nodes_per_s", "1/s"),
    ("whatif_p50_ms", "ms"),
    ("whatif_p95_ms", "ms"),
    ("serve_p50_ms", "ms"),
    ("serve_p95_ms", "ms"),
    ("serve_max_rps", "1/s"),
    ("setup_wall_s", "s"),
    ("failed_frac", "ratio"),
)

#: Per-class latency medians come from the untraced run.
UNTRACED_LAYER = tuple(
    name
    for name, _ in PER_LAYER
    if name.startswith(("analytics.", "whatif."))
    or name == "bench.host_speed"
    or name in ("serve.sql_unique_ms", "serve.sql_popular_ms", "serve.mcdb_ms", "serve.ensemble_ms")
)
#: Wall-clock end-to-end metrics reported beside the per-layer ones.
WALL_CLOCK = tuple(name for name, _ in PER_LAYER[PER_LAYER.index(("queries_per_s", "1/s")):])

#: Each workload process must finish within this many seconds, so that
#: a traced run (two processes) stays within three minutes.
RUN_TIMEOUT_S = 85


def _worker(args, mode: str, out: str) -> dict:
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--out", out,
        "--scale", str(args.scale),
    ]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    env = clean_env(os.path.join(ROOT, "src"))
    # A session of its own, so a timeout also stops the serve workload's
    # server process.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{args.workload} ({mode}) ran over {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise SystemExit(f"{args.workload} ({mode}) exited with {code}")
    return read_json(out)


def _line(name: str, m: dict) -> str:
    return f"{name} = {m['value']:.6g} {m['unit']} (n={m['n']})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("run from the root of a checkout: src/repro is missing", file=sys.stderr)
        return 2

    repro_vars = repro_env()
    cpu_before = cpu_times()
    stem = os.path.join(ROOT, OUT_DIR, f"{args.workload}-seed{args.seed}")
    plain = _worker(args, "plain", f"{stem}-plain.json")
    traced = _worker(args, "traced", f"{stem}-traced.json") if args.trace else None
    steal = steal_fraction(cpu_before, cpu_times())
    info = provenance(args.seed, repro_vars)
    info["steal_frac"] = steal

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# provenance: " + json.dumps(info, sort_keys=True))
    checks = plain["checks"] + (traced["checks"] if traced else [])
    for check in checks:
        print(f"check {check['name']}: {'ok' if check['ok'] else 'WRONG'}")
    for name, m in sorted(plain["e2e"].items()):
        print(_line(name, m))
    gated = {}
    for name, unit, _, _ in END_TO_END:
        m = plain["generic"][name]
        if m["unit"] != unit:
            raise SystemExit(f"{name}: unit {m['unit']} is not {unit}")
        gated[name] = m
        print(_line(name, m))

    if args.trace:
        layers = dict(traced["layers"])
        layers.update({k: v for k, v in plain["layers"].items() if k in UNTRACED_LAYER})
        layers.update({k: v for k, v in plain["e2e"].items() if k in WALL_CLOCK})
        overhead = traced["timed_cpu_s"] / plain["timed_cpu_s"] - 1.0
        layers["bench.trace_overhead_frac"] = {"value": overhead, "unit": "ratio", "n": 2}
        layers["bench.steal_frac"] = {"value": steal, "unit": "ratio", "n": 1}
        metrics = {}
        for name, unit in PER_LAYER:
            m = layers.get(name, {"value": 0.0, "unit": unit, "n": 0})
            if m["unit"] != unit:
                raise SystemExit(f"{name}: unit {m['unit']} is not {unit}")
            metrics[name] = m
            print(_line(name, m))
        print(f"# spans: {traced['span_file']}")
    else:
        metrics = gated

    correct = all(check["ok"] for check in checks)
    summary = {
        "correct": correct,
        "attempted": int(plain["attempted"]),
        "failed": int(plain["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    write_json(
        f"{stem}-trace{args.trace}.json",
        {"provenance": info, "summary": summary, "plain": plain, "traced": traced},
    )
    print(json.dumps(summary, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
