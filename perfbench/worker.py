"""One workload run in a fresh process (started by ``perfbench/run.py``).

Usage (from the checkout root)::

    PYTHONPATH=src python3 -m perfbench.worker --workload analytics \
        --seed 1 --seconds 12 --mode plain --out .perfbench-out/a.json

``--mode traced`` records spans around every layer call and writes them
as a Chrome trace next to ``--out``.  The result JSON holds the checks,
the end-to-end metrics under their workload names, the per-layer
metrics and the timed-phase wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from perfbench.common import NoSpans, Spans, cpu_times, steal_fraction, write_json

WORKLOADS = ("analytics", "whatif", "serve")


def _load(workload: str):
    if workload == "analytics":
        from perfbench import analytics as module
    elif workload == "whatif":
        from perfbench import whatif as module
    else:
        from perfbench import serveload as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), default="plain")
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink inputs (tests)")
    parser.add_argument("--corrupt", default=None, help="corrupt one answer (tests)")
    args = parser.parse_args(argv)

    import repro

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    spans = Spans() if args.mode == "traced" else NoSpans()
    module = _load(args.workload)
    cpu_before = cpu_times()
    started = time.perf_counter()
    try:
        result = module.run(
            args.seed, args.seconds, spans, scale=args.scale, corrupt=args.corrupt
        )
    except Exception:  # noqa: BLE001 - reported, then the run fails
        traceback.print_exc()
        return 1
    result["steal_frac"] = steal_fraction(cpu_before, cpu_times())
    result["process_s"] = time.perf_counter() - started
    if spans.enabled:
        trace_path = os.path.splitext(args.out)[0] + ".trace.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(spans.chrome_trace(), handle)
        result["span_file"] = trace_path
    write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
