"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (figure, algorithm, or
analytical claim), prints the paper-style rows, and persists them under
``benchmarks/results/`` so EXPERIMENTS.md can cite measured numbers —
as text reports (:func:`save_report`) and, for machine consumers such as
perf-trajectory tooling, as JSON (:func:`save_json`).

Benchmarks take a :class:`BenchConfig` knob: ``quick`` shrinks problem
sizes so CI can exercise the harness in seconds (the ``--quick`` pytest
flag, see ``benchmarks/conftest.py``).  Parallelized hot paths run on
the library-wide :mod:`repro.parallel` backend, ``REPRO_BACKEND``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Sequence, Tuple

from repro.obs import get_observer

RESULTS_DIR = Path(__file__).parent / "results"


@dataclass(frozen=True)
class BenchConfig:
    """Execution knobs shared by every benchmark script."""

    quick: bool = False


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """Run ``fn(*args, **kwargs)`` and return ``(result, wall seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def host_info() -> Dict[str, Any]:
    """Host metadata persisted with measured timings.

    Wall-clock numbers are meaningless without the CPU budget they were
    measured under — a process-backend "speedup" of 1.0x on a one-core
    container is expected, not a regression.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def git_commit(repo: Path = Path(__file__).parent) -> str:
    """The commit of the checkout holding ``repo``, or ``"unknown"``.

    Recorded in every JSON artifact so perf-trajectory tooling can pin a
    measurement to the code that produced it, even after the results
    directory outlives the checkout.  When a tracked or unignored file
    differs from that commit the hash gets a ``-dirty`` suffix: the
    commit did not produce the measurement on its own.  Files under
    ``benchmarks/results/`` do not count, so one :func:`save_json` does
    not mark the next.
    """

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args],
            cwd=repo,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )

    try:
        head = git("rev-parse", "HEAD")
        status = git(
            "status",
            "--porcelain",
            "--untracked-files=all",
            "--",
            ":(top)",
            ":(top,exclude)benchmarks/results",
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = head.stdout.strip()
    if head.returncode != 0 or not commit or status.returncode != 0:
        return "unknown"
    return f"{commit}-dirty" if status.stdout.strip() else commit


def env_knobs() -> Dict[str, Any]:
    """Every ``REPRO_*`` environment variable set for this process.

    The knobs (backend, faults, engine execution, …)
    silently reshape what a benchmark measures; recording them —
    alongside ``usable_cpus`` in the host header — makes two results
    files comparable at a glance.  They are found by prefix, not from a
    fixed list, so a knob added later is recorded too.
    """
    return {
        name: value
        for name, value in sorted(os.environ.items())
        if name.startswith("REPRO_")
    }


def save_report(experiment_id: str, text: str) -> None:
    """Print a report and persist it to ``benchmarks/results/<id>.txt``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"==== {experiment_id} ====\n"
    print("\n" + banner + text)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(banner + text + "\n")


def save_json(experiment_id: str, payload: Dict[str, Any]) -> Path:
    """Persist machine-readable rows to ``benchmarks/results/<id>.json``.

    The payload is wrapped with a provenance header — experiment id,
    host metadata, the producing git commit, and the active
    ``REPRO_*`` environment knobs — so a results
    file is self-describing; returns the written path.  When the
    :mod:`repro.obs` subsystem is live (``REPRO_OBS=1``), the current
    metrics snapshot rides along under ``obs_metrics``, so a recorded
    benchmark carries the telemetry that explains its numbers.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.json"
    document = {
        "experiment": experiment_id,
        "host": host_info(),
        "git_commit": git_commit(),
        "env": env_knobs(),
        **payload,
    }
    observer = get_observer()
    if observer.enabled:
        document.setdefault("obs_metrics", observer.metrics.snapshot())
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render a fixed-width text table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max([len(h)] + [len(r[i]) for r in rows]) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        magnitude = abs(cell)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{cell:.3e}"
        return f"{cell:.4f}".rstrip("0").rstrip(".")
    return str(cell)
