"""Shared pieces of the benchmark: spans, statistics, host facts.

Nothing here imports ``repro``; the workload modules do, after
:mod:`perfbench.worker` has put the checkout's ``src`` first on the path.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Where runs leave results, span files and temporary stores (relative to
#: the checkout root, which is the working directory of every run).
OUT_DIR = ".perfbench-out"


# -- spans ---------------------------------------------------------------------

class Spans:
    """In-memory span recorder for the traced mode.

    A span is ``[name, start, end, parent index, op id]``.  Spans nest by
    a stack, so a span's parent is the span open when it started; every
    span opened while an op is current carries that op's id.  Nothing is
    written until :meth:`chrome_trace` is called at exit.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id: int, name: str):
        """The root span of one timed op; children inherit ``op_id``."""
        self.op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self.op = None

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [rec[2] - rec[1] for rec in self.records]
        for rec in self.records:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Self seconds, total seconds and call count per span name."""
        totals: Dict[str, Dict[str, float]] = {}
        for rec, own in zip(self.records, self.self_times()):
            entry = totals.setdefault(rec[0], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            entry["self_s"] += own
            entry["total_s"] += rec[2] - rec[1]
            entry["calls"] += 1
        return totals

    def child_count(self, name: str, parent_name: str) -> int:
        """How many ``name`` spans ran directly inside a ``parent_name`` span."""
        return sum(
            1
            for rec in self.records
            if rec[0] == name and rec[3] >= 0 and self.records[rec[3]][0] == parent_name
        )

    def op_coverage(self) -> List[float]:
        """Per op root span: share of its time covered by layer spans."""
        shares = []
        own = self.self_times()
        for i, rec in enumerate(self.records):
            if rec[0].startswith("op.") and rec[3] < 0:
                duration = rec[2] - rec[1]
                shares.append(1.0 - own[i] / duration if duration > 0 else 1.0)
        return shares

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as a Chrome trace (``chrome://tracing`` / Perfetto)."""
        origin = self.records[0][1] if self.records else 0.0
        events = []
        for i, (name, start, end, parent, op) in enumerate(self.records):
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": {"id": i, "parent": parent, "op": op},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class NoSpans:
    """The untraced mode: every span is a no-op."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def op_span(self, op_id: int, name: str):
        return contextlib.nullcontext()


# -- statistics ------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def metric(value: float, unit: str, n: int) -> Dict[str, Any]:
    """One reported number with its unit and sample count."""
    return {"value": float(value), "unit": unit, "n": int(n)}


def latency_metrics(prefix: str, seconds: Sequence[float]) -> Dict[str, Dict[str, Any]]:
    """``<prefix>_p50_ms`` and ``<prefix>_p95_ms`` from per-op seconds."""
    ms = [s * 1e3 for s in seconds]
    return {
        f"{prefix}_p50_ms": metric(percentile(ms, 50), "ms", len(ms)),
        f"{prefix}_p95_ms": metric(percentile(ms, 95), "ms", len(ms)),
    }


def gated_metrics(
    setup_s: Sequence[float], rss_mb: float, op_s: Sequence[float], rate: Tuple[float, int]
) -> Dict[str, Dict[str, Any]]:
    """The gated end-to-end metrics from CPU times at the reference speed:
    set-up (median), peak RSS, op p50/p95 and ``rate`` = (ops per
    CPU-second, sample count)."""
    ms = [s * 1e3 for s in op_s]
    return {
        "setup_s": metric(percentile(setup_s, 50), "s", len(setup_s)),
        "peak_rss_mb": metric(rss_mb, "MB", 1),
        "ref_cpu_p50_ms": metric(percentile(ms, 50), "ms", len(ms)),
        "ref_cpu_p95_ms": metric(percentile(ms, 95), "ms", len(ms)),
        "ref_ops_per_cpu_s": metric(rate[0], "1/s", rate[1]),
    }


# -- host facts --------------------------------------------------------------------

def cpu_times() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = handle.readline().split()
    return [int(value) for value in fields[1:]]


def steal_fraction(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time stolen by the hypervisor between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already counted in user
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process (this one by default) in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def user_cpu_s() -> float:
    """User-mode CPU seconds of this process (``getrusage``, microseconds).

    The closed loops time ops with it: kernel time of file operations on
    a VM's disk varied twentyfold between runs for identical work, so it
    is left out (store IO still shows in wall time and per-layer times).
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def process_cpu_ns(pid: int) -> int:
    """CPU nanoseconds of every thread of ``pid`` (``schedstat``, ns resolution)."""
    total = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/schedstat", "r", encoding="ascii") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:
            continue  # the thread exited between listing and reading
    return total


# -- host speed ----------------------------------------------------------------------

_REF_RNG = np.random.default_rng(20240917)
_REF_X = _REF_RNG.random(12_000)
_REF_KEYS = (_REF_X * 1_000).astype(np.int64)
_REF_WORDS = [f"k{i:05d}" for i in range(2_000)]
_REF_SOURCE = '''
def f(a, b, *args, **kw):
    total = 0
    for i, x in enumerate(args):
        if x > a and i % 3 != 1:
            total += x * b - kw.get("c", 0)
        elif x < 0:
            total -= abs(x) // 2
        else:
            try:
                total += {"p": 1, "q": 2}[str(x)[:1]]
            except KeyError:
                total ^= i
    return [y for y in range(total % 17) if y % 2] + sorted(kw)
class C(object):
    def __init__(self, v): self.v = v
    def m(self, o): return C(self.v + o.v) if isinstance(o, C) else NotImplemented
''' * 2
_REF_NESTED = {
    "a": [{"k": i, "v": [i, str(i), (i, i + 1)], "d": {"x": float(i)}} for i in range(40)],
    "b": ("t", 1, 2.5),
}


class _NodeCounter(ast.NodeVisitor):
    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def generic_visit(self, node) -> None:
        name = type(node).__name__
        self.counts[name] = self.counts.get(name, 0) + 1
        super().generic_visit(node)


def reference_kernel() -> int:
    """A fixed piece of work that never calls the program (about 6 ms).

    It mixes what the workloads spend their time on: interpreter work on
    dicts, tuples and strings, sorting, JSON and hashing; parsing and
    walking a syntax tree and deep-copying nested containers (many small
    Python calls); and, for about two fifths of its time, NumPy sorting,
    grouping, masking and searching.  Interpreter-bound code slows down
    more than array code when the host is busy; a kernel of either kind
    alone tracked one kind of op and missed the other.
    """
    table = {}
    for i, word in enumerate(_REF_WORDS):
        table[word] = (i * 7919) % 1013
    rows = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    text = json.dumps([{"k": k, "v": v} for k, v in rows[:300]], sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    counter = _NodeCounter()
    counter.visit(ast.parse(_REF_SOURCE))
    nested = copy.deepcopy(_REF_NESTED)
    order = np.argsort(_REF_X, kind="stable")
    uniq, inverse = np.unique(_REF_KEYS, return_inverse=True)
    sums = np.bincount(inverse, weights=_REF_X)
    totals = np.zeros(len(uniq))
    np.add.at(totals, inverse, _REF_X)
    ranks = np.searchsorted(_REF_X[order], _REF_X[_REF_X > 0.5])
    sizes = (len(digest), len(counter.counts), len(nested["a"]), len(sums), len(ranks))
    return sum(sizes) + int(order[0]) + int(totals.argmax())


#: CPU milliseconds of one :func:`reference_kernel` call at the reference
#: speed: about its median on the 2.0 GHz Xeon vCPUs the benchmark was
#: defined on, in their faster periods.
REFERENCE_MS = 6.0


class Speed:
    """How fast the host runs :func:`reference_kernel`, sampled through a run.

    On a shared VM the CPU time of identical work drifts with the
    neighbours: between runs minutes apart the same query took 1.2 to 1.8
    times as long.  Sampling the kernel between the ops and scaling each
    op's CPU time by ``REFERENCE_MS`` over the kernel's median nearby
    gives the op's CPU time at the reference speed, which is what the
    gated metrics report.
    """

    #: Kernel samples the median around one instant is taken over.
    WINDOW = 25

    def __init__(self) -> None:
        self.at: List[float] = []
        self.ms: List[float] = []

    def sample(self, n: int = 1) -> None:
        # With the collector off, the kernel never pays for a collection of
        # the program's objects, so its time does not depend on their number.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                started = time.thread_time()
                reference_kernel()
                self.ms.append((time.thread_time() - started) * 1e3)
                self.at.append(time.perf_counter())
        finally:
            if enabled:
                # Collect what the kernel allocated now, not in the next op.
                gc.collect(0)
                gc.enable()

    def scale(self, at: Optional[float] = None) -> float:
        """``REFERENCE_MS`` over the kernel's median CPU ms: over the
        ``WINDOW`` samples nearest to ``at`` (a ``perf_counter`` instant),
        or over the whole run."""
        if at is None:
            ms = self.ms
        else:
            nearest = np.argsort(np.abs(np.asarray(self.at) - at), kind="stable")
            ms = [self.ms[i] for i in nearest[: self.WINDOW]]
        return REFERENCE_MS / float(np.median(ms))

    def metric(self) -> Dict[str, Any]:
        """``bench.host_speed``: the run's speed relative to the reference."""
        return metric(self.scale(), "ratio", len(self.ms))


def repro_env() -> Dict[str, str]:
    """Every ``REPRO_*`` variable, found by prefix (not from a fixed list)."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def clean_env(src_dir: str) -> Dict[str, str]:
    """The environment a workload process runs in: no ``REPRO_*``, ``src`` first."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src_dir
    env["PYTHONHASHSEED"] = "0"
    return env


def commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    # Never search above the working directory for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
            env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int, repro_vars: Dict[str, str]) -> Dict[str, Any]:
    """Seed, code and host facts recorded beside every result."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "seed": seed,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "repro_env": repro_vars,
    }


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
