"""Store-side timeline diff: compare two branches without re-running.

Two alternate timelines built off a shared prefix (the DataStorm-EM
branching pattern, :meth:`~repro.ensemble.spec.Ensemble.branch`)
already *are* comparable at rest: every node's run key pins its whole
upstream history, and the :class:`~repro.ensemble.store.RunStore`
holds each timeline's results under those keys.  :func:`diff_timelines`
exploits this — it derives both branches' keys, matches nodes by name,
and reads only the store:

* identical keys ⇒ ``same`` *by construction* (a content address pins
  callable + params + seed + the full upstream fold), zero bytes read;
* differing keys ⇒ ``changed``: both stored results are loaded,
  fingerprinted, and walked structurally for **array-aware value
  deltas** — scalar leaves report ``a → b``, numpy-array leaves report
  shape/dtype moves, the count of differing elements, and the max
  absolute difference, rather than dumping whole arrays;
* nodes present in only one ensemble report ``only_in_a``/``only_in_b``.

Nothing is ever executed: a branch whose results were never computed
(or were evicted) reports ``unstored`` for the affected nodes, which is
a *finding*, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ensemble.scheduler import compute_run_keys
from repro.ensemble.spec import Ensemble
from repro.ensemble.store import RunStore, result_fingerprint
from repro.obs import get_observer

#: Node diff statuses, in severity order for rendering.
STATUSES = ("changed", "unstored", "only_in_a", "only_in_b", "same")


@dataclass(frozen=True)
class LeafDelta:
    """One differing leaf between two stored results."""

    path: str
    kind: str  # "value" | "array" | "shape" | "type" | "missing"
    a: Any = None
    b: Any = None
    differing: Optional[int] = None  # array elements that differ
    max_abs_delta: Optional[float] = None  # numeric arrays only

    def render(self) -> str:
        if self.kind == "array":
            extra = f"{self.differing} element(s) differ"
            if self.max_abs_delta is not None:
                extra += f", max |Δ| = {self.max_abs_delta:.6g}"
            return f"{self.path}: array {self.a} -> {self.b} ({extra})"
        if self.kind == "shape":
            return f"{self.path}: array shape/dtype {self.a} -> {self.b}"
        if self.kind == "missing":
            return f"{self.path}: present only in {self.a}"
        if self.kind == "type":
            return f"{self.path}: type {self.a} -> {self.b}"
        return f"{self.path}: {self.a!r} -> {self.b!r}"


@dataclass(frozen=True)
class NodeDiff:
    """Per-node comparison of two timelines."""

    name: str
    status: str  # member of STATUSES
    key_a: Optional[str] = None
    key_b: Optional[str] = None
    fingerprint_a: Optional[str] = None
    fingerprint_b: Optional[str] = None
    deltas: Tuple[LeafDelta, ...] = ()
    truncated: int = 0  # leaf deltas beyond the cap

    def render(self) -> str:
        short = lambda key: key[:12] if key else "-"  # noqa: E731
        line = (
            f"{self.status:<10} {self.name}  "
            f"[{short(self.key_a)} | {short(self.key_b)}]"
        )
        parts = [line]
        parts.extend(f"    {delta.render()}" for delta in self.deltas)
        if self.truncated:
            parts.append(f"    ... ({self.truncated} more leaf delta(s))")
        return "\n".join(parts)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "key_a": self.key_a,
            "key_b": self.key_b,
            "fingerprint_a": self.fingerprint_a,
            "fingerprint_b": self.fingerprint_b,
            "deltas": [
                {
                    "path": d.path,
                    "kind": d.kind,
                    "a": _jsonable(d.a),
                    "b": _jsonable(d.b),
                    "differing": d.differing,
                    "max_abs_delta": d.max_abs_delta,
                }
                for d in self.deltas
            ],
            "truncated": self.truncated,
        }


@dataclass
class TimelineDiff:
    """The full structured report of :func:`diff_timelines`."""

    name_a: str
    name_b: str
    nodes: List[NodeDiff] = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for node in self.nodes if node.status == status)

    @property
    def identical(self) -> bool:
        """Whether the two timelines are the same stored computation."""
        return all(node.status == "same" for node in self.nodes)

    def summary(self) -> Dict[str, int]:
        return {
            status: self.count(status)
            for status in STATUSES
            if self.count(status)
        }

    def render(self) -> str:
        lines = [
            f"timeline diff {self.name_a!r} vs {self.name_b!r}: "
            f"{len(self.nodes)} node(s) — "
            + (", ".join(f"{v} {k}" for k, v in self.summary().items())
               or "empty")
        ]
        for node in self.nodes:
            if node.status != "same":
                lines.append(node.render())
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "a": self.name_a,
            "b": self.name_b,
            "summary": self.summary(),
            "identical": self.identical,
            "nodes": [node.as_dict() for node in self.nodes],
        }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (np.generic,)):
        return value.item()
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return value


def _scalar_repr(value: Any) -> Any:
    """A compact leaf representation (arrays summarized, not dumped)."""
    if isinstance(value, np.ndarray):
        return f"ndarray{value.shape}:{value.dtype}"
    if isinstance(value, np.generic):
        return value.item()
    return value


# -- structural value deltas -------------------------------------------------

def value_deltas(
    a: Any, b: Any, path: str = "$", limit: int = 64
) -> List[LeafDelta]:
    """Array-aware structural diff of two decoded result trees."""
    out: List[LeafDelta] = []
    _walk(a, b, path, out, limit + 1)
    return out


def _walk(a: Any, b: Any, path: str, out: List[LeafDelta], cap: int) -> None:
    if len(out) >= cap:
        return
    a_is_array = isinstance(a, np.ndarray)
    b_is_array = isinstance(b, np.ndarray)
    if a_is_array or b_is_array:
        if not (a_is_array and b_is_array):
            out.append(
                LeafDelta(path, "type", _type_name(a), _type_name(b))
            )
            return
        _diff_arrays(a, b, path, out)
        return
    if isinstance(a, dict) or isinstance(b, dict):
        if not (isinstance(a, dict) and isinstance(b, dict)):
            out.append(LeafDelta(path, "type", _type_name(a), _type_name(b)))
            return
        for key in sorted(set(a) | set(b)):
            child = f"{path}.{key}"
            if key not in a:
                out.append(LeafDelta(child, "missing", "b", None))
            elif key not in b:
                out.append(LeafDelta(child, "missing", "a", None))
            else:
                _walk(a[key], b[key], child, out, cap)
            if len(out) >= cap:
                return
        return
    if isinstance(a, list) or isinstance(b, list):
        if not (isinstance(a, list) and isinstance(b, list)):
            out.append(LeafDelta(path, "type", _type_name(a), _type_name(b)))
            return
        if len(a) != len(b):
            out.append(
                LeafDelta(path, "value", f"len {len(a)}", f"len {len(b)}")
            )
        for i, (item_a, item_b) in enumerate(zip(a, b)):
            _walk(item_a, item_b, f"{path}[{i}]", out, cap)
            if len(out) >= cap:
                return
        return
    if a is not b and a != b and not (_is_nan(a) and _is_nan(b)):
        out.append(LeafDelta(path, "value", _scalar_repr(a), _scalar_repr(b)))


def _is_nan(value: Any) -> bool:
    """NaN leaves compare equal here, as NaNs in arrays already do."""
    return isinstance(value, (float, np.floating)) and value != value


def _type_name(value: Any) -> str:
    return "ndarray" if isinstance(value, np.ndarray) else type(value).__name__


def _diff_arrays(
    a: np.ndarray, b: np.ndarray, path: str, out: List[LeafDelta]
) -> None:
    shape_a = f"{a.shape}:{a.dtype}"
    shape_b = f"{b.shape}:{b.dtype}"
    if a.shape != b.shape or a.dtype != b.dtype:
        out.append(LeafDelta(path, "shape", shape_a, shape_b))
        return
    contig_a = np.ascontiguousarray(a)
    contig_b = np.ascontiguousarray(b)
    if contig_a.tobytes() == contig_b.tobytes():
        return  # byte-identical (NaNs included) — no delta
    if a.dtype.kind in "fiub":
        with np.errstate(all="ignore"):
            equal = contig_a == contig_b
            if a.dtype.kind == "f":
                equal |= np.isnan(contig_a) & np.isnan(contig_b)
            differing = int(np.size(equal) - np.count_nonzero(equal))
            max_abs: Optional[float] = None
            if differing:
                diff = np.abs(
                    contig_a.astype(float) - contig_b.astype(float)
                )
                finite = diff[np.isfinite(diff)]
                if finite.size:
                    max_abs = float(finite.max())
        out.append(
            LeafDelta(
                path, "array", shape_a, shape_b,
                differing=differing, max_abs_delta=max_abs,
            )
        )
        return
    differing = int(np.count_nonzero(contig_a != contig_b))
    out.append(
        LeafDelta(path, "array", shape_a, shape_b, differing=differing)
    )


# -- the diff operator -------------------------------------------------------

def _load_stored(store: RunStore, key: str) -> Optional[Dict[str, Any]]:
    """Load one stored result, treating racing eviction as a miss.

    ``store.get`` returns ``None`` for an absent entry, but a ``gc``
    running concurrently can evict *between* the metadata read and the
    array load — surfacing as ``FileNotFoundError``/``KeyError`` from
    the half-deleted entry.  An evicted entry is the documented
    ``unstored`` finding, not an error, so both outcomes collapse to
    ``None`` here and the diff proceeds node by node.
    """
    try:
        return store.get(key)
    except (KeyError, OSError):
        return None


def diff_timelines(
    store: RunStore,
    ensemble_a: Ensemble,
    ensemble_b: Ensemble,
    max_leaves: int = 64,
) -> TimelineDiff:
    """Compare two ensemble branches store-side; never executes a node.

    Nodes are matched by name.  Node order in the report is ensemble
    ``a``'s topological order followed by ``b``-only nodes in ``b``'s
    topological order, so the report itself is deterministic.
    ``max_leaves`` caps the leaf deltas recorded per changed node (the
    overflow count is kept).
    """
    observer = get_observer()
    with observer.span(
        "delta.diff",
        a=ensemble_a.name,
        b=ensemble_b.name,
        nodes=len(ensemble_a) + len(ensemble_b),
    ):
        keys_a = compute_run_keys(ensemble_a)
        keys_b = compute_run_keys(ensemble_b)
        report = TimelineDiff(ensemble_a.name, ensemble_b.name)
        ordered = [node.name for node in ensemble_a.topological_order()]
        ordered.extend(
            node.name
            for node in ensemble_b.topological_order()
            if node.name not in keys_a
        )
        for name in ordered:
            key_a = keys_a.get(name)
            key_b = keys_b.get(name)
            if key_b is None:
                report.nodes.append(
                    NodeDiff(name, "only_in_a", key_a=key_a)
                )
                continue
            if key_a is None:
                report.nodes.append(
                    NodeDiff(name, "only_in_b", key_b=key_b)
                )
                continue
            if key_a == key_b:
                # Content addresses pin callable + params + seed + the
                # whole upstream fold; equal keys mean equal runs.
                report.nodes.append(
                    NodeDiff(name, "same", key_a=key_a, key_b=key_b)
                )
                continue
            result_a = _load_stored(store, key_a)
            result_b = _load_stored(store, key_b)
            if result_a is None or result_b is None:
                report.nodes.append(
                    NodeDiff(
                        name, "unstored", key_a=key_a, key_b=key_b,
                        fingerprint_a=(
                            result_fingerprint(result_a)
                            if result_a is not None else None
                        ),
                        fingerprint_b=(
                            result_fingerprint(result_b)
                            if result_b is not None else None
                        ),
                    )
                )
                continue
            deltas = value_deltas(
                result_a, result_b, limit=max_leaves
            )
            truncated = max(0, len(deltas) - max_leaves)
            report.nodes.append(
                NodeDiff(
                    name,
                    "changed",
                    key_a=key_a,
                    key_b=key_b,
                    fingerprint_a=result_fingerprint(result_a),
                    fingerprint_b=result_fingerprint(result_b),
                    deltas=tuple(deltas[:max_leaves]),
                    truncated=truncated,
                )
            )
        changed = report.count("changed")
        if changed:
            observer.counter("delta.diff.changed").add(changed)
    return report


__all__ = [
    "LeafDelta",
    "NodeDiff",
    "STATUSES",
    "TimelineDiff",
    "diff_timelines",
    "value_deltas",
]
