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
* differing keys ⇒ ``changed``, compared by the fingerprints of both
  stored results (one :meth:`~repro.ensemble.store.RunStore.fingerprints`
  call for every such node, answered from the store instance's memory
  of what it wrote, else by decoding).  Equal fingerprints mean equal
  results, so no delta, and nothing more is read.  Only when they
  differ are both stored results loaded and walked structurally for
  **array-aware value deltas** — scalar leaves
  report ``a → b``, numpy-array leaves report shape/dtype moves, the
  count of differing elements, and the max absolute difference, rather
  than dumping whole arrays;
* nodes present in only one ensemble report ``only_in_a``/``only_in_b``.

Nothing is ever executed: a branch whose results were never computed
(or were evicted) reports ``unstored`` for the affected nodes, which is
a *finding*, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne, not_
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.ensemble.scheduler import run_keys
from repro.ensemble.spec import Ensemble
from repro.ensemble.store import RunStore
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


class TimelineDiff:
    """The full structured report of :func:`diff_timelines`.

    Only the nodes whose keys differ are held as :class:`NodeDiff`
    objects; every other node of ``a`` is ``same``, and :attr:`nodes`
    builds those entries on first read.
    """

    def __init__(
        self,
        name_a: str,
        name_b: str,
        keys_a: Mapping[str, str],
        differing: List[NodeDiff],
        only_in_b: List[NodeDiff],
    ) -> None:
        self.name_a = name_a
        self.name_b = name_b
        self._keys_a = keys_a
        #: Nodes of ``a`` whose keys differ, in ``a``'s topological order.
        self._differing = {node.name: node for node in differing}
        self._only_in_b = only_in_b
        self._nodes: Optional[List[NodeDiff]] = None

    @property
    def nodes(self) -> List[NodeDiff]:
        """Every node: ``a``'s topological order, then ``b``-only nodes
        in ``b``'s (built on first read, then kept)."""
        if self._nodes is None:
            differing = self._differing
            self._nodes = [
                differing.get(name)
                or NodeDiff(name, "same", key_a=key, key_b=key)
                for name, key in self._keys_a.items()
            ]
            self._nodes.extend(self._only_in_b)
        return self._nodes

    def _listed(self) -> List[NodeDiff]:
        """The nodes that are not ``same``, in report order."""
        return [*self._differing.values(), *self._only_in_b]

    def count(self, status: str) -> int:
        if status == "same":
            return len(self._keys_a) - len(self._differing)
        return sum(1 for node in self._listed() if node.status == status)

    @property
    def identical(self) -> bool:
        """Whether the two timelines are the same stored computation."""
        return not self._differing and not self._only_in_b

    def summary(self) -> Dict[str, int]:
        return {
            status: self.count(status)
            for status in STATUSES
            if self.count(status)
        }

    def render(self) -> str:
        total = len(self._keys_a) + len(self._only_in_b)
        lines = [
            f"timeline diff {self.name_a!r} vs {self.name_b!r}: "
            f"{total} node(s) — "
            + (", ".join(f"{v} {k}" for k, v in self.summary().items())
               or "empty")
        ]
        lines.extend(node.render() for node in self._listed())
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
    """Array-aware structural diff of two decoded result trees.

    Returns at most ``limit + 1`` deltas: one past the cap says that
    more exist.
    """
    return _leaf_deltas(a, b, path, limit + 1)[0]


def _leaf_deltas(
    a: Any, b: Any, path: str, cap: int
) -> Tuple[List[LeafDelta], int]:
    """The first ``cap`` leaf deltas and the count of those past it."""
    sink = _Deltas(cap)
    _walk(a, b, path, sink)
    return sink.kept, sink.dropped


class _Deltas:
    """Keeps the first ``cap`` leaf deltas and counts the rest."""

    __slots__ = ("kept", "cap", "dropped")

    def __init__(self, cap: int) -> None:
        self.kept: List[LeafDelta] = []
        self.cap = cap
        self.dropped = 0

    @property
    def full(self) -> bool:
        return len(self.kept) >= self.cap

    def add(self, delta: LeafDelta) -> None:
        if self.full:
            self.dropped += 1
        else:
            self.kept.append(delta)


def _walk(a: Any, b: Any, path: str, out: _Deltas) -> None:
    a_is_array = isinstance(a, np.ndarray)
    b_is_array = isinstance(b, np.ndarray)
    if a_is_array or b_is_array:
        if not (a_is_array and b_is_array):
            out.add(LeafDelta(path, "type", _type_name(a), _type_name(b)))
            return
        _diff_arrays(a, b, path, out)
        return
    if isinstance(a, dict) or isinstance(b, dict):
        if not (isinstance(a, dict) and isinstance(b, dict)):
            out.add(LeafDelta(path, "type", _type_name(a), _type_name(b)))
            return
        for key in sorted(set(a) | set(b)):
            child = f"{path}.{key}"
            if key not in a:
                out.add(LeafDelta(child, "missing", "b", None))
            elif key not in b:
                out.add(LeafDelta(child, "missing", "a", None))
            else:
                _walk(a[key], b[key], child, out)
        return
    if isinstance(a, list) or isinstance(b, list):
        if not (isinstance(a, list) and isinstance(b, list)):
            out.add(LeafDelta(path, "type", _type_name(a), _type_name(b)))
            return
        if len(a) != len(b):
            out.add(LeafDelta(path, "value", f"len {len(a)}", f"len {len(b)}"))
        for i, (item_a, item_b) in enumerate(zip(a, b)):
            _walk(item_a, item_b, f"{path}[{i}]", out)
        return
    if a is not b and a != b and not (_is_nan(a) and _is_nan(b)):
        out.add(LeafDelta(path, "value", _scalar_repr(a), _scalar_repr(b)))


def _is_nan(value: Any) -> bool:
    """NaN leaves compare equal here, as NaNs in arrays already do."""
    return isinstance(value, (float, np.floating)) and value != value


def _type_name(value: Any) -> str:
    return "ndarray" if isinstance(value, np.ndarray) else type(value).__name__


def _diff_arrays(
    a: np.ndarray, b: np.ndarray, path: str, out: _Deltas
) -> None:
    shape_a = f"{a.shape}:{a.dtype}"
    shape_b = f"{b.shape}:{b.dtype}"
    if a.shape != b.shape or a.dtype != b.dtype:
        out.add(LeafDelta(path, "shape", shape_a, shape_b))
        return
    contig_a = np.ascontiguousarray(a)
    contig_b = np.ascontiguousarray(b)
    if contig_a.tobytes() == contig_b.tobytes():
        return  # byte-identical (NaNs included) — no delta
    if out.full:
        out.dropped += 1  # counted, so no need to measure it
        return
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
        out.add(
            LeafDelta(
                path, "array", shape_a, shape_b,
                differing=differing, max_abs_delta=max_abs,
            )
        )
        return
    differing = int(np.count_nonzero(contig_a != contig_b))
    out.add(
        LeafDelta(path, "array", shape_a, shape_b, differing=differing)
    )


# -- the diff operator -------------------------------------------------------

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
    overflow count is kept).  The two key maps are compared in C; only
    the nodes whose keys differ are visited in Python, and of those only
    the ones whose fingerprints differ have their two results loaded
    and walked.  A fingerprint the store instance does not remember
    costs one decode of that entry.
    """
    observer = get_observer()
    with observer.span(
        "delta.diff",
        a=ensemble_a.name,
        b=ensemble_b.name,
        nodes=len(ensemble_a) + len(ensemble_b),
    ):
        keys_a = run_keys(ensemble_a)
        keys_b = run_keys(ensemble_b)
        moved = list(
            compress(keys_a, map(ne, keys_a.values(), map(keys_b.get, keys_a)))
        )
        both = [name for name in moved if name in keys_b]
        # One call, one generation read, for both sides of every node.
        prints = iter(
            store.fingerprints(
                [key for name in both for key in (keys_a[name], keys_b[name])]
            )
        )
        differing = [
            _diff_node(
                store, name, keys_a[name], keys_b[name],
                next(prints), next(prints), max_leaves,
            )
            if name in keys_b
            else NodeDiff(name, "only_in_a", key_a=keys_a[name])
            for name in moved
        ]
        only_in_b = []
        # ``b`` has names ``a`` lacks iff it outnumbers ``a``'s names in it.
        if len(keys_b) > len(keys_a) - len(moved) + len(both):
            only_in_b = [
                NodeDiff(name, "only_in_b", key_b=keys_b[name])
                for name in compress(
                    keys_b, map(not_, map(keys_a.__contains__, keys_b))
                )
            ]
        report = TimelineDiff(
            ensemble_a.name,
            ensemble_b.name,
            MappingProxyType(keys_a),
            differing,
            only_in_b,
        )
        changed = report.count("changed")
        if changed:
            observer.counter("delta.diff.changed").add(changed)
    return report


def _diff_node(
    store: RunStore,
    name: str,
    key_a: str,
    key_b: str,
    fingerprint_a: Optional[str],
    fingerprint_b: Optional[str],
    max_leaves: int,
) -> NodeDiff:
    """One node present on both sides under different keys, given the
    fingerprints of its two stored results (``None`` where absent).

    Equal fingerprints mean equal sorted JSON trees and equal named
    arrays, where :func:`_walk` finds no delta, so neither result is
    loaded.  ``store.get`` reads an entry evicted since it was
    fingerprinted as a miss: that is the ``unstored`` finding, not an
    error.
    """
    deltas: List[LeafDelta] = []
    truncated = 0
    if None not in (fingerprint_a, fingerprint_b) and fingerprint_a != fingerprint_b:
        result_a = store.get(key_a)
        result_b = store.get(key_b)
        if result_a is None:
            fingerprint_a = None
        if result_b is None:
            fingerprint_b = None
        if result_a is not None and result_b is not None:
            deltas, truncated = _leaf_deltas(result_a, result_b, "$", max_leaves)
    return NodeDiff(
        name,
        "unstored" if None in (fingerprint_a, fingerprint_b) else "changed",
        key_a=key_a,
        key_b=key_b,
        fingerprint_a=fingerprint_a,
        fingerprint_b=fingerprint_b,
        deltas=tuple(deltas),
        truncated=truncated,
    )


__all__ = [
    "LeafDelta",
    "NodeDiff",
    "STATUSES",
    "TimelineDiff",
    "diff_timelines",
    "value_deltas",
]
