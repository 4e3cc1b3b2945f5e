"""Streaming appends and incremental aggregate maintenance.

Engine :class:`~repro.engine.table.Table`\\ s expose two monotonic
counters: :attr:`~repro.engine.table.Table.version` (every mutation
that changed rows) and :attr:`~repro.engine.table.Table.reorg_epoch`
(only the *non-append* mutations — ``delete_where`` / ``update_where``
/ ``truncate``).  An :class:`AppendLog` watermarks both plus the row
count, which is enough to *prove* that everything since the watermark
was a pure append: the epoch is unchanged and the table only grew.  In
that case the new rows are exactly
``table.slice_rows(watermark, len(table))`` — a streaming tail that can
be folded into downstream state without rereading the table.

:class:`IncrementalAggregate` is the canonical consumer: a registered
COUNT/SUM/MIN/MAX/AVG group-by view whose states are maintained by
folding only the appended tail.  The byte-identity argument (this
repo's standing fingerprint oracle) is order-based: a full recompute
folds rows ``0..n`` in row order through the accumulators; an
incremental refresh holds the exact state after rows ``0..k`` and folds
``k..n`` in the same order — the two execute the *same* float
operations in the *same* sequence, so the finished states (including
non-associative float sums) are bit-for-bit identical.  Any
reorganization (delete/update/truncate) trips the epoch/row-count guard
and falls back to a full rebuild, which is always sound; so does any
other change that is not a pure append.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.engine.table import Table
from repro.errors import SimulationError
from repro.obs import get_observer

#: Aggregate functions a view may register.
AGG_FUNCS = ("count", "sum", "min", "max", "avg")


# -- the append log ----------------------------------------------------------

class AppendDelta(NamedTuple):
    """What happened to a table since an :class:`AppendLog` watermark."""

    kind: str  # "noop" | "append" | "rebase"
    start: int  # first new row index ("append"), else 0
    count: int  # appended rows ("append"), else current row count


class AppendLog:
    """Watermark over a :class:`Table` that classifies its mutations.

    ``poll()`` inspects without advancing; ``sync()`` advances the
    watermark and returns the same classification.  ``from_start=True``
    (the :class:`IncrementalAggregate` constructor's choice) places the
    initial watermark *before* the table's existing rows, so the first
    sync streams them as one append.
    """

    def __init__(self, table: Table, from_start: bool = False) -> None:
        self.table = table
        self._reorg = table.reorg_epoch
        self._version = table.version if not from_start else -1
        self._count = 0 if from_start else len(table)

    def poll(self) -> AppendDelta:
        """Classify the mutations since the watermark (non-advancing)."""
        table = self.table
        if table.reorg_epoch != self._reorg:
            return AppendDelta("rebase", 0, len(table))
        if len(table) < self._count:
            # Shrink without an epoch bump: no table method does this,
            # so it is not an append.
            return AppendDelta("rebase", 0, len(table))
        if len(table) == self._count:
            if table.version != self._version and self._version >= 0:
                # Version moved but the row count did not and no reorg
                # was recorded — no table method does this; rebuilding
                # is the only sound answer.
                return AppendDelta("rebase", 0, len(table))
            return AppendDelta("noop", self._count, 0)
        return AppendDelta("append", self._count, len(table) - self._count)

    def sync(self) -> AppendDelta:
        """:meth:`poll`, then advance the watermark to the table's now."""
        delta = self.poll()
        self._reorg = self.table.reorg_epoch
        self._version = self.table.version
        self._count = len(self.table)
        return delta


# -- incremental aggregates --------------------------------------------------

@dataclass(frozen=True)
class AggSpec:
    """One registered aggregate: output name, function, input column."""

    name: str
    func: str
    column: Optional[str] = None  # None = COUNT(*)

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise SimulationError(
                f"unknown aggregate function {self.func!r}; "
                f"choose from {AGG_FUNCS}"
            )
        if self.column is None and self.func != "count":
            raise SimulationError(
                f"aggregate {self.name!r}: only count may omit a column"
            )


class RefreshReport(NamedTuple):
    """Outcome of one :meth:`IncrementalAggregate.refresh`."""

    kind: str  # "noop" | "append" | "rebase"
    rows_folded: int
    groups: int


class _GroupState:
    """Accumulators for one group, one slot per registered aggregate.

    COUNT keeps an int; SUM/MIN/MAX keep the running value (``None``
    until a non-null input arrives, matching SQL null semantics); AVG
    keeps ``[sum, count]`` and finalizes to ``sum / count``.
    """

    __slots__ = ("slots",)

    def __init__(self, specs: Sequence[AggSpec]) -> None:
        self.slots: List[Any] = []
        for spec in specs:
            if spec.func == "count":
                self.slots.append(0)
            elif spec.func == "avg":
                self.slots.append([None, 0])
            else:
                self.slots.append(None)

    def fold(self, specs: Sequence[AggSpec], row: Dict[str, Any]) -> None:
        for i, spec in enumerate(specs):
            value = None if spec.column is None else row[spec.column]
            if spec.func == "count":
                if spec.column is None or value is not None:
                    self.slots[i] += 1
            elif value is None:
                continue
            elif spec.func == "sum":
                current = self.slots[i]
                self.slots[i] = value if current is None else current + value
            elif spec.func == "min":
                current = self.slots[i]
                self.slots[i] = (
                    value if current is None else min(current, value)
                )
            elif spec.func == "max":
                current = self.slots[i]
                self.slots[i] = (
                    value if current is None else max(current, value)
                )
            else:  # avg
                pair = self.slots[i]
                pair[0] = value if pair[0] is None else pair[0] + value
                pair[1] += 1

    def finalize(self, specs: Sequence[AggSpec]) -> List[Any]:
        out: List[Any] = []
        for i, spec in enumerate(specs):
            if spec.func == "avg":
                total, count = self.slots[i]
                out.append(None if count == 0 else total / count)
            else:
                out.append(self.slots[i])
        return out


class IncrementalAggregate:
    """A materialized group-by view maintained from streamed appends.

    >>> view = IncrementalAggregate(
    ...     table, group_by=["region"],
    ...     aggregates=[("n", "count", None), ("total", "sum", "income")],
    ... )
    >>> view.refresh()          # initial full build
    >>> table.insert({...}); view.refresh()   # folds only the new row

    Group output order is first-seen row order (the engine's group-by
    convention), so :meth:`snapshot_rows` — and therefore the
    :func:`~repro.ensemble.store.result_fingerprint` over it — is a
    deterministic function of the table contents alone, never of how
    many refreshes it took to get there.
    """

    def __init__(
        self,
        table: Table,
        group_by: Sequence[str],
        aggregates: Sequence[Union[AggSpec, Tuple[str, str, Optional[str]]]],
    ) -> None:
        self.table = table
        self.group_by = tuple(group_by)
        self.specs: Tuple[AggSpec, ...] = tuple(
            spec if isinstance(spec, AggSpec) else AggSpec(*spec)
            for spec in aggregates
        )
        if not self.specs:
            raise SimulationError(
                "IncrementalAggregate needs at least one aggregate"
            )
        names = [spec.name for spec in self.specs]
        collisions = set(names) & set(self.group_by)
        if collisions or len(set(names)) != len(names):
            raise SimulationError(
                f"aggregate output names must be unique and distinct "
                f"from group keys (got {names} over {list(self.group_by)})"
            )
        for column in self.group_by:
            table.schema.column(column)
        for spec in self.specs:
            if spec.column is not None:
                table.schema.column(spec.column)
        self._log = AppendLog(table, from_start=True)
        self._states: Dict[Tuple[Any, ...], _GroupState] = {}
        self._order: List[Tuple[Any, ...]] = []

    # -- maintenance ---------------------------------------------------------
    def _fold_rows(self, rows: Sequence[Dict[str, Any]]) -> None:
        for row in rows:
            key = tuple(row[column] for column in self.group_by)
            state = self._states.get(key)
            if state is None:
                state = _GroupState(self.specs)
                self._states[key] = state
                self._order.append(key)
            state.fold(self.specs, row)

    def refresh(self) -> RefreshReport:
        """Fold pending appends — or rebuild after a reorganization.

        Returns what happened; ``delta.agg.appended_rows`` /
        ``delta.agg.rebases`` counters record it (nonzero-guarded).
        """
        delta = self._log.sync()
        if delta.kind == "rebase":
            self._states.clear()
            self._order.clear()
            rows = self.table.rows
            self._fold_rows(rows)
            get_observer().counter("delta.agg.rebases").inc()
            return RefreshReport("rebase", len(rows), len(self._order))
        if delta.kind == "append":
            tail = self.table.slice_rows(delta.start, delta.start + delta.count)
            self._fold_rows(tail)
            get_observer().counter("delta.agg.appended_rows").add(len(tail))
            return RefreshReport("append", len(tail), len(self._order))
        return RefreshReport("noop", 0, len(self._order))

    # -- inspection ----------------------------------------------------------
    def snapshot_rows(self) -> List[Dict[str, Any]]:
        """Finalized view rows, groups in first-seen order."""
        out: List[Dict[str, Any]] = []
        for key in self._order:
            row: Dict[str, Any] = dict(zip(self.group_by, key))
            values = self._states[key].finalize(self.specs)
            row.update(
                {spec.name: value for spec, value in zip(self.specs, values)}
            )
            out.append(row)
        return out

    def fingerprint(self) -> str:
        """Content fingerprint of the finalized view (byte-identity oracle)."""
        from repro.ensemble.store import result_fingerprint

        return result_fingerprint(self.snapshot_rows())

    def rebuilt(self) -> List[Dict[str, Any]]:
        """What a from-scratch recompute of this view yields *right now*.

        Builds a fresh instance over the same table and refreshes it
        once — the reference the incremental states must match
        byte-for-byte.
        """
        fresh = IncrementalAggregate(self.table, self.group_by, self.specs)
        fresh.refresh()
        return fresh.snapshot_rows()


__all__ = [
    "AGG_FUNCS",
    "AggSpec",
    "AppendDelta",
    "AppendLog",
    "IncrementalAggregate",
    "RefreshReport",
]
