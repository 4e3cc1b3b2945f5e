"""Partitioned tables: key-partitioning metadata for catalog tables.

A :class:`PartitionedTable` assigns every row of an engine
:class:`~repro.engine.table.Table` to one of ``n`` partitions by a key
column — ``hash`` partitioning via the same CRC-32 canonical-key
assignment the mapreduce shuffle uses (:mod:`repro.parallel.keys`), or
``range`` partitioning over deterministic boundaries derived from the
sorted distinct keys.  ``Database.partition_table`` registers one per
table; no executor reads it, so registering a partitioning never changes
how or what a query runs.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.table import Table
from repro.errors import CatalogError
from repro.parallel.keys import partition_index

__all__ = ["PartitionedTable"]

_SCHEMES = ("hash", "range")


class PartitionedTable:
    """A key-partitioned view over an engine table.

    Rows never move: the table stays one in-process
    :class:`~repro.engine.table.Table`, and the partitioning is a list
    of ascending original-row-position arrays, one per partition.  NULL
    keys land on partition 0 (both schemes), mirroring the convention
    that NULLs group first-seen in the columnar group-by.

    ``hash`` assigns ``partition_index(key, n)`` — the mapreduce
    shuffle's canonical CRC-32 assignment, so equality-equal numeric
    spellings (``1``/``1.0``/``True``) share a partition and a key keeps
    its partition across subsystem boundaries.  ``range`` derives ``n-1``
    boundaries from the sorted distinct keys at build time and assigns
    by binary search; boundaries are a pure function of the key set.
    """

    def __init__(
        self,
        table: Table,
        key: str,
        num_partitions: int,
        scheme: str = "hash",
    ) -> None:
        if num_partitions < 1:
            raise CatalogError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        if scheme not in _SCHEMES:
            raise CatalogError(
                f"unknown partition scheme {scheme!r}; expected one of "
                f"{_SCHEMES}"
            )
        if key not in table.schema.names:
            raise CatalogError(
                f"table {table.name!r} has no column {key!r} to "
                f"partition on"
            )
        self.table = table
        self.key = key
        self.num_partitions = num_partitions
        self.scheme = scheme
        #: ``(version, len, reorg_epoch, positions)`` of the table the
        #: positions were built for, replaced as one tuple.
        self._built: Optional[Tuple[int, int, int, List[np.ndarray]]] = None
        self._boundaries: List[Any] = []
        #: ``(type(key), key) -> partition`` within one :meth:`_build`.
        self._assigned: Dict[Tuple[type, Any], int] = {}
        self._build()

    # -- assignment ----------------------------------------------------------
    def _range_boundaries(self, values: Sequence[Any]) -> List[Any]:
        distinct = sorted({v for v in values if v is not None})
        n = self.num_partitions
        if not distinct or n == 1:
            return []
        # n-1 cut points at even quantile offsets of the distinct keys:
        # deterministic, data-dependent, and stable under row reorder.
        return [
            distinct[(len(distinct) * i) // n]
            for i in range(1, n)
        ]

    def _assign(self, value: Any) -> int:
        if value is None:
            return 0
        # Each distinct key is assigned once per build: assignment is a
        # pure function of the key (and of the build's boundaries), and
        # the type keeps a ``str`` subclass apart from an equal ``str``.
        key = (type(value), value)
        index = self._assigned.get(key)
        if index is None:
            if self.scheme == "hash":
                index = partition_index(value, self.num_partitions)
            else:
                index = bisect.bisect_right(self._boundaries, value)
            self._assigned[key] = index
        return index

    def _build(self) -> None:
        table = self.table
        version, n, epoch = table.version, len(table), table.reorg_epoch
        built = self._built
        # After pure appends (same reorg epoch, more rows) a hash
        # partitioning assigns only the new rows: assignment is a pure
        # function of the key, and new positions sort after old ones.
        # Range boundaries depend on the whole key set, so range rebuilds.
        append = (
            self.scheme == "hash"
            and built is not None
            and built[2] == epoch
            and built[1] < n
        )
        start = built[1] if append else 0
        values = table.column_values(self.key)[start:n]
        if self.scheme == "range":
            self._boundaries = self._range_boundaries(values)
        try:
            assignment = np.fromiter(
                (self._assign(v) for v in values),
                dtype=np.int64,
                count=len(values),
            )
        finally:
            self._assigned.clear()
        positions = [
            start + np.flatnonzero(assignment == p)
            for p in range(self.num_partitions)
        ]
        if append:
            positions = [
                np.concatenate([old, new])
                for old, new in zip(built[3], positions)
            ]
        self._built = (version, n, epoch, positions)

    # -- public surface ------------------------------------------------------
    @property
    def stale(self) -> bool:
        """Whether the table mutated since the positions were built."""
        return self._built[:2] != (self.table.version, len(self.table))

    def refresh(self) -> "PartitionedTable":
        """Bring the position arrays up to date if the table has mutated.

        ``hash`` assigns only rows appended since the last build;
        anything else rebuilds every position.
        """
        if self.stale:
            self._build()
        return self

    def positions(self) -> List[np.ndarray]:
        """Ascending original-row positions, one array per partition."""
        self.refresh()
        return self._built[3]

    def partition_sizes(self) -> List[int]:
        """Row count per partition."""
        return [int(p.size) for p in self.positions()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PartitionedTable {self.table.name!r} key={self.key!r} "
            f"scheme={self.scheme} n={self.num_partitions}>"
        )
