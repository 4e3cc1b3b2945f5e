"""In-memory tables for the relational engine.

A table stores one list of validated values per column; row
dictionaries are built only when something reads rows.  Tables are the
unit that the Monte Carlo database (``repro.mcdb``), the Indemics
engine (``repro.epidemics``) and the agent-based self-join machinery
(``repro.abs.selfjoin``) build on.
"""

from __future__ import annotations

import threading
from itertools import compress
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.engine.columnar import (
    ColumnBatch,
    ColumnVector,
    concat_vectors,
    vector_from_typed,
)
from repro.engine.expressions import Expression
from repro.engine.schema import Column, Schema
from repro.errors import SchemaError

Row = Dict[str, Any]

#: Rows built per step when a table is iterated, so a consumer that
#: stops early (a row-executor LIMIT) builds little more than it reads.
_ROWS_PER_STEP = 1024


def column_dtype(values: Sequence[Any]) -> type:
    """The engine type of one column of values.

    The type of its first non-NULL value, ``str`` when every value is
    NULL.  A NumPy bool is a ``bool``.  A column whose non-NULL values
    mix ints and floats (bools aside) is ``float``: typed ``int``, it
    would truncate its floats.
    """
    first = next((v for v in values if v is not None), None)
    if isinstance(first, (bool, np.bool_)):
        return bool
    if isinstance(first, (int, np.integer)):
        types = set(map(type, values))
        mixed = any(issubclass(t, (float, np.floating)) for t in types)
        return float if mixed else int
    if isinstance(first, (float, np.floating)):
        return float
    return str


def _coerced(column: Column, values: List[Any]) -> List[Any]:
    """``values`` as :meth:`Schema.validate_row` stores them in ``column``.

    The list itself when every value already has the column's exact type
    or is ``None`` (:meth:`Column.coerce` would return each unchanged),
    else a new list of coerced values.
    """
    if {column.dtype, type(None)}.issuperset(map(type, values)):
        return values
    return [column.coerce(v) for v in values]


def _read_only(vec: ColumnVector) -> ColumnVector:
    """``vec`` with its arrays (codes and dictionary too) made read-only."""
    for array in (vec.values, vec.valid, vec.dictionary):
        if array is not None:
            array.flags.writeable = False
    return vec


class Table:
    """A named, schema-validated bag of rows, stored a column at a time.

    The truth is one list per schema column plus a row count, published
    with :attr:`version` and :attr:`reorg_epoch` as one
    ``(columns, length, version, reorg_epoch)`` tuple.  Writers serialize
    on the table's lock: ``insert``/``insert_many`` append to the lists
    in place and then publish the longer length, while ``delete_where``,
    ``update_where`` and ``truncate`` publish new lists.  A reader takes
    the tuple once and reads each list only up to its length, so a scan
    that runs beside a writer sees the old state or the new one, never a
    mix.  Row dicts are built fresh on every read.

    Examples
    --------
    >>> t = Table("person", Schema.of(pid=int, age=int))
    >>> t.insert({"pid": 1, "age": 30})
    >>> len(t)
    1
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Optional[Iterable[Mapping[str, Any]]] = None,
    ) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self._known = frozenset(schema.names)
        self._position = {c.name: i for i, c in enumerate(schema.columns)}
        self._fields = tuple((c.name, c.dtype, c) for c in schema.columns)
        self._lock = threading.Lock()
        #: ``(columns, length, version, reorg_epoch)``, replaced as one
        #: tuple; see the class docstring.
        self._state: Tuple[List[List[Any]], int, int, int] = (
            [[] for _ in schema.columns], 0, 0, 0,
        )
        #: ``(version, len, reorg_epoch, batch)`` of the last
        #: :meth:`column_batch` conversion, replaced as one tuple so
        #: concurrent readers never see a torn entry.
        self._batch_slot: Optional[Tuple[int, int, int, ColumnBatch]] = None
        if rows is not None:
            self.insert_many(rows)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_rows(
        cls, name: str, rows: Sequence[Mapping[str, Any]]
    ) -> "Table":
        """Infer a schema from the rows and build the table.

        Columns come in the first row's order, each typed by
        :func:`column_dtype` over its values.
        """
        if not rows:
            raise SchemaError("cannot infer a schema from zero rows")
        cols = [
            Column(key, column_dtype([row.get(key) for row in rows]))
            for key in rows[0]
        ]
        return cls(name, Schema(cols), rows)

    @classmethod
    def from_columns(
        cls, name: str, columns: Mapping[str, Sequence[Any]]
    ) -> "Table":
        """Build a table from parallel column arrays.

        Equal to :meth:`from_rows` over the rows the columns hold: each
        column is typed by :func:`column_dtype` and its values coerced
        by :meth:`Column.coerce`, as :meth:`Schema.validate_row` does,
        except that a column whose values all have the column's exact
        Python type (or are ``None``) is taken as it is.  The typed
        lists become the table's columns, and they seed the scan cache,
        so the first :meth:`column_batch` converts nothing.
        """
        return cls._from_columns(name, columns, {})

    @classmethod
    def _from_columns(
        cls,
        name: str,
        columns: Mapping[str, Sequence[Any]],
        known: Mapping[str, Tuple[type, ColumnVector]],
    ) -> "Table":
        """:meth:`from_columns`, reusing vectors the caller already has.

        ``known`` maps a column name to ``(dtype, vector)`` (or
        ``None``): the read-only vector of a ``dtype`` column holding
        exactly the values given for that name.  It seeds the cache in
        place of coding the values again when the column is typed
        ``dtype`` and every value has that exact type or is ``None``.
        """
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns with lengths {lengths}")
        n = lengths.pop() if lengths else 0
        if not n:
            raise SchemaError("from_columns needs at least one row")
        cols = []
        typed = []
        vectors: Dict[str, ColumnVector] = {}
        for key, values in columns.items():
            column = Column(key, column_dtype(values))
            values = list(values)
            try:
                coerced = _coerced(column, values)
            except Exception:
                # Any coercion failure: raise the row-major first one,
                # as from_rows does.
                return cls.from_rows(
                    name,
                    [dict(zip(columns, row)) for row in zip(*columns.values())],
                )
            given = known.get(key)
            if coerced is values and given is not None and given[0] is column.dtype:
                vectors[key] = given[1]
            cols.append(column)
            typed.append(coerced)
        table = cls(name, Schema(cols))
        table._state = (typed, n, 1, 0)
        for column, values in zip(cols, typed):
            if column.name not in vectors:
                vectors[column.name] = _read_only(
                    vector_from_typed(values, column.dtype)
                )
        batch = ColumnBatch({column.name: vectors[column.name] for column in cols}, n)
        table._batch_slot = (1, n, 0, batch)
        return table

    # -- mutation ----------------------------------------------------------
    def insert(self, row: Mapping[str, Any]) -> None:
        """Validate, coerce and append one row.

        Stores what :meth:`Schema.validate_row` returns, without building
        its dict: a value that already has its column's exact type (or
        is ``None``) is what :meth:`Column.coerce` would return.
        """
        if not row.keys() <= self._known:
            self.schema.validate_row(row)  # raises the unknown columns
        get = row.get
        values = [
            v if (v := get(name)) is None or type(v) is dtype else column.coerce(v)
            for name, dtype, column in self._fields
        ]
        lock = self._lock
        lock.acquire()  # cheaper per row than a ``with`` block
        try:
            columns, n, version, epoch = self._state
            for column_values, value in zip(columns, values):
                column_values.append(value)
            self._state = (columns, n + 1, version + 1, epoch)
        finally:
            lock.release()

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert many rows atomically; returns the number inserted.

        Values are validated a column at a time, and the whole batch
        before anything is stored, so a bad row leaves the table (and
        :attr:`version`) untouched, and the batch bumps :attr:`version`
        exactly once — version-keyed caches see one invalidation per
        mutation batch, not one per row.  A failure raises what
        :meth:`Schema.validate_row` raises for the first bad row.
        """
        rows = list(rows)
        if not rows:
            return 0
        try:
            known = self._known
            if not all(row.keys() <= known for row in rows):
                raise SchemaError("row has unknown columns")
            typed = [
                _coerced(column, [row.get(column.name) for row in rows])
                for column in self.schema.columns
            ]
        except Exception:
            # Any failure, whatever its column: validating row by row
            # raises the one the first bad row raises.
            for row in rows:
                self.schema.validate_row(row)
            raise
        with self._lock:
            columns, n, version, epoch = self._state
            for column, values in zip(columns, typed):
                column.extend(values)
            self._state = (columns, n + len(rows), version + 1, epoch)
        return len(rows)

    def delete_where(self, predicate: Expression) -> int:
        """Delete rows satisfying ``predicate``; returns the count removed.

        :attr:`version` (and :attr:`reorg_epoch`) move only when a row
        was actually removed — a no-match delete leaves version-keyed
        caches valid instead of spuriously invalidating them.
        """
        with self._lock:
            columns, n, version, epoch = self._state
            keep = [
                predicate.evaluate(row) is not True
                for row in self._iter_rows(columns, n)
            ]
            removed = keep.count(False)
            if removed:
                self._state = (
                    [list(compress(values, keep)) for values in columns],
                    n - removed,
                    version + 1,
                    epoch + 1,
                )
        return removed

    def update_where(
        self,
        predicate: Expression,
        assignments: Mapping[str, Expression],
    ) -> int:
        """Apply ``column := expression`` to rows matching ``predicate``.

        Atomic: every matching row's new values are computed and coerced
        before any is stored, so a failure changes nothing.
        """
        unknown = set(assignments) - set(self.schema.names)
        if unknown:
            raise SchemaError(f"cannot update unknown columns {sorted(unknown)}")
        targets = [
            (self._position[name], self.schema.column(name), expr)
            for name, expr in assignments.items()
        ]
        with self._lock:
            columns, n, version, epoch = self._state
            updates = [
                (position, [c.coerce(expr.evaluate(row)) for _, c, expr in targets])
                for position, row in enumerate(self._iter_rows(columns, n))
                if predicate.evaluate(row) is True
            ]
            if updates:
                # Untouched columns keep their lists: only appends ever
                # write into a published list.
                columns = list(columns)
                for j, (index, _, _) in enumerate(targets):
                    values = columns[index][:n]
                    for position, new in updates:
                        values[position] = new[j]
                    columns[index] = values
                self._state = (columns, n, version + 1, epoch + 1)
        return len(updates)

    def truncate(self) -> None:
        """Remove all rows (a no-op — no version bump — when already empty)."""
        with self._lock:
            columns, n, version, epoch = self._state
            if n:
                self._state = ([[] for _ in columns], 0, version + 1, epoch + 1)

    # -- access ------------------------------------------------------------
    def _rows_of(
        self, columns: List[List[Any]], start: int, stop: int
    ) -> List[Row]:
        """Fresh row dicts for positions ``start..stop`` of ``columns``."""
        if not columns:
            return [{} for _ in range(start, stop)]
        names = self.schema.names
        return [
            dict(zip(names, cells))
            for cells in zip(*[values[start:stop] for values in columns])
        ]

    def _iter_rows(self, columns: List[List[Any]], n: int) -> Iterator[Row]:
        for start in range(0, n, _ROWS_PER_STEP):
            yield from self._rows_of(
                columns, start, min(start + _ROWS_PER_STEP, n)
            )

    def __len__(self) -> int:
        return self._state[1]

    def __iter__(self) -> Iterator[Row]:
        columns, n = self._state[:2]
        return self._iter_rows(columns, n)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, {self.schema!r})"

    def __getstate__(self) -> Dict[str, Any]:
        # The scan cache is derived data: a pickled table (a process
        # backend's task payload) ships without it and rebuilds on demand.
        state = dict(self.__dict__)
        columns, n, version, epoch = self._state
        state["_state"] = ([values[:n] for values in columns], n, version, epoch)
        state["_batch_slot"] = None
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutating method.

        :meth:`column_batch` keys its cache on it together with the row
        count and :attr:`reorg_epoch`.  Batch mutations bump exactly
        once, and mutating calls that match nothing leave the counter
        alone — version moves if and only if row data changed.
        """
        return self._state[2]

    @property
    def reorg_epoch(self) -> int:
        """Counter bumped by every *non-append* mutation that changed rows.

        ``delete_where``/``update_where``/``truncate`` advance it;
        ``insert``/``insert_many`` never do.  An observer that recorded
        ``(reorg_epoch, version, len)`` can therefore prove that every
        change since its watermark was a pure append — the invariant
        :class:`repro.delta.AppendLog` builds incremental aggregate
        maintenance on.
        """
        return self._state[3]

    @property
    def rows(self) -> List[Row]:
        """A snapshot of every row as fresh dicts.

        Editing it changes nothing in the table; use the mutation
        methods.
        """
        columns, n = self._state[:2]
        return self._rows_of(columns, 0, n)

    def slice_rows(self, start: int, stop: int) -> List[Row]:
        """Fresh row dicts for rows ``start`` up to (not including) ``stop``.

        Builds only those rows, so reading an appended tail costs the
        tail, not the table.
        """
        columns, n = self._state[:2]
        return self._rows_of(columns, *slice(start, stop).indices(n)[:2])

    def column_batch(self) -> ColumnBatch:
        """All rows as an unaliased, read-only :class:`ColumnBatch`.

        Equal, column by column, to ``ColumnBatch.from_table(self)``,
        which the columnar executor would otherwise rerun per scan.
        The batch is cached in one slot keyed by ``(version, len,
        reorg_epoch)``, read before converting, and exactly that many
        rows are converted.  After pure appends (same
        :attr:`reorg_epoch`, more rows) only the new rows are converted
        and concatenated onto each column of the same kind — a ``str``
        column's dictionary is extended, its old codes kept; a column
        whose kind changed (an ``int`` tail beyond 2**53 turns it into
        ``object``) is rebuilt whole, as is the batch after any other
        mutation.  Its arrays (codes and dictionaries included) are
        read-only, so an in-place write raises instead of corrupting
        later scans.
        """
        columns, n, version, epoch = self._state
        slot = self._batch_slot
        if slot is not None and slot[:3] == (version, n, epoch):
            return slot[3]
        base = None
        if slot is not None and slot[2] == epoch and slot[1] < n:
            base = slot[3]
        start = 0 if base is None else base.length
        vectors: Dict[str, ColumnVector] = {}
        for column, values in zip(self.schema.columns, columns):
            name = column.name
            vec = vector_from_typed(values[start:n], column.dtype)
            if base is not None:
                old = base.columns[name]
                if old.kind == vec.kind == "str":
                    vec = concat_vectors([old, vec])
                elif old.kind == vec.kind:
                    vec = ColumnVector(
                        vec.kind,
                        np.concatenate([old.values, vec.values]),
                        np.concatenate([old.valid, vec.valid]),
                    )
                else:
                    vec = vector_from_typed(values[:n], column.dtype)
            vectors[name] = _read_only(vec)
        batch = ColumnBatch(vectors, n)
        self._batch_slot = (version, n, epoch, batch)
        return batch

    def column_values(self, name: str) -> List[Any]:
        """All values of one column, in row order (a new list)."""
        self.schema.column(name)
        columns, n = self._state[:2]
        return columns[self._position[name]][:n]

    def column_array(self, name: str) -> np.ndarray:
        """One numeric column as a numpy array (``None`` becomes ``nan``)."""
        values = self.column_values(name)
        return np.array(
            [np.nan if v is None else v for v in values], dtype=float
        )

    def copy(self, name: Optional[str] = None) -> "Table":
        """A deep-enough copy (the lists are copied, values shared)."""
        clone = Table(name or self.name, self.schema)
        columns, n = self._state[:2]
        clone._state = ([values[:n] for values in columns], n, 0, 0)
        return clone

    def head(self, n: int = 5) -> List[Row]:
        """The first ``n`` rows (for inspection and doctests)."""
        return self.slice_rows(0, n)

    def to_pretty_string(self, limit: int = 20) -> str:
        """A fixed-width textual rendering for reports and benchmarks."""
        names = list(self.schema.names)
        columns, total = self._state[:2]
        shown = self._rows_of(columns, *slice(0, limit).indices(total)[:2])
        cells = [
            [("" if row[n] is None else str(row[n])) for n in names]
            for row in shown
        ]
        widths = [
            max([len(n)] + [len(row[i]) for row in cells])
            for i, n in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        lines = [header, sep]
        for row in cells:
            lines.append(
                " | ".join(v.ljust(w) for v, w in zip(row, widths))
            )
        if total > limit:
            lines.append(f"... ({total - limit} more rows)")
        return "\n".join(lines)
