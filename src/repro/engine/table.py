"""In-memory tables for the relational engine.

Rows are stored as validated dictionaries.  Tables are the unit that the
Monte Carlo database (``repro.mcdb``), the Indemics engine
(``repro.epidemics``) and the agent-based self-join machinery
(``repro.abs.selfjoin``) build on.
"""

from __future__ import annotations

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


def _read_only(vec: ColumnVector) -> ColumnVector:
    """``vec`` with its arrays (codes and dictionary too) made read-only."""
    for array in (vec.values, vec.valid, vec.dictionary):
        if array is not None:
            array.flags.writeable = False
    return vec


class Table:
    """A named, schema-validated bag of rows.

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
        self._rows: List[Row] = []
        self._version = 0
        self._reorg_epoch = 0
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
        Python type (or are ``None``) is taken as it is.  The rows are
        built with one ``zip``, and the typed columns seed the scan
        cache, so the first :meth:`column_batch` converts nothing.
        """
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns with lengths {lengths}")
        n = lengths.pop() if lengths else 0
        if not n:
            raise SchemaError("from_columns needs at least one row")
        cols = []
        typed = []
        for key, values in columns.items():
            column = Column(key, column_dtype(values))
            exact = {column.dtype, type(None)}
            if exact.issuperset(map(type, values)):
                values = list(values)
            else:
                try:
                    values = [column.coerce(v) for v in values]
                except SchemaError:
                    # Raise the row-major first failure, as from_rows does.
                    return cls.from_rows(
                        name,
                        [dict(zip(columns, row)) for row in zip(*columns.values())],
                    )
            cols.append(column)
            typed.append(values)
        table = cls(name, Schema(cols))
        names = list(columns)
        table._rows = [dict(zip(names, row)) for row in zip(*typed)]
        table._version = 1
        batch = ColumnBatch(
            {
                column.name: _read_only(vector_from_typed(values, column.dtype))
                for column, values in zip(cols, typed)
            },
            n,
        )
        table._batch_slot = (table._version, n, table._reorg_epoch, batch)
        return table

    # -- mutation ----------------------------------------------------------
    def insert(self, row: Mapping[str, Any]) -> None:
        """Validate, coerce and append one row."""
        self._rows.append(self.schema.validate_row(row))
        self._version += 1

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert many rows atomically; returns the number inserted.

        The whole batch is validated before anything is stored, so a bad
        row leaves the table (and :attr:`version`) untouched, and the
        batch bumps :attr:`version` exactly once — version-keyed caches
        see one invalidation per mutation batch, not one per row.
        """
        validated = [self.schema.validate_row(row) for row in rows]
        if validated:
            self._rows.extend(validated)
            self._version += 1
        return len(validated)

    def delete_where(self, predicate: Expression) -> int:
        """Delete rows satisfying ``predicate``; returns the count removed.

        :attr:`version` (and :attr:`reorg_epoch`) move only when a row
        was actually removed — a no-match delete leaves version-keyed
        caches valid instead of spuriously invalidating them.
        """
        before = len(self._rows)
        kept = [r for r in self._rows if predicate.evaluate(r) is not True]
        removed = before - len(kept)
        if removed:
            self._rows = kept
            self._version += 1
            self._reorg_epoch += 1
        return removed

    def update_where(
        self,
        predicate: Expression,
        assignments: Mapping[str, Expression],
    ) -> int:
        """Apply ``column := expression`` to rows matching ``predicate``."""
        unknown = set(assignments) - set(self.schema.names)
        if unknown:
            raise SchemaError(f"cannot update unknown columns {sorted(unknown)}")
        count = 0
        for row in self._rows:
            if predicate.evaluate(row) is True:
                updates = {
                    name: self.schema.column(name).coerce(expr.evaluate(row))
                    for name, expr in assignments.items()
                }
                row.update(updates)
                count += 1
        if count:
            self._version += 1
            self._reorg_epoch += 1
        return count

    def truncate(self) -> None:
        """Remove all rows (a no-op — no version bump — when already empty)."""
        if self._rows:
            self._rows.clear()
            self._version += 1
            self._reorg_epoch += 1

    # -- access ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, {self.schema!r})"

    def __getstate__(self) -> Dict[str, Any]:
        # The scan cache is derived data: a pickled table (a process
        # backend's task payload) ships without it and rebuilds on demand.
        state = dict(self.__dict__)
        state["_batch_slot"] = None
        return state

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutating method.

        :meth:`column_batch` keys its cache on it together with the row
        count and :attr:`reorg_epoch`; edits made directly through
        :attr:`rows` bypass it, which that cache guards against only by
        length.  Batch mutations bump exactly once, and mutating calls
        that match nothing leave the counter alone — version moves if
        and only if row data changed.
        """
        return self._version

    @property
    def reorg_epoch(self) -> int:
        """Counter bumped by every *non-append* mutation that changed rows.

        ``delete_where``/``update_where``/``truncate`` advance it;
        ``insert``/``insert_many`` never do.  An observer that recorded
        ``(reorg_epoch, version, len)`` can therefore prove that every
        change since its watermark was a pure append — the invariant
        :class:`repro.delta.AppendLog` builds incremental aggregate
        maintenance on.  Direct edits through :attr:`rows` bypass it
        (same caveat as :attr:`version`).
        """
        return self._reorg_epoch

    @property
    def rows(self) -> List[Row]:
        """Direct (mutable) access to the stored rows.

        Mutating the returned list bypasses schema validation *and* the
        :attr:`version` counter — prefer the mutation methods.
        """
        return self._rows

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
        version, n, epoch = self._version, len(self._rows), self._reorg_epoch
        slot = self._batch_slot
        if slot is not None and slot[:3] == (version, n, epoch):
            return slot[3]
        base = None
        if slot is not None and slot[2] == epoch and slot[1] < n:
            base = slot[3]
        tail = self._rows[0 if base is None else base.length:n]
        columns: Dict[str, ColumnVector] = {}
        for column in self.schema.columns:
            name = column.name
            vec = vector_from_typed([row[name] for row in tail], column.dtype)
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
                    vec = vector_from_typed(
                        [row[name] for row in self._rows[:n]], column.dtype
                    )
            columns[name] = _read_only(vec)
        batch = ColumnBatch(columns, n)
        self._batch_slot = (version, n, epoch, batch)
        return batch

    def column_values(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        self.schema.column(name)
        return [row[name] for row in self._rows]

    def column_array(self, name: str) -> np.ndarray:
        """One numeric column as a numpy array (``None`` becomes ``nan``)."""
        values = self.column_values(name)
        return np.array(
            [np.nan if v is None else v for v in values], dtype=float
        )

    def copy(self, name: Optional[str] = None) -> "Table":
        """A deep-enough copy (rows are copied, values shared)."""
        clone = Table(name or self.name, self.schema)
        clone._rows = [dict(r) for r in self._rows]
        return clone

    def head(self, n: int = 5) -> List[Row]:
        """The first ``n`` rows (for inspection and doctests)."""
        return [dict(r) for r in self._rows[:n]]

    def to_pretty_string(self, limit: int = 20) -> str:
        """A fixed-width textual rendering for reports and benchmarks."""
        names = list(self.schema.names)
        shown = self._rows[:limit]
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
        if len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more rows)")
        return "\n".join(lines)
