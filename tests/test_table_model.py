"""A model test for :class:`Table` against a plain list of row dicts.

The model holds what :meth:`Schema.validate_row` returns for every
stored row, with ``version`` and ``reorg_epoch`` kept by hand.  After
every step the table's rows (key, type and repr of each value), length,
counters, scan-cache batch and ``SELECT *`` on both executors must
agree with it, and a failed mutation must raise what the model raises
and change nothing.  ``--hypothesis-profile=table-model`` (registered in
``tests/conftest.py``) raises the budget.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.engine import Database, Schema, Table
from repro.engine.columnar import vector_from_typed
from repro.engine.expressions import BinaryOp, Column, IsNull, Literal
from repro.ensemble.store import result_fingerprint
from repro.errors import SchemaError


class Tag(str):
    """A ``str`` subclass: ``insert`` keeps it, the scan cache codes it
    as an ``object`` column."""


TYPES = (int, float, str, bool)
TEXT = st.text(alphabet="abé ", max_size=3)
INTS = st.one_of(
    st.integers(-100, 100),
    st.integers(-(2**64), 2**64),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
STRS = st.one_of(TEXT, st.just(""), TEXT.map(Tag))
BOOL_WORDS = st.sampled_from(["true", "T", "1", "yes", "no", "0", ""])

#: Values each column type coerces.
GOOD = {
    int: st.one_of(st.none(), INTS, st.floats(-1e15, 1e15)),
    float: st.one_of(st.none(), FLOATS, INTS),
    str: st.one_of(st.none(), STRS, INTS, FLOATS),
    bool: st.one_of(
        st.none(), st.booleans(), st.booleans().map(np.bool_), INTS,
        BOOL_WORDS, BOOL_WORDS.map(Tag), FLOATS,
    ),
}
#: Values a column type cannot coerce (``int`` of an infinity raises
#: ``OverflowError``, the rest ``SchemaError``).
BAD = {
    int: st.sampled_from(["x", "1.5", math.nan, math.inf, np.float64(math.nan)]),
    float: st.sampled_from(["x", "", "1,5"]),
}

SCHEMAS = st.lists(st.sampled_from(TYPES), max_size=4).map(
    lambda types: Schema.of(**{f"c{i}": t for i, t in enumerate(types)})
)


def cells(values):
    return [(type(v), repr(v)) for v in values]


def typed(rows):
    return [[(k, type(v), repr(v)) for k, v in row.items()] for row in rows]


def vector_bytes(vec):
    return (
        vec.kind,
        vec.values.dtype.str,
        repr(vec.values.tolist()),
        vec.valid.tolist(),
        None if vec.dictionary is None else vec.dictionary.tolist(),
    )


def outcome(fn):
    """``(result, None)``, or ``(None, exception)`` when ``fn`` raises."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - compared with the model's
        return None, exc


class TableModel(RuleBasedStateMachine):
    @initialize(schema=SCHEMAS)
    def start(self, schema):
        self.schema = schema
        self.table = Table("t", schema)
        self.rows = []
        self.version = 0
        self.epoch = 0
        #: An earlier table (before a copy) and the rows it must keep.
        self.retired = None

    # -- strategies ------------------------------------------------------
    def row_strategy(self):
        return st.fixed_dictionaries(
            {}, optional={c.name: GOOD[c.dtype] for c in self.schema.columns}
        )

    def draw_predicate(self, data):
        choices = [Literal(True)] * 3 + [Literal(False), Literal(None)]
        names = self.schema.names
        if names:
            name = data.draw(st.sampled_from(names))
            choices.append(IsNull(Column(name), data.draw(st.booleans())))
            values = [row[name] for row in self.rows] or [None]
            value = data.draw(st.sampled_from(values) | GOOD[self.schema.column(name).dtype])
            choices.append(BinaryOp("=", Column(name), Literal(value)))
        return data.draw(st.sampled_from(choices))

    def expect(self, call, model):
        """Run ``call`` on the table and ``model`` on the rows; compare."""
        want, expected = outcome(model)
        got, raised = outcome(call)
        if expected is not None:
            assert type(raised) is type(expected), (raised, expected)
            assert str(raised) == str(expected)
            return None
        assert raised is None, raised
        return got, want

    # -- rules -----------------------------------------------------------
    @rule(data=st.data())
    def insert(self, data):
        row = data.draw(self.row_strategy())
        if data.draw(st.integers(0, 5)) == 0:
            row["zz"] = 1
        result = self.expect(
            lambda: self.table.insert(row), lambda: self.schema.validate_row(row)
        )
        if result is not None:
            self.rows.append(result[1])
            self.version += 1

    @rule(data=st.data())
    def insert_many(self, data):
        batch = data.draw(st.lists(self.row_strategy(), max_size=8))
        faults = data.draw(st.lists(st.integers(0, 7), max_size=2)) if batch else []
        for at in faults:
            row = batch[at % len(batch)] = dict(batch[at % len(batch)])
            fallible = [c for c in self.schema.columns if c.dtype in BAD]
            if fallible and data.draw(st.booleans()):
                column = data.draw(st.sampled_from(fallible))
                row[column.name] = data.draw(BAD[column.dtype])
            else:
                row["zz"] = 1
        result = self.expect(
            lambda: self.table.insert_many(iter(batch)),
            lambda: [self.schema.validate_row(row) for row in batch],
        )
        if result is not None:
            count, validated = result
            assert count == len(batch)
            self.rows.extend(validated)
            self.version += bool(batch)

    @rule(data=st.data())
    def delete_where(self, data):
        predicate = self.draw_predicate(data)
        kept = [r for r in self.rows if predicate.evaluate(r) is not True]
        removed = self.table.delete_where(predicate)
        assert removed == len(self.rows) - len(kept)
        if removed:
            self.rows = kept
            self.version += 1
            self.epoch += 1

    @rule(data=st.data())
    def update_where(self, data):
        predicate = self.draw_predicate(data)
        names = self.schema.names
        if names:
            names = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        if data.draw(st.integers(0, 7)) == 0:
            names += ("zz",)
        assignments = {}
        for name in names:
            if name not in self.schema:
                assignments[name] = Literal(1)
                continue
            dtype = self.schema.column(name).dtype
            source = GOOD[dtype] | BAD[dtype] if dtype in BAD else GOOD[dtype]
            if data.draw(st.booleans()):
                assignments[name] = Literal(data.draw(source))
            else:
                assignments[name] = Column(data.draw(st.sampled_from(self.schema.names)))

        if "zz" in assignments:
            with pytest.raises(SchemaError, match="unknown columns"):
                self.table.update_where(predicate, assignments)
            return

        def model():
            return [
                (i, {
                    name: self.schema.column(name).coerce(expr.evaluate(row))
                    for name, expr in assignments.items()
                })
                for i, row in enumerate(self.rows)
                if predicate.evaluate(row) is True
            ]

        result = self.expect(
            lambda: self.table.update_where(predicate, assignments), model
        )
        if result is not None:
            count, updates = result
            assert count == len(updates)
            for i, new in updates:
                self.rows[i] = dict(self.rows[i], **new)
            if updates:
                self.version += 1
                self.epoch += 1

    @rule()
    def truncate(self):
        self.table.truncate()
        if self.rows:
            self.rows = []
            self.version += 1
            self.epoch += 1

    @rule()
    def copy(self):
        self.retired = (self.table, typed(self.rows))
        self.table = self.table.copy()
        self.version = self.epoch = 0

    @rule(data=st.data())
    def insert_into_the_copied(self, data):
        # Appends to both tables after a copy must stay apart.
        if self.retired is None:
            return
        old, old_rows = self.retired
        row = data.draw(self.row_strategy())
        old.insert(row)
        old_rows.extend(typed([self.schema.validate_row(row)]))

    @rule()
    def pickle_round_trip(self):
        self.table = pickle.loads(pickle.dumps(self.table))

    # -- the checks ------------------------------------------------------
    @invariant()
    def agrees_with_the_model(self):
        table, rows = self.table, self.rows
        assert typed(table.rows) == typed(rows)
        assert typed(table) == typed(rows)
        assert typed(table.head(3)) == typed(rows[:3])
        assert typed(table.slice_rows(1, 4)) == typed(rows[1:4])
        assert (len(table), table.version, table.reorg_epoch) == (
            len(rows), self.version, self.epoch,
        )
        batch = table.column_batch()
        assert batch.length == len(rows)
        assert list(batch.columns) == list(self.schema.names)
        for column in self.schema.columns:
            values = [row[column.name] for row in rows]
            assert cells(table.column_values(column.name)) == cells(values)
            assert vector_bytes(batch.columns[column.name]) == vector_bytes(
                vector_from_typed(values, column.dtype)
            )
        db = Database()
        db.register(table)
        by_rows = db.sql("SELECT * FROM t", execution="row")
        assert typed(by_rows) == typed(rows)
        columnar = db.sql("SELECT * FROM t", execution="columnar")
        assert result_fingerprint(columnar) == result_fingerprint(by_rows)
        if self.retired is not None:
            old, old_rows = self.retired
            assert typed(old.rows) == old_rows


TableModel.TestCase.settings = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestTableModel = TableModel.TestCase
