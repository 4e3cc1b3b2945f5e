"""Tests for repro.engine.schema and repro.engine.table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Database, Schema, Table, col, lit
from repro.engine.schema import Column
from repro.errors import SchemaError


class TestSchema:
    def test_of_constructor(self):
        schema = Schema.of(pid=int, name=str, score=float)
        assert schema.names == ("pid", "name", "score")
        assert len(schema) == 3

    def test_from_spec_with_type_names(self):
        schema = Schema.from_spec({"a": "int", "b": "float"})
        assert schema.column("a").dtype is int

    def test_from_spec_unknown_type(self):
        with pytest.raises(SchemaError):
            Schema.from_spec({"a": "decimal"})

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("x", int), Column("x", float)])

    def test_validate_row_coerces(self):
        schema = Schema.of(a=int, b=float)
        row = schema.validate_row({"a": "3", "b": 2})
        assert row == {"a": 3, "b": 2.0}
        assert isinstance(row["b"], float)

    def test_validate_row_missing_becomes_null(self):
        schema = Schema.of(a=int, b=float)
        assert schema.validate_row({"a": 1}) == {"a": 1, "b": None}

    def test_validate_row_rejects_extras(self):
        schema = Schema.of(a=int)
        with pytest.raises(SchemaError):
            schema.validate_row({"a": 1, "zz": 2})

    def test_coerce_failure(self):
        schema = Schema.of(a=int)
        with pytest.raises(SchemaError):
            schema.validate_row({"a": "not-a-number"})

    def test_prefixed(self):
        schema = Schema.of(a=int).prefixed("t")
        assert schema.names == ("t.a",)

    def test_rename_and_project(self):
        schema = Schema.of(a=int, b=float)
        renamed = schema.rename({"a": "x"})
        assert renamed.names == ("x", "b")
        assert schema.project(["b"]).names == ("b",)

    def test_bool_column_string_coercion(self):
        schema = Schema.of(flag=bool)
        assert schema.validate_row({"flag": "true"})["flag"] is True
        assert schema.validate_row({"flag": "no"})["flag"] is False


class TestTable:
    def test_insert_and_len(self):
        t = Table("t", Schema.of(x=int))
        t.insert({"x": 1})
        t.insert({"x": 2})
        assert len(t) == 2

    def test_from_rows_infers_schema(self):
        t = Table.from_rows("t", [{"a": 1, "b": 2.5, "c": "s", "d": True}])
        assert t.schema.column("a").dtype is int
        assert t.schema.column("b").dtype is float
        assert t.schema.column("c").dtype is str
        assert t.schema.column("d").dtype is bool

    def test_from_rows_empty_raises(self):
        with pytest.raises(SchemaError):
            Table.from_rows("t", [])

    def test_from_columns(self):
        t = Table.from_columns("t", {"x": [1, 2, 3], "y": [4.0, 5.0, 6.0]})
        assert len(t) == 3
        assert t.column_values("x") == [1, 2, 3]

    def test_from_columns_ragged(self):
        with pytest.raises(SchemaError):
            Table.from_columns("t", {"x": [1], "y": [1, 2]})

    @pytest.mark.parametrize("build", ["from_rows", "from_columns"])
    def test_numpy_bool_column_is_typed_bool(self, build):
        columns = {"k": [1, 2], "b": np.array([True, False])}
        if build == "from_rows":
            t = Table.from_rows("t", [{"k": 1, "b": np.True_}, {"k": 2, "b": np.False_}])
        else:
            t = Table.from_columns("t", columns)
        assert t.schema == Schema.of(k=int, b=bool)
        assert [type(r["b"]) for r in t.rows] == [bool, bool]
        db = Database()
        db.register(t)
        for mode in ("row", "columnar"):
            assert db.sql("SELECT k FROM t WHERE b", execution=mode) == [{"k": 1}]
            count = "SELECT COUNT(*) AS n FROM t WHERE b = TRUE"
            assert db.sql(count, execution=mode) == [{"n": 1}]

    def test_from_columns_equals_from_rows(self):
        columns = {
            "i": np.array([3, -1, 7]),
            "f": np.array([0.5, 1.0, -2.25]),
            "mixed": [1, None, 2.5],
            "big": [2**60, None, 5],
            "nul": [None, None, None],
            "s": ["a", None, ""],
            "flag": [True, None, np.False_],
            "pyf": [1.5, 2.0, None],
        }
        rows = [
            {name: values[i] for name, values in columns.items()} for i in range(3)
        ]
        built = Table.from_columns("t", columns)
        ref = Table.from_rows("t", rows)
        assert built.schema == ref.schema
        typed = lambda t: [[(type(v), v) for v in r.values()] for r in t.rows]  # noqa: E731
        assert typed(built) == typed(ref)
        assert (built.version, built.reorg_epoch) == (ref.version, ref.reorg_epoch)
        seeded, fresh = built.column_batch(), ref.column_batch()
        for name in columns:
            a, b = seeded.columns[name], fresh.columns[name]
            assert a.kind == b.kind and a.values.dtype == b.values.dtype
            assert a.values.tolist() == b.values.tolist()
            assert a.valid.tolist() == b.valid.tolist()
            assert not a.values.flags.writeable and not a.valid.flags.writeable

    def test_from_columns_seeds_the_scan_cache(self, monkeypatch):
        from repro.engine import table as table_module

        t = Table.from_columns("t", {"x": [1, 2, 3], "s": ["a", "b", None]})
        converted = []
        real = table_module.vector_from_typed
        monkeypatch.setattr(
            table_module, "vector_from_typed",
            lambda *a: converted.append(a) or real(*a),
        )
        assert t.column_batch() is t.column_batch()
        assert converted == []
        t.insert({"x": 4, "s": "d"})
        assert t.column_batch().columns["x"].values.tolist() == [1, 2, 3, 4]
        # Only the appended row was converted, one column at a time.
        assert [len(a[0]) for a in converted] == [1, 1]

    def test_from_columns_coercion_error_is_from_rows(self):
        # Column ``a`` fails in the last row, ``c`` in the middle one:
        # from_rows validates row by row and names ``c``.
        columns = {"a": [1, 2, "zz"], "c": [0, "yy", 3]}
        rows = [{"a": a, "c": c} for a, c in zip(*columns.values())]
        with pytest.raises(SchemaError) as built:
            Table.from_columns("t", columns)
        with pytest.raises(SchemaError) as ref:
            Table.from_rows("t", rows)
        assert str(built.value) == str(ref.value) == (
            "cannot coerce 'yy' to int for column 'c'"
        )

    def test_delete_where(self):
        t = Table.from_columns("t", {"x": [1, 2, 3, 4]})
        removed = t.delete_where(col("x") > 2)
        assert removed == 2
        assert t.column_values("x") == [1, 2]

    def test_update_where(self):
        t = Table.from_columns("t", {"x": [1, 2, 3]})
        updated = t.update_where(col("x") >= 2, {"x": col("x") * 10})
        assert updated == 2
        assert t.column_values("x") == [1, 20, 30]

    def test_update_unknown_column(self):
        t = Table.from_columns("t", {"x": [1]})
        with pytest.raises(SchemaError):
            t.update_where(lit(True), {"zz": lit(0)})

    def test_column_array_handles_none(self):
        t = Table("t", Schema.of(x=float))
        t.insert({"x": 1.0})
        t.insert({"x": None})
        arr = t.column_array("x")
        assert arr[0] == 1.0
        assert np.isnan(arr[1])

    def test_copy_is_independent(self):
        t = Table.from_columns("t", {"x": [1]})
        clone = t.copy()
        clone.update_where(lit(True), {"x": lit(99)})
        clone.insert({"x": 2})
        t.insert({"x": 3})
        assert clone.column_values("x") == [99, 2]
        assert t.column_values("x") == [1, 3]

    def test_pretty_string_contains_header(self):
        t = Table.from_columns("t", {"alpha": [1, 2]})
        rendered = t.to_pretty_string()
        assert "alpha" in rendered
        assert "1" in rendered

    def test_truncate(self):
        t = Table.from_columns("t", {"x": [1, 2]})
        t.truncate()
        assert len(t) == 0


class TestVersionSemantics:
    """Pin the version/reorg_epoch contract the delta layer builds on.

    ``version`` moves exactly once per mutation that changed rows (a
    no-op mutation must NOT move it — version-keyed caches stay valid);
    ``reorg_epoch`` moves only on the non-append mutations, which is
    the signal :class:`repro.delta.AppendLog` uses to prove pure-append
    intervals.
    """

    def make(self):
        return Table.from_columns("t", {"x": [1, 2, 3]})

    def test_insert_many_bumps_once_per_batch(self):
        t = self.make()
        v = t.version
        t.insert_many([{"x": 4}, {"x": 5}, {"x": 6}])
        assert t.version == v + 1
        assert t.reorg_epoch == 0

    def test_insert_many_empty_batch_is_a_noop(self):
        t = self.make()
        v = t.version
        assert t.insert_many([]) == 0
        assert t.version == v

    def test_insert_many_is_atomic_on_bad_row(self):
        t = self.make()
        v = t.version
        with pytest.raises(SchemaError):
            t.insert_many([{"x": 7}, {"zz": 1}])
        assert len(t) == 3 and t.version == v

    def test_delete_where_bumps_only_on_removal(self):
        t = self.make()
        v, e = t.version, t.reorg_epoch
        assert t.delete_where(lit(False)) == 0
        assert t.version == v and t.reorg_epoch == e
        assert t.delete_where(col("x") == lit(2)) == 1
        assert t.version == v + 1 and t.reorg_epoch == e + 1

    def test_update_where_bumps_only_on_match(self):
        t = self.make()
        v, e = t.version, t.reorg_epoch
        assert t.update_where(lit(False), {"x": lit(0)}) == 0
        assert t.version == v and t.reorg_epoch == e
        assert t.update_where(col("x") == lit(1), {"x": lit(9)}) == 1
        assert t.version == v + 1 and t.reorg_epoch == e + 1

    def test_update_where_is_atomic_on_a_bad_value(self):
        t = Table("t", Schema.of(x=int, s=str))
        t.insert_many([{"x": 1, "s": "5"}, {"x": 2, "s": "six"}])
        v, e = t.version, t.reorg_epoch
        # The first row coerces; the second fails, so neither changes.
        with pytest.raises(SchemaError, match="'six'"):
            t.update_where(lit(True), {"x": col("s")})
        assert t.column_values("x") == [1, 2]
        assert t.version == v and t.reorg_epoch == e

    def test_truncate_bumps_only_when_nonempty(self):
        t = self.make()
        v, e = t.version, t.reorg_epoch
        t.truncate()
        assert t.version == v + 1 and t.reorg_epoch == e + 1
        t.truncate()  # already empty: no-op
        assert t.version == v + 1 and t.reorg_epoch == e + 1

    def test_single_insert_bumps_version_not_epoch(self):
        t = self.make()
        v = t.version
        t.insert({"x": 10})
        assert t.version == v + 1 and t.reorg_epoch == 0
