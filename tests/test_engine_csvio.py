"""Tests for CSV import/export and EXPLAIN."""

from __future__ import annotations

import pytest

from repro.engine import Database, Schema, Table, table_from_csv, table_to_csv
from repro.errors import SchemaError


class TestCsvRoundtrip:
    def test_roundtrip_preserves_data(self, tmp_path):
        table = Table.from_rows(
            "t",
            [
                {"pid": 1, "score": 2.5, "name": "ann", "ok": True},
                {"pid": 2, "score": 3.5, "name": "bob", "ok": False},
            ],
        )
        path = tmp_path / "t.csv"
        written = table_to_csv(table, path)
        assert written == 2
        back = table_from_csv("t", path)
        assert back.column_values("pid") == [1, 2]
        assert back.column_values("score") == [2.5, 3.5]
        assert back.column_values("name") == ["ann", "bob"]
        assert back.column_values("ok") == [True, False]

    def test_none_roundtrips_as_null(self, tmp_path):
        table = Table("t", Schema.of(x=int, y=float))
        table.insert({"x": 1, "y": None})
        path = tmp_path / "t.csv"
        table_to_csv(table, path)
        back = table_from_csv("t", path, schema=Schema.of(x=int, y=float))
        assert back.rows[0] == {"x": 1, "y": None}

    def test_empty_string_distinct_from_null(self, tmp_path):
        # Regression: NULL used to be written as an empty field, so a
        # genuine "" in a str column came back as None.
        table = Table("t", Schema.of(pid=int, name=str))
        table.insert({"pid": 1, "name": ""})
        table.insert({"pid": 2, "name": None})
        table.insert({"pid": 3, "name": "x"})
        path = tmp_path / "t.csv"
        table_to_csv(table, path)
        back = table_from_csv("t", path, schema=Schema.of(pid=int, name=str))
        assert back.column_values("name") == ["", None, "x"]

    def test_null_marker_lookalikes_escape(self, tmp_path):
        # Literal "\N" (and deeper escapes) must survive as strings and
        # not collide with the NULL marker.
        values = ["\\N", "\\\\N", None, "N", "\\n"]
        table = Table("t", Schema.of(s=str))
        for v in values:
            table.insert({"s": v})
        path = tmp_path / "t.csv"
        table_to_csv(table, path)
        back = table_from_csv("t", path, schema=Schema.of(s=str))
        assert back.column_values("s") == values

    def test_legacy_empty_field_still_null_for_typed_columns(self, tmp_path):
        path = tmp_path / "legacy.csv"
        path.write_text("x,s\n,\n")
        back = table_from_csv("t", path, schema=Schema.of(x=int, s=str))
        assert back.rows[0] == {"x": None, "s": ""}

    def test_type_inference(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,1.5,x\n2,2,y\n")
        table = table_from_csv("t", path)
        assert table.schema.column("a").dtype is int
        assert table.schema.column("b").dtype is float
        assert table.schema.column("c").dtype is str

    def test_explicit_schema_coerces(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a\n1\n2\n")
        table = table_from_csv("t", path, schema=Schema.of(a=float))
        assert table.column_values("a") == [1.0, 2.0]
        assert table.version == 1  # one batch

    def test_bad_field_raises_the_first_in_row_order(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,x\ny,4\n")
        schema = Schema.of(a=int, b=int)
        with pytest.raises(SchemaError, match="'x'"):
            table_from_csv("t", path, schema=schema)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            table_from_csv("t", path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(SchemaError):
            table_from_csv("t", path)


class TestDatabaseCsv:
    def test_load_and_query(self, tmp_path):
        path = tmp_path / "people.csv"
        path.write_text("pid,age\n1,30\n2,40\n3,50\n")
        db = Database()
        db.load_csv("people", path)
        assert db.sql("SELECT COUNT(*) AS n FROM people WHERE age > 35")[0][
            "n"
        ] == 2

    def test_dump(self, tmp_path):
        db = Database()
        db.sql("CREATE TABLE t (x int)")
        db.sql("INSERT INTO t VALUES (1), (2)")
        path = tmp_path / "out.csv"
        assert db.dump_csv("t", path) == 2
        assert path.read_text().splitlines()[0] == "x"


class TestExplain:
    def test_explain_shows_pushdown(self, people_db):
        people_db.create_table("flag", Schema.of(pid=int, tag=str))
        people_db.table("flag").insert({"pid": 1, "tag": "x"})
        people_db.analyze()
        text = people_db.explain(
            "SELECT p.pid FROM person p JOIN flag f ON p.pid = f.pid "
            "WHERE f.tag = 'x'"
        )
        assert "Join" in text
        assert "Filter" in text
        # The filter line should be *below* (indented deeper than) the
        # join line after pushdown.
        lines = text.splitlines()
        join_indent = min(
            len(l) - len(l.lstrip()) for l in lines if "Join" in l
        )
        filter_indent = min(
            len(l) - len(l.lstrip()) for l in lines if "Filter" in l
        )
        assert filter_indent > join_indent
