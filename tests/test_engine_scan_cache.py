"""The scan cache the columnar executor reads.

``Table.column_batch`` keeps a table's columnar form in one slot and,
after pure appends, converts only the new rows.  The oracles are a fresh
``ColumnBatch.from_table`` (the uncached conversion, compared column by
column: kind, dtype, values and validity) and the row executor.
"""

from __future__ import annotations

import pickle
import re
import sys
import threading

import pytest

import repro.engine.table as table_module
from repro.engine import Database, Schema, Table
from repro.engine.columnar import EXACT_INT_BOUND, ColumnBatch
from repro.ensemble.store import result_fingerprint

from tests.test_engine_columnar import CORPUS, nullful_db, plant_row  # noqa: F401

SCHEMA = Schema.of(i=int, x=float, s=str, b=bool)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


def _rows(start, n):
    return [
        {
            "i": k if k % 4 else None,
            "x": k / 8 if k % 3 else None,
            "s": ("a", "b", None)[k % 3],
            "b": (True, False, None)[k % 3],
        }
        for k in range(start, start + n)
    ]


def _null_rows(n):
    return [{"i": None, "x": None, "s": None, "b": None}] * n


def assert_same_batch(got: ColumnBatch, want: ColumnBatch) -> None:
    assert got.length == want.length
    assert list(got.columns) == list(want.columns)
    for name, vec in want.columns.items():
        other = got.columns[name]
        assert other.kind == vec.kind, name
        assert other.values.dtype == vec.values.dtype, name
        assert other.values.tolist() == vec.values.tolist(), name
        assert other.valid.tolist() == vec.valid.tolist(), name


def _converted_lengths(monkeypatch):
    """Record how many values each column conversion receives."""
    lengths = []
    real = table_module.vector_from_typed

    def counting(values, dtype):
        lengths.append(len(values))
        return real(values, dtype)

    monkeypatch.setattr(table_module, "vector_from_typed", counting)
    return lengths


class TestColumnBatch:
    def test_appends_convert_only_new_rows(self, monkeypatch):
        table = Table("t", SCHEMA, _rows(0, 50))
        lengths = _converted_lengths(monkeypatch)
        assert_same_batch(table.column_batch(), ColumnBatch.from_table(table))
        assert lengths == [50] * 4
        lengths.clear()
        table.insert_many(_rows(50, 7))
        table.insert(_rows(57, 1)[0])
        assert_same_batch(table.column_batch(), ColumnBatch.from_table(table))
        assert lengths == [8] * 4

    def test_unchanged_table_is_served_from_the_cache(self, monkeypatch):
        table = Table("t", SCHEMA, _rows(0, 10))
        first = table.column_batch()
        lengths = _converted_lengths(monkeypatch)
        assert table.column_batch() is first
        assert lengths == []

    def test_all_null_tail(self):
        table = Table("t", SCHEMA, _rows(0, 12))
        table.column_batch()
        table.insert_many(_null_rows(5))
        assert_same_batch(table.column_batch(), ColumnBatch.from_table(table))

    def test_append_onto_empty_table(self):
        table = Table("t", SCHEMA)
        assert table.column_batch().length == 0
        table.insert_many(_rows(0, 6))
        assert_same_batch(table.column_batch(), ColumnBatch.from_table(table))

    def test_int_tail_beyond_exact_bound_turns_column_to_object(self):
        table = Table("t", SCHEMA, _rows(0, 9))
        assert table.column_batch().columns["i"].kind == "int"
        big = dict(_rows(9, 1)[0], i=EXACT_INT_BOUND + 1)
        table.insert(big)
        batch = table.column_batch()
        assert batch.columns["i"].kind == "object"
        assert batch.columns["x"].kind == "float"
        assert_same_batch(batch, ColumnBatch.from_table(table))
        # An object column stays object when an in-range tail follows.
        table.insert_many(_rows(10, 4) + _null_rows(2))
        batch = table.column_batch()
        assert batch.columns["i"].kind == "object"
        assert_same_batch(batch, ColumnBatch.from_table(table))

    @pytest.mark.parametrize("mutation", ["delete", "update", "truncate"])
    def test_non_append_mutations_rebuild(self, mutation, monkeypatch):
        db = Database()
        table = db.create_table("t", SCHEMA, _rows(0, 30))
        table.column_batch()
        # Delete and truncate are followed by appends that leave the table
        # longer than the cached batch: only the epoch rules out a tail
        # conversion.
        if mutation == "delete":
            db.sql("DELETE FROM t WHERE x > 1")
            table.insert_many(_rows(100, 36 - len(table)))
        elif mutation == "update":
            db.sql("UPDATE t SET s = 'z', x = 0.5 WHERE i > 10")
        else:
            table.truncate()
            table.insert_many(_rows(200, 36))
        lengths = _converted_lengths(monkeypatch)
        assert_same_batch(table.column_batch(), ColumnBatch.from_table(table))
        assert lengths == [len(table)] * 4

    def test_cached_arrays_are_read_only(self):
        table = Table("t", SCHEMA, _rows(0, 8))
        built = table.column_batch()
        table.insert_many(_rows(8, 3))
        for batch in (built, table.column_batch()):
            for vec in batch.columns.values():
                with pytest.raises(ValueError):
                    vec.values[0] = vec.values[1]
                with pytest.raises(ValueError):
                    vec.valid[0] = False

    def test_pickled_table_ships_without_the_cache(self):
        table = Table("t", SCHEMA, _rows(0, 40))
        cold = len(pickle.dumps(table))
        table.column_batch()
        assert len(pickle.dumps(table)) == cold
        clone = pickle.loads(pickle.dumps(table))
        assert_same_batch(clone.column_batch(), ColumnBatch.from_table(table))


class TestStringDictionary:
    def test_append_extends_the_dictionary_and_keeps_codes(self):
        # First-appearance order, not sorted order.
        table = Table("t", SCHEMA, _rows(1, 9))
        before = table.column_batch().columns["s"]
        assert before.kind == "str"
        assert before.dictionary.tolist() == ["b", "a"]
        table.insert_many(
            [dict(row, s=s) for row, s in zip(_rows(10, 3), ("c", "a", None))]
        )
        after = table.column_batch().columns["s"]
        assert after.dictionary.tolist() == ["b", "a", "c"]
        assert after.values[:9].tolist() == before.values.tolist()
        assert after.values[9:].tolist() == [2, 1, -1]
        fresh = ColumnBatch.from_table(table).columns["s"]
        assert after.dictionary.tolist() == fresh.dictionary.tolist()
        assert_same_batch(table.column_batch(), ColumnBatch.from_table(table))
        with pytest.raises(ValueError):
            after.dictionary[0] = "z"

    @pytest.mark.parametrize("odd", [7, type("Tag", (str,), {})("a")])
    def test_non_exact_strings_stay_object(self, odd, nullful_db):
        person = nullful_db.table("person")
        assert person.column_batch().columns["region"].kind == "str"
        row = dict(person.rows[1], pid=500, region=odd)
        if isinstance(odd, str):
            person.insert(row)  # coercion keeps a str subclass as it is
        else:
            plant_row(person, row)
        batch = person.column_batch()
        assert batch.columns["region"].kind == "object"
        assert_same_batch(batch, ColumnBatch.from_table(person))
        for sql in CORPUS:
            try:
                want = result_fingerprint(nullful_db.sql(sql, execution="row"))
            except TypeError as exc:
                with pytest.raises(TypeError, match=re.escape(str(exc))):
                    nullful_db.sql(sql, execution="columnar")
                continue
            got = nullful_db.sql(sql, execution="columnar")
            assert result_fingerprint(got) == want, sql


def _appended_person_rows(start, n):
    return [
        {
            "pid": start + i,
            "age": None if i % 3 == 0 else (start + i) % 90,
            "region": ("east", None, "north", "west")[i % 4],
            "income": None if i % 5 == 1 else 1000.0 * i + 0.25,
        }
        for i in range(n)
    ]


class TestExecutorsAfterAppends:
    def test_sql_matches_row_executor_after_appends(self, nullful_db):
        person = nullful_db.table("person")
        for step in range(3):
            got = [nullful_db.sql(sql, execution="columnar") for sql in CORPUS]
            want = [nullful_db.sql(sql, execution="row") for sql in CORPUS]
            assert result_fingerprint(got) == result_fingerprint(want)
            person.insert_many(_appended_person_rows(1000 + 10 * step, 5))
            person.insert(_appended_person_rows(2000 + step, 1)[0])

    def test_sql_matches_row_executor_after_mutations(self, nullful_db):
        nullful_db.sql("SELECT pid FROM person", execution="columnar")
        nullful_db.sql("DELETE FROM person WHERE age > 50")
        nullful_db.sql("UPDATE person SET income = 1.5 WHERE pid < 10")
        got = [nullful_db.sql(sql, execution="columnar") for sql in CORPUS]
        want = [nullful_db.sql(sql, execution="row") for sql in CORPUS]
        assert result_fingerprint(got) == result_fingerprint(want)


def test_threads_share_a_cold_cache():
    """Eight threads scan one table whose cache starts cold.

    Each slot write is one tuple, so a reader either sees a whole entry
    or none; every answer must equal the row executor's.
    """
    db = Database()
    db.create_table(
        "person", Schema.of(pid=int, age=int, region=str, income=float)
    )
    db.table("person").insert_many(_appended_person_rows(0, 3000))
    queries = [
        "SELECT region, count(*) AS n, sum(income) AS s FROM person "
        "GROUP BY region",
        "SELECT pid, age FROM person WHERE age > 40 AND income < 900000",
        "SELECT count(*) AS n, avg(age) AS a FROM person",
    ]
    want = [result_fingerprint(db.sql(q, execution="row")) for q in queries]
    threads_n, rounds = 8, 6
    results = [[] for _ in range(threads_n)]
    errors = []
    start = threading.Barrier(threads_n)

    def worker(slot):
        try:
            start.wait(timeout=30)
            for r in range(rounds):
                q = (slot + r) % len(queries)
                got = db.sql(queries[q], execution="columnar")
                results[slot].append((q, result_fingerprint(got)))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    for per_thread in results:
        assert len(per_thread) == rounds
        for q, fingerprint in per_thread:
            assert fingerprint == want[q]
    table = db.table("person")
    assert_same_batch(table.column_batch(), ColumnBatch.from_table(table))


def test_scans_beside_a_writer_see_whole_states():
    """One thread appends and deletes while four others scan.

    Every state the writer publishes holds the pids ``lo..hi`` once each,
    in order, with ``x = pid / 2`` and ``g = pid % 5``.  A scan that
    mixed two states' lists, or a list with another state's length,
    would break one of those, in either executor or in ``Table.rows``.
    """
    db = Database()
    table = db.create_table("t", Schema.of(pid=int, x=float, g=int))

    def batch(lo, n):
        return [{"pid": p, "x": p / 2, "g": p % 5} for p in range(lo, lo + n)]

    table.insert_many(batch(0, 200))
    rounds, step, readers_n = 120, 40, 4
    done = threading.Event()
    errors = []
    scans = [0] * readers_n

    def check(rows):
        pids = [row["pid"] for row in rows]
        assert 200 <= len(pids) <= 200 + step
        assert pids == list(range(pids[0], pids[0] + len(pids)))
        assert all(
            row["x"] == row["pid"] / 2 and row["g"] == row["pid"] % 5
            for row in rows
        )

    def writer():
        try:
            lo, hi = 0, 200
            for r in range(rounds):
                if r % 2:
                    table.insert_many(batch(hi, step))
                else:
                    for row in batch(hi, step):
                        table.insert(row)
                hi += step
                lo += step
                db.sql(f"DELETE FROM t WHERE pid < {lo}")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            done.set()

    def reader(slot):
        try:
            while not done.is_set() or not scans[slot]:
                mode = ("columnar", "row")[scans[slot] % 2]
                check(db.sql("SELECT pid, x, g FROM t", execution=mode))
                agg = db.sql(
                    "SELECT count(*) AS n, min(pid) AS lo, max(pid) AS hi, "
                    "sum(x) AS s FROM t",
                    execution=mode,
                )[0]
                assert agg["n"] == agg["hi"] - agg["lo"] + 1
                assert agg["s"] == sum(p / 2 for p in range(agg["lo"], agg["hi"] + 1))
                check(table.rows)
                scans[slot] += 1
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(i,)) for i in range(readers_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    assert all(scans)
    assert len(table) == 200
    assert_same_batch(table.column_batch(), ColumnBatch.from_table(table))
