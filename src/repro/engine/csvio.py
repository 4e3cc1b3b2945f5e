"""CSV import/export for tables.

Splash-style loose coupling means "models communicate by reading and
writing datasets" — in practice, files.  These helpers move tables
between the relational engine and CSV files so component models can be
driven by real artifacts on disk.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.errors import SchemaError

PathLike = Union[str, Path]

#: Field marker for SQL ``NULL``.  ``None`` used to be written as an
#: empty field, which made a genuine ``""`` in a ``str`` column
#: indistinguishable from NULL on the way back in.
NULL_MARKER = "\\N"

#: Strings that would collide with the NULL marker after unescaping
#: (``\N``, ``\\N``, ...) are written with one extra leading backslash.
_NULL_LIKE = re.compile(r"^\\+N$")


def _encode_field(value: Any) -> Any:
    if value is None:
        return NULL_MARKER
    if isinstance(value, str) and _NULL_LIKE.match(value):
        return "\\" + value
    return value


def _decode_field(value: str, declared: Optional[type]) -> Optional[str]:
    if value == NULL_MARKER:
        return None
    if value == "":
        # Empty fields stay "" for str columns; for typed columns they
        # keep meaning NULL (and legacy files encoded NULL this way).
        return "" if declared is str else None
    if _NULL_LIKE.match(value):
        return value[1:]
    return value


def table_to_csv(table: Table, path: PathLike) -> int:
    """Write a table to ``path`` (header + one row per tuple).

    ``None`` values are written as ``\\N`` so that an empty string in a
    ``str`` column survives the round-trip.  Returns the number of rows
    written.
    """
    path = Path(path)
    names = list(table.schema.names)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        count = 0
        for row in table:
            writer.writerow([_encode_field(row[n]) for n in names])
            count += 1
    return count


def table_from_csv(
    name: str,
    path: PathLike,
    schema: Optional[Schema] = None,
) -> Table:
    """Read a table from a CSV file with a header row.

    With an explicit ``schema``, values are coerced to the declared
    types.  ``\\N`` fields become ``None``; empty fields stay ``""``
    for ``str`` columns and become ``None`` for typed columns (the
    legacy NULL encoding).  Without a schema, types are inferred per
    column: ``int`` if every non-null value parses as an integer, else
    ``float``, else ``bool``, else ``str``.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty (no header row)") from None
        raw_rows = [row for row in reader if row]
    if not header:
        raise SchemaError(f"{path} has an empty header row")
    for row in raw_rows:
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: row with {len(row)} fields, header has "
                f"{len(header)}"
            )

    if schema is None:
        schema = _infer_schema(header, raw_rows)

    table = Table(name, schema)
    dtypes = {column.name: column.dtype for column in schema.columns}
    table.insert_many(
        {
            column_name: _decode_field(value, dtypes.get(column_name))
            for column_name, value in zip(header, raw)
        }
        for raw in raw_rows
    )
    return table


def _infer_schema(header: Sequence[str], rows: Sequence[Sequence[str]]) -> Schema:
    spec = {}
    for index, column_name in enumerate(header):
        values = [
            row[index]
            for row in rows
            if row[index] not in ("", NULL_MARKER)
        ]
        spec[column_name] = _infer_type(values)
    return Schema.from_spec(spec)


def _infer_type(values: Sequence[str]) -> str:
    if not values:
        return "str"
    if all(_parses_as_int(v) for v in values):
        return "int"
    if all(_parses_as_float(v) for v in values):
        return "float"
    if all(v.lower() in ("true", "false") for v in values):
        return "bool"
    return "str"


def _parses_as_int(value: str) -> bool:
    try:
        int(value)
        return True
    except ValueError:
        return False


def _parses_as_float(value: str) -> bool:
    try:
        float(value)
        return True
    except ValueError:
        return False
