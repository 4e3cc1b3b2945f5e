"""Relation schemas for the in-process relational engine.

Rows enter and leave the engine as plain ``dict`` objects keyed by column
name (a table stores them a column at a time); the :class:`Schema` records
declared column names/types, validates inserted rows, and coerces values.
Types are deliberately coarse (int, float, str, bool) — enough to support
the MCDB, SimSQL and Indemics workloads the paper describes without
reimplementing a full SQL type system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Tuple

from repro.errors import SchemaError

_TYPE_NAMES: Dict[str, type] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": bool,
}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    dtype: type = float

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"invalid column name: {self.name!r}")
        if self.dtype not in (int, float, str, bool):
            raise SchemaError(
                f"unsupported column type {self.dtype!r} for {self.name!r}"
            )

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this column's type (``None`` passes through)."""
        if value is None:
            return None
        if isinstance(value, self.dtype) and not (
            self.dtype is int and isinstance(value, bool)
        ):
            return value
        try:
            if self.dtype is bool and isinstance(value, str):
                return value.lower() in ("true", "t", "1", "yes")
            return self.dtype(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"cannot coerce {value!r} to {self.dtype.__name__} "
                f"for column {self.name!r}"
            ) from exc


class Schema:
    """An ordered collection of :class:`Column` objects.

    Examples
    --------
    >>> schema = Schema.of(pid=int, age=int, name=str)
    >>> schema.names
    ('pid', 'age', 'name')
    """

    def __init__(self, columns: Iterable[Column]) -> None:
        cols = list(columns)
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self._columns: Tuple[Column, ...] = tuple(cols)
        self._by_name: Dict[str, Column] = {c.name: c for c in cols}

    @classmethod
    def of(cls, **columns: type) -> "Schema":
        """Build a schema from ``name=type`` keyword arguments."""
        return cls(Column(name, dtype) for name, dtype in columns.items())

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "Schema":
        """Build a schema from a ``{name: type-or-typename}`` mapping."""
        cols = []
        for name, dtype in spec.items():
            if isinstance(dtype, str):
                if dtype not in _TYPE_NAMES:
                    raise SchemaError(f"unknown type name {dtype!r}")
                dtype = _TYPE_NAMES[dtype]
            cols.append(Column(name, dtype))
        return cls(cols)

    @property
    def columns(self) -> Tuple[Column, ...]:
        """The ordered columns."""
        return self._columns

    @property
    def names(self) -> Tuple[str, ...]:
        """Column names in declaration order."""
        return tuple(c.name for c in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{c.name}: {c.dtype.__name__}" for c in self._columns
        )
        return f"Schema({inner})"

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; schema has {list(self.names)}"
            ) from None

    def validate_row(self, row: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate and coerce a row mapping against this schema.

        Missing columns become ``None``; unexpected keys raise.
        """
        extra = set(row) - set(self._by_name)
        if extra:
            raise SchemaError(
                f"row has unknown columns {sorted(extra)}; "
                f"schema has {list(self.names)}"
            )
        return {
            c.name: c.coerce(row.get(c.name)) for c in self._columns
        }

    def rename(self, mapping: Mapping[str, str]) -> "Schema":
        """Return a schema with columns renamed per ``mapping``."""
        return Schema(
            Column(mapping.get(c.name, c.name), c.dtype)
            for c in self._columns
        )

    def prefixed(self, prefix: str) -> "Schema":
        """Return a schema with every column name prefixed ``prefix.name``."""
        return Schema(
            Column(f"{prefix}.{c.name}", c.dtype) for c in self._columns
        )

    def project(self, names: Iterable[str]) -> "Schema":
        """Return the sub-schema for ``names`` (in the given order)."""
        return Schema(self.column(n) for n in names)
