"""Columnar (batch-at-a-time) values for the relational engine.

The row executor evaluates expressions one ``dict`` row at a time; the
columnar mode introduced here evaluates them over whole columns at once:
a :class:`ColumnVector` pairs a NumPy array of values with a boolean
*validity mask* (``False`` marks SQL ``NULL``), and a
:class:`ColumnBatch` is an ordered set of equal-length vectors — one
relation's worth of tuples.

The contract with the row engine is *byte identity*: converting a batch
back to rows must produce exactly the values the row-at-a-time
interpreter would have produced, ``None`` placement, Python types and
float bit patterns included.  That drives several representation rules:

* ``int`` columns use ``int64`` only while every magnitude stays within
  2**53 (exactly representable as ``float64``); beyond that, mixed
  int/float arithmetic and comparisons would round where Python computes
  exactly, so such columns fall back to ``object`` dtype.
* Mixed-type columns (``int`` with ``float``, ``bool`` with ``int``,
  …) stay ``object`` dtype holding the original Python values.
* A schema-typed ``str`` column whose values are all exactly ``str``
  takes the ``str`` kind: int32 codes into a per-column dictionary of
  the distinct strings in first-appearance order.  Comparisons, ``IN``,
  group and join keys and sorts run on the codes (or on the dictionary's
  ranks in ``sorted()`` order); every other operator turns the vector
  into the ``object`` form first, so its results and errors are the
  row engine's.
* Vectorized operators replicate the row engine's null semantics
  (null-safe arithmetic/comparison, three-valued AND/OR) and its error
  behaviour (``ZeroDivisionError`` on any evaluated division by zero,
  ``math domain error`` for ``sqrt``/``log`` out of domain).

Anything a vectorized operator cannot replicate exactly is simply not
vectorized — the executor (:class:`repro.engine.operators
.ColumnarExecutor`) falls back to row mode for that plan node.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import QueryError

__all__ = [
    "ColumnVector",
    "ColumnBatch",
    "vector_from_values",
    "vector_from_typed",
    "vector_from_scalar",
    "all_null",
    "concat_vectors",
    "keep_mask",
]

#: Largest integer magnitude an ``int64`` column may hold (see module
#: docstring); also the bound under which ``float64`` round-trips ints.
EXACT_INT_BOUND = 2 ** 53

#: Overflow guard for int64 arithmetic: operand magnitudes whose sum or
#: product exceeds this bound route through exact Python integers.
_INT64_SAFE = 2 ** 62

_FILLER = {"bool": False, "int": 0, "float": 0.0}

_NUMERIC_KINDS = ("bool", "int", "float")


class ColumnVector:
    """One column of values plus a validity mask.

    ``kind`` is ``"bool"``, ``"int"``, ``"float"``, ``"str"`` or
    ``"object"``.  Invariants: numeric/boolean vectors hold a neutral
    filler (``0``, ``0.0``, ``False``) at invalid slots; object vectors
    hold ``None`` there and the original Python objects elsewhere.  A
    ``str`` vector's ``values`` are int32 codes into ``dictionary`` (an
    object array of distinct, exactly-``str`` entries), ``-1`` at invalid
    slots; ``dictionary`` is ``None`` for every other kind.
    """

    __slots__ = ("kind", "values", "valid", "dictionary")

    def __init__(
        self,
        kind: str,
        values: np.ndarray,
        valid: np.ndarray,
        dictionary: Optional[np.ndarray] = None,
    ) -> None:
        self.kind = kind
        self.values = values
        self.valid = valid
        self.dictionary = dictionary

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __repr__(self) -> str:
        return f"ColumnVector({self.kind}, n={len(self)})"

    def take(self, indexer: np.ndarray) -> "ColumnVector":
        """Select rows by boolean mask or integer index array."""
        return ColumnVector(
            self.kind, self.values[indexer], self.valid[indexer],
            self.dictionary,
        )

    def to_pylist(self) -> List[Any]:
        """The column as Python scalars, ``None`` at invalid slots.

        ``ndarray.tolist`` converts ``int64``/``float64``/``bool_`` to
        the exact native Python values, which is what makes batch output
        byte-identical to row output.
        """
        if self.kind == "object":
            return list(self.values)
        if self.kind == "str":
            return _decoded(self).tolist()
        values = self.values.tolist()
        if bool(self.valid.all()):
            return values
        return [
            v if ok else None
            for v, ok in zip(values, self.valid.tolist())
        ]


def all_null(n: int) -> "ColumnVector":
    """A length-``n`` all-NULL vector."""
    return ColumnVector(
        "object", np.empty(n, dtype=object), np.zeros(n, dtype=bool)
    )


def _object_array(items: Sequence[Any]) -> np.ndarray:
    arr = np.empty(len(items), dtype=object)
    arr[:] = items
    return arr


def _object_vector(values: Sequence[Any]) -> ColumnVector:
    n = len(values)
    arr = _object_array(values)
    # ``in`` scans by identity first, so the common all-present case is
    # a C-speed pass with no per-element Python comparisons.
    if None in values:
        valid = np.array([v is not None for v in values], dtype=bool)
    else:
        valid = np.ones(n, dtype=bool)
    return ColumnVector("object", arr, valid)


_STR_OR_NONE = frozenset({str, type(None)})


def _str_vector(values: Sequence[Any]) -> ColumnVector:
    """Dictionary-code a column of exact ``str``/``None`` values.

    Entries are numbered in first-appearance order, so coding an appended
    tail only adds entries.  Any other value (a ``str`` subclass, a
    non-string planted in a table's column lists) keeps the ``object``
    kind, whose elementwise paths replicate the row engine for anything.
    """
    if not _STR_OR_NONE.issuperset(map(type, values)):
        return _object_vector(values)
    entries = [v for v in dict.fromkeys(values) if v is not None]
    index: Dict[Any, int] = {v: i for i, v in enumerate(entries)}
    index[None] = -1
    codes = np.fromiter(
        map(index.__getitem__, values), dtype=np.int32, count=len(values)
    )
    return ColumnVector("str", codes, codes >= 0, _object_array(entries))


def _per_row(
    vec: ColumnVector, per_entry: List[Any], null: Any, dtype: Any
) -> np.ndarray:
    """Spread one value per dictionary entry of a ``str`` vector to its rows.

    NULL rows (code -1) read the extra last slot, ``null``.
    """
    return np.array(per_entry + [null], dtype=dtype)[vec.values]


def _decoded(vec: ColumnVector) -> np.ndarray:
    """A ``str`` vector's values as an object array, ``None`` at NULL."""
    return _per_row(vec, vec.dictionary.tolist(), None, object)


def _as_object(vec: ColumnVector) -> ColumnVector:
    """The ``object`` form of a ``str`` vector; other kinds unchanged."""
    if vec.kind != "str":
        return vec
    return ColumnVector("object", _decoded(vec), vec.valid)


def _entry_table(vec: ColumnVector, fn: Callable[[str], bool]) -> np.ndarray:
    """``fn`` of each row's string, evaluated once per dictionary entry.

    NULL rows read ``False``.
    """
    per_entry = [fn(s) for s in vec.dictionary.tolist()]
    return _per_row(vec, per_entry, False, bool)


def str_ranks(*vectors: ColumnVector) -> List[np.ndarray]:
    """Per-row ranks of ``str`` vectors in one shared ``sorted()`` order.

    The ranks run over the union of the vectors' dictionaries, so
    comparing two rows' ranks answers what comparing their strings with
    Python's ``<``/``==`` would.  NULL rows get -1.
    """
    union = sorted(set().union(*(v.dictionary.tolist() for v in vectors)))
    position = {s: i for i, s in enumerate(union)}
    return [
        _per_row(
            vec, [position[s] for s in vec.dictionary.tolist()], -1, np.int64
        )
        for vec in vectors
    ]


def _classify(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "bool"
    if isinstance(value, (int, np.integer)):
        return "int"
    if isinstance(value, (float, np.floating)):
        return "float"
    return "object"


def vector_from_values(values: Sequence[Any]) -> ColumnVector:
    """Build a vector from arbitrary Python values, inferring the kind.

    Only *homogeneous* bool/int/float columns take the packed NumPy
    representations; anything mixed keeps the original objects so the
    round-trip back to rows is lossless.
    """
    n = len(values)
    kinds = set()
    for v in values:
        if v is None:
            continue
        kind = _classify(v)
        kinds.add(kind)
        if kind == "object" or len(kinds) > 1:
            return _object_vector(values)
    if not kinds:
        return all_null(n)
    kind = kinds.pop()
    if kind == "int" and any(
        v is not None and not -EXACT_INT_BOUND <= v <= EXACT_INT_BOUND
        for v in values
    ):
        return _object_vector(values)
    return vector_from_typed(
        values, {"bool": bool, "int": int, "float": float}[kind]
    )


def vector_from_typed(values: Sequence[Any], dtype: type) -> ColumnVector:
    """Build a vector for a schema-typed column (``None`` allowed).

    ``dtype`` is one of the engine's column types (``int``, ``float``,
    ``bool``, ``str``); values are assumed already coerced.
    """
    n = len(values)
    if dtype is str:
        return _str_vector(values)
    has_null = None in values
    if has_null:
        valid = np.array([v is not None for v in values], dtype=bool)
    else:
        valid = np.ones(n, dtype=bool)
    if dtype is bool:
        if has_null:
            filled = np.array(
                [v is not None and bool(v) for v in values], dtype=bool
            )
        else:
            filled = np.array(values, dtype=bool)
        return ColumnVector("bool", filled, valid)
    if dtype is int:
        try:
            if has_null:
                filled = np.array(
                    [0 if v is None else v for v in values], dtype=np.int64
                )
            else:
                filled = np.array(values, dtype=np.int64)
        except OverflowError:
            return _object_vector(values)
        if n and (
            int(filled.max()) > EXACT_INT_BOUND
            or int(filled.min()) < -EXACT_INT_BOUND
        ):
            return _object_vector(values)
        return ColumnVector("int", filled, valid)
    if dtype is float:
        if has_null:
            filled = np.array(
                [0.0 if v is None else v for v in values], dtype=np.float64
            )
        else:
            filled = np.array(values, dtype=np.float64)
        return ColumnVector("float", filled, valid)
    return _object_vector(values)


def vector_from_scalar(value: Any, n: int) -> ColumnVector:
    """Broadcast one literal value to a length-``n`` vector."""
    if value is None:
        return all_null(n)
    kind = _classify(value)
    if kind == "int" and not -EXACT_INT_BOUND <= value <= EXACT_INT_BOUND:
        kind = "object"
    valid = np.ones(n, dtype=bool)
    if kind == "bool":
        return ColumnVector("bool", np.full(n, bool(value)), valid)
    if kind == "int":
        return ColumnVector(
            "int", np.full(n, int(value), dtype=np.int64), valid
        )
    if kind == "float":
        return ColumnVector(
            "float", np.full(n, float(value), dtype=np.float64), valid
        )
    if type(value) is str:
        return ColumnVector(
            "str", np.zeros(n, dtype=np.int32), valid,
            _object_array([value]),
        )
    arr = np.empty(n, dtype=object)
    arr.fill(value)
    return ColumnVector("object", arr, valid)


def concat_vectors(vectors: Sequence[ColumnVector]) -> ColumnVector:
    """Concatenate vectors, promoting kinds as a single batch would.

    Mixed kinds (e.g. an int vector followed by an all-null vector) are
    merged through the Python-value path, so the result's kind is exactly
    what ``vector_from_values`` would infer over the combined values —
    identical to never having split the batch.  ``str`` vectors keep
    their kind: each later dictionary is mapped into the first one's
    code space, which gains only the entries it lacked, so old codes
    never move.  An empty input yields an empty all-null vector (the
    zero-batch concatenation identity).
    """
    if not vectors:
        return all_null(0)
    kinds = {v.kind for v in vectors}
    if kinds == {"str"}:
        return _concat_str(vectors)
    if len(kinds) == 1 and "object" not in kinds:
        return ColumnVector(
            vectors[0].kind,
            np.concatenate([v.values for v in vectors]),
            np.concatenate([v.valid for v in vectors]),
        )
    merged: List[Any] = []
    for v in vectors:
        merged.extend(v.to_pylist())
    return vector_from_values(merged)


def _concat_str(vectors: Sequence[ColumnVector]) -> ColumnVector:
    index = {s: i for i, s in enumerate(vectors[0].dictionary.tolist())}
    codes = [vectors[0].values]
    for vec in vectors[1:]:
        remap = [
            index.setdefault(s, len(index)) for s in vec.dictionary.tolist()
        ]
        codes.append(_per_row(vec, remap, -1, np.int32))
    return ColumnVector(
        "str",
        np.concatenate(codes),
        np.concatenate([v.valid for v in vectors]),
        _object_array(list(index)),
    )


def keep_mask(vec: ColumnVector) -> np.ndarray:
    """Row-keeping mask replicating the executor's ``is True`` filter.

    The row engine keeps a row only when the predicate evaluates to the
    literal ``True`` — truthy non-booleans (``1``, ``"x"``) are dropped.
    """
    if vec.kind == "bool":
        return vec.valid & vec.values
    if vec.kind == "object":
        n = len(vec)
        return np.fromiter(
            (v is True for v in vec.values), dtype=bool, count=n
        )
    return np.zeros(len(vec), dtype=bool)


# ---------------------------------------------------------------------------
# Vectorized scalar operators
# ---------------------------------------------------------------------------


def _elementwise(
    fn: Callable[..., Any], *vectors: ColumnVector
) -> ColumnVector:
    """Evaluate ``fn`` per element over Python values (exact fallback).

    ``fn`` is the row engine's own (null-safe) scalar function, so this
    path is row-identical by construction — it is the escape hatch for
    object-dtype operands and precision edge cases.
    """
    columns = [v.to_pylist() for v in vectors]
    return vector_from_values([fn(*items) for items in zip(*columns)])


def _as_numeric(vec: ColumnVector) -> np.ndarray:
    """A vector's packed values with bools widened to int64.

    Python treats ``True`` as ``1`` in arithmetic while NumPy's ``bool_``
    arithmetic saturates (``True + True == True``), so booleans must be
    widened before any arithmetic.
    """
    if vec.kind == "bool":
        return vec.values.astype(np.int64)
    return vec.values


def _int_magnitude(values: np.ndarray) -> int:
    if values.size == 0:
        return 0
    return int(np.abs(values).max())


def arith(
    op: str, fallback: Callable[[Any, Any], Any],
    a: ColumnVector, b: ColumnVector,
) -> ColumnVector:
    """Null-safe vectorized ``+ - * / %`` matching Python semantics."""
    a, b = _as_object(a), _as_object(b)
    if a.kind == "object" or b.kind == "object":
        return _elementwise(fallback, a, b)
    valid = a.valid & b.valid
    av = _as_numeric(a)
    bv = _as_numeric(b)
    any_float = a.kind == "float" or b.kind == "float"
    if op == "/":
        if bool(np.any(valid & (bv == 0))):
            raise ZeroDivisionError("division by zero")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.true_divide(av, bv)
        return ColumnVector("float", np.where(valid, out, 0.0), valid)
    if op == "%":
        if bool(np.any(valid & (bv == 0))):
            raise ZeroDivisionError("integer division or modulo by zero")
        out = np.remainder(av, bv)
        if any_float:
            return ColumnVector("float", np.where(valid, out, 0.0), valid)
        return ColumnVector("int", np.where(valid, out, 0), valid)
    # + - *
    if not any_float:
        ma, mb = _int_magnitude(av), _int_magnitude(bv)
        too_big = (
            ma * mb > _INT64_SAFE if op == "*" else ma + mb > _INT64_SAFE
        )
        if too_big:
            # Exact arbitrary-precision integers, like the row engine.
            return _elementwise(fallback, a, b)
    fn = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
    out = fn(av, bv)
    kind = "float" if any_float else "int"
    return ColumnVector(kind, np.where(valid, out, _FILLER[kind]), valid)


_COMPARE_FN = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def compare(
    op: str, fallback: Callable[[Any, Any], Any],
    a: ColumnVector, b: ColumnVector,
) -> ColumnVector:
    """Null-safe vectorized comparison."""
    if a.kind == "str" and b.kind == "str":
        return _compare_str(op, fallback, a, b)
    a, b = _as_object(a), _as_object(b)
    if a.kind == "object" or b.kind == "object":
        return _elementwise(fallback, a, b)
    # int64 values beyond 2**53 cannot be promoted to float64 exactly;
    # Python compares int-to-float exactly, so route through objects.
    for x, y in ((a, b), (b, a)):
        if (
            x.kind == "int"
            and y.kind == "float"
            and _int_magnitude(x.values) > EXACT_INT_BOUND
        ):
            return _elementwise(fallback, a, b)
    valid = a.valid & b.valid
    out = _COMPARE_FN[op](a.values, b.values)
    return ColumnVector("bool", np.where(valid, out, False), valid)


def _compare_str(
    op: str, fallback: Callable[[Any, Any], Any],
    a: ColumnVector, b: ColumnVector,
) -> ColumnVector:
    """Compare two ``str`` vectors without leaving their codes.

    When one side has a one-entry dictionary (a literal), every valid row
    of it holds that entry, so the row engine's own operator runs once
    per dictionary entry of the other side; otherwise the two compare
    their ranks in one shared ``sorted()`` order.
    """
    valid = a.valid & b.valid
    if len(b.dictionary) == 1:
        other = b.dictionary[0]
        out = _entry_table(a, lambda s: fallback(s, other))
    elif len(a.dictionary) == 1:
        other = a.dictionary[0]
        out = _entry_table(b, lambda s: fallback(other, s))
    else:
        out = _COMPARE_FN[op](*str_ranks(a, b))
    return ColumnVector("bool", out & valid, valid)


def _is_literally(vec: ColumnVector, which: bool) -> np.ndarray:
    """Per-element ``value is True`` / ``value is False`` (row semantics).

    Only genuine booleans are identical to the singletons — ``0``/``1``
    are not, which the three-valued AND/OR below relies on.
    """
    if vec.kind == "bool":
        return vec.valid & (vec.values if which else ~vec.values)
    if vec.kind == "object":
        n = len(vec)
        target = which
        return np.fromiter(
            (v is target for v in vec.values), dtype=bool, count=n
        )
    return np.zeros(len(vec), dtype=bool)


def _truthy(vec: ColumnVector) -> np.ndarray:
    """Per-element ``bool(value)`` over valid slots (filler slots False)."""
    vec = _as_object(vec)
    if vec.kind == "bool":
        return vec.values & vec.valid
    if vec.kind == "object":
        n = len(vec)
        return np.fromiter(
            (v is not None and bool(v) for v in vec.values),
            dtype=bool,
            count=n,
        )
    return (vec.values != 0) & vec.valid


def logical_and(a: ColumnVector, b: ColumnVector) -> ColumnVector:
    """SQL three-valued AND, replicating ``_sql_and`` exactly."""
    false_out = _is_literally(a, False) | _is_literally(b, False)
    null_out = ~false_out & (~a.valid | ~b.valid)
    values = ~false_out & ~null_out & _truthy(a) & _truthy(b)
    return ColumnVector("bool", values, ~null_out)


def logical_or(a: ColumnVector, b: ColumnVector) -> ColumnVector:
    """SQL three-valued OR, replicating ``_sql_or`` exactly."""
    true_out = _is_literally(a, True) | _is_literally(b, True)
    null_out = ~true_out & (~a.valid | ~b.valid)
    values = true_out | (~null_out & (_truthy(a) | _truthy(b)))
    return ColumnVector("bool", values, ~null_out)


def logical_not(a: ColumnVector) -> ColumnVector:
    """Null-safe ``not value`` (``not 5 == False``, like the row engine)."""
    a = _as_object(a)
    if a.kind == "object":
        return _elementwise(
            lambda v: None if v is None else not v, a
        )
    if a.kind == "bool":
        return ColumnVector("bool", np.where(a.valid, ~a.values, False), a.valid)
    return ColumnVector("bool", np.where(a.valid, a.values == 0, False), a.valid)


def negate(a: ColumnVector) -> ColumnVector:
    """Null-safe unary minus."""
    a = _as_object(a)
    if a.kind == "object":
        return _elementwise(lambda v: None if v is None else -v, a)
    if a.kind == "bool":
        # Python: -True == -1 (an int).
        return ColumnVector(
            "int", np.where(a.valid, -a.values.astype(np.int64), 0), a.valid
        )
    return ColumnVector(
        a.kind, np.where(a.valid, -a.values, _FILLER[a.kind]), a.valid
    )


def is_null(a: ColumnVector, negated: bool) -> ColumnVector:
    """``IS [NOT] NULL`` — always a valid boolean, even on NULL input."""
    values = a.valid.copy() if negated else ~a.valid
    return ColumnVector("bool", values, np.ones(len(a), dtype=bool))


def in_list(a: ColumnVector, values: Sequence[Any], value_set: set) -> ColumnVector:
    """SQL ``x IN (...)``, three-valued like :class:`~repro.engine.expressions.InList`."""
    if not values:
        return ColumnVector(
            "bool", np.zeros(len(a), dtype=bool), np.ones(len(a), dtype=bool)
        )
    miss = None if None in value_set else False
    if a.kind == "object":
        return _elementwise(
            lambda v: None if v is None else (v in value_set or miss), a
        )
    if a.kind == "str":
        out = _entry_table(a, value_set.__contains__)
    else:
        members = [
            m for m in values if isinstance(m, (int, float)) and m == m
        ]
        if not members:
            out = np.zeros(len(a), dtype=bool)
        else:
            out = np.isin(a.values, np.asarray(members))
        out = np.where(a.valid, out, False)
    # A miss is unknown, not false, when the list holds NULL.
    valid = a.valid if miss is False else a.valid & out
    return ColumnVector("bool", out, valid)


def call_function(
    name: str, fallback: Callable[..., Any], args: Sequence[ColumnVector]
) -> ColumnVector:
    """Vectorized scalar functions: ``abs``, ``sqrt``, ``exp``, ``log``.

    Each replicates the corresponding :mod:`math` builtin including its
    error behaviour; every other engine function is non-vectorizable and
    handled by the executor's row fallback.
    """
    (a,) = args
    a = _as_object(a)
    if a.kind == "object":
        return _elementwise(
            lambda v: None if v is None else fallback(v), a
        )
    valid = a.valid
    if name == "abs":
        if a.kind == "float":
            return ColumnVector("float", np.abs(a.values), valid)
        return ColumnVector(
            "int", np.abs(_as_numeric(a)), valid
        )
    x = a.values.astype(np.float64)
    if name == "sqrt":
        if bool(np.any(valid & (x < 0))):
            raise ValueError("math domain error")
        out = np.sqrt(np.where(valid, x, 0.0))
        return ColumnVector("float", out, valid)
    if name == "log":
        if bool(np.any(valid & (x <= 0))):
            raise ValueError("math domain error")
        out = np.log(np.where(valid, x, 1.0))
        return ColumnVector("float", out, valid)
    if name == "exp":
        with np.errstate(over="ignore"):
            out = np.exp(np.where(valid, x, 0.0))
        if bool(np.any(valid & np.isinf(out) & np.isfinite(x))):
            raise OverflowError("math range error")
        return ColumnVector("float", out, valid)
    raise QueryError(f"function {name!r} is not vectorized")


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


class ColumnBatch:
    """An ordered set of equal-length column vectors (one relation)."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[str, ColumnVector], length: int) -> None:
        self.columns = columns
        self.length = length

    @property
    def names(self) -> List[str]:
        """Column names in output order."""
        return list(self.columns)

    @classmethod
    def from_table(cls, table: Any, alias: Optional[str] = None) -> "ColumnBatch":
        """Build a batch from a base table, using its schema's types."""
        prefix = f"{alias}." if alias else ""
        rows = table.rows
        columns: Dict[str, ColumnVector] = {}
        for column in table.schema.columns:
            values = [row[column.name] for row in rows]
            columns[f"{prefix}{column.name}"] = vector_from_typed(
                values, column.dtype
            )
        return cls(columns, len(rows))

    @classmethod
    def from_rows(
        cls, rows: Sequence[Dict[str, Any]], names: Optional[Sequence[str]] = None
    ) -> "ColumnBatch":
        """Build a batch from row dicts (``names`` types an empty input)."""
        if names is None:
            names = list(rows[0]) if rows else []
        columns = {
            name: vector_from_values([row[name] for row in rows])
            for name in names
        }
        return cls(columns, len(rows))

    def resolve(self, name: str) -> ColumnVector:
        """Resolve a column with SQL-style suffix matching.

        Mirrors :func:`repro.engine.expressions.resolve_column`: exact
        key, then unique ``*.name`` suffix, then — for a qualified name
        over unqualified columns — the bare tail.
        """
        return self.columns[self.resolve_key(name)]

    def resolve_key(self, name: str) -> str:
        """The key of the column :meth:`resolve` returns for ``name``."""
        if name in self.columns:
            return name
        suffix = "." + name
        matches = [k for k in self.columns if k.endswith(suffix)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise QueryError(
                f"ambiguous column {name!r}: matches {sorted(matches)}"
            )
        if "." in name and not any("." in key for key in self.columns):
            tail = name.rsplit(".", 1)[1]
            if tail in self.columns:
                return tail
        raise QueryError(
            f"unknown column {name!r}; row has {sorted(self.columns)}"
        )

    def only(self, keys: Collection[str]) -> "ColumnBatch":
        """The batch cut to the columns whose keys are in ``keys``."""
        return ColumnBatch(
            {k: v for k, v in self.columns.items() if k in keys}, self.length
        )

    def take(self, indexer: np.ndarray) -> "ColumnBatch":
        """Select rows by boolean mask or integer index array."""
        columns = {
            name: vec.take(indexer) for name, vec in self.columns.items()
        }
        length = next(iter(columns.values())).__len__() if columns else (
            int(np.count_nonzero(indexer))
            if indexer.dtype == np.bool_
            else len(indexer)
        )
        return ColumnBatch(columns, length)

    def to_rows(self) -> List[Dict[str, Any]]:
        """Materialize row dicts byte-identical to the row engine's."""
        names = self.names
        lists = [self.columns[name].to_pylist() for name in names]
        return [
            dict(zip(names, cells)) for cells in zip(*lists)
        ] if names else [{} for _ in range(self.length)]
