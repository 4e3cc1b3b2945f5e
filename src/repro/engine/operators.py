"""Physical execution of logical plans.

The executor interprets a plan tree against a catalog of base tables and
produces row dictionaries.  Joins pick between a hash join (when the
condition contains at least one equality between columns of opposite sides)
and a nested-loop join otherwise; an :class:`ExecutionMetrics` object counts
rows flowing through each operator so benchmarks can compare plan costs
(e.g. the gridfields restrict/regrid commutation, or the full vs partitioned
ABS self-join).  :func:`executor_for` builds the executor a plan runs on.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple,
)

import numpy as np

from repro.engine import plan as lp
from repro.obs import get_observer
from repro.engine.columnar import (
    EXACT_INT_BOUND,
    _FILLER,
    _int_magnitude,
    ColumnBatch,
    ColumnVector,
    all_null,
    concat_vectors,
    keep_mask,
    str_ranks,
    vector_from_values,
)
from repro.engine.expressions import (
    BinaryOp,
    Expression,
    conjuncts,
    evaluate_batch,
    is_vectorizable,
)
from repro.engine.table import Row, Table
from repro.errors import QueryError


@dataclass
class ExecutionMetrics:
    """Row-flow counters collected while executing a plan."""

    rows_scanned: int = 0
    rows_joined: int = 0
    join_pairs_examined: int = 0
    rows_output: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.rows_scanned = 0
        self.rows_joined = 0
        self.join_pairs_examined = 0
        self.rows_output = 0


class TableProvider:
    """Minimal interface the executor needs: resolve a table by name."""

    def resolve_table(self, name: str) -> Table:
        """Return the base table registered under ``name``."""
        raise NotImplementedError


class _DictProvider(TableProvider):
    def __init__(self, tables: Dict[str, Table]) -> None:
        self._tables = tables

    def resolve_table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"unknown table {name!r}") from None


def provider_from(tables: Dict[str, Table]) -> TableProvider:
    """Wrap a plain dict of tables as a :class:`TableProvider`."""
    return _DictProvider(tables)


# ---------------------------------------------------------------------------
# Aggregate machinery
# ---------------------------------------------------------------------------


class _AggState:
    """Accumulator for a single aggregate over one group."""

    def __init__(self, spec: lp.AggregateSpec) -> None:
        self.spec = spec
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.minimum: Any = None
        self.maximum: Any = None
        self.seen: Optional[set] = set() if spec.distinct else None

    def update(self, row: Row) -> None:
        if self.spec.argument is None:
            self.count += 1
            return
        self.update_value(self.spec.argument.evaluate(row))

    def update_value(self, value: Any) -> None:
        """Fold one already-evaluated argument value into the state."""
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.total += value
            self.total_sq += value * value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def result(self) -> Any:
        func = self.spec.func
        if func == "count":
            return self.count
        if self.count == 0:
            return None
        if func == "sum":
            return self.total
        if func == "avg":
            return self.total / self.count
        if func == "min":
            return self.minimum
        if func == "max":
            return self.maximum
        # var / std (sample, ddof=1)
        if self.count < 2:
            return 0.0
        mean = self.total / self.count
        var = (self.total_sq - self.count * mean * mean) / (self.count - 1)
        var = max(var, 0.0)
        return var if func == "var" else math.sqrt(var)


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def _equi_keys(
    condition: Expression, left_rows_example: Row, right_rows_example: Row
) -> Tuple[List[Expression], List[Expression], List[Expression]]:
    """Split a join condition into equi-key pairs and a residual.

    Returns ``(left_keys, right_keys, residual_conjuncts)`` where
    ``left_keys[i] = right_keys[i]`` are usable for hashing.  Classification
    is by column membership: a conjunct ``a = b`` whose sides reference
    columns found exclusively in one input each becomes a key pair.
    """
    left_cols = set(left_rows_example)
    right_cols = set(right_rows_example)

    def side_of(expr: Expression) -> Optional[str]:
        names = expr.columns()
        if not names:
            return None

        def resolves(name: str, available: set) -> bool:
            if name in available:
                return True
            suffix = "." + name
            return any(k.endswith(suffix) for k in available)

        in_left = all(resolves(n, left_cols) for n in names)
        in_right = all(resolves(n, right_cols) for n in names)
        if in_left and not in_right:
            return "left"
        if in_right and not in_left:
            return "right"
        return None

    left_keys: List[Expression] = []
    right_keys: List[Expression] = []
    residual: List[Expression] = []
    for conj in conjuncts(condition):
        if isinstance(conj, BinaryOp) and conj.op == "=":
            a_side = side_of(conj.left)
            b_side = side_of(conj.right)
            if a_side == "left" and b_side == "right":
                left_keys.append(conj.left)
                right_keys.append(conj.right)
                continue
            if a_side == "right" and b_side == "left":
                left_keys.append(conj.right)
                right_keys.append(conj.left)
                continue
        residual.append(conj)
    return left_keys, right_keys, residual


class Executor:
    """Interprets logical plans against a table provider."""

    def __init__(
        self,
        provider: TableProvider,
        metrics: Optional[ExecutionMetrics] = None,
    ) -> None:
        self.provider = provider
        self.metrics = metrics if metrics is not None else ExecutionMetrics()

    def execute(self, node: lp.PlanNode) -> List[Row]:
        """Execute ``node`` and materialize the output rows."""
        observer = get_observer()
        if not observer.enabled:
            rows = list(self._run(node))
            self.metrics.rows_output += len(rows)
            return rows
        with observer.span("engine.execute", plan=lp.plan_signature(node)):
            before = (
                self.metrics.rows_scanned,
                self.metrics.rows_joined,
                self.metrics.join_pairs_examined,
            )
            rows = list(self._run(node))
            self.metrics.rows_output += len(rows)
            observer.counter("engine.queries").inc()
            observer.counter("engine.rows_output").add(len(rows))
            observer.counter("engine.rows_scanned").add(
                self.metrics.rows_scanned - before[0]
            )
            observer.counter("engine.rows_joined").add(
                self.metrics.rows_joined - before[1]
            )
            observer.counter("engine.join_pairs_examined").add(
                self.metrics.join_pairs_examined - before[2]
            )
        return rows

    # -- node dispatch ---------------------------------------------------
    def _run(self, node: lp.PlanNode) -> Iterator[Row]:
        iterator = self._dispatch(node)
        observer = get_observer()
        if not observer.enabled:
            return iterator
        return _observe_operator(observer, node, iterator)

    def _dispatch(self, node: lp.PlanNode) -> Iterator[Row]:
        if isinstance(node, lp.Scan):
            return self._scan(node)
        if isinstance(node, lp.Values):
            return iter([dict(r) for r in node.rows])
        if isinstance(node, lp.Filter):
            return self._filter(node)
        if isinstance(node, lp.Project):
            return self._project(node)
        if isinstance(node, lp.Join):
            return self._join(node)
        if isinstance(node, lp.Aggregate):
            return self._aggregate(node)
        if isinstance(node, lp.OrderBy):
            return self._order_by(node)
        if isinstance(node, lp.Limit):
            return self._limit(node)
        if isinstance(node, lp.Distinct):
            return self._distinct(node)
        if isinstance(node, lp.Union):
            return self._union(node)
        raise QueryError(f"cannot execute plan node {type(node).__name__}")

    def _scan(self, node: lp.Scan) -> Iterator[Row]:
        table = self.provider.resolve_table(node.table)
        prefix = node.alias
        for row in table:
            self.metrics.rows_scanned += 1
            if prefix is None:
                yield dict(row)
            else:
                yield {f"{prefix}.{k}": v for k, v in row.items()}

    def _filter(self, node: lp.Filter) -> Iterator[Row]:
        for row in self._run(node.child):
            if node.predicate.evaluate(row) is True:
                yield row

    def _project(self, node: lp.Project) -> Iterator[Row]:
        for row in self._run(node.child):
            yield {
                alias: expr.evaluate(row)
                for alias, expr in zip(node.aliases, node.expressions)
            }

    def _join(self, node: lp.Join) -> Iterator[Row]:
        left_rows = list(self._run(node.left))
        right_rows = list(self._run(node.right))
        if node.condition is None:
            yield from self._nested_loop(left_rows, right_rows, None, node.how)
            return
        if not left_rows or not right_rows:
            if node.how == "left" and left_rows:
                # Preserve the right side's column names even when it is
                # empty, so downstream references resolve to NULL.
                null_right = self._static_null_row(node.right)
                for lrow in left_rows:
                    yield self._merge(lrow, null_right)
            return
        lkeys, rkeys, residual = _equi_keys(
            node.condition, left_rows[0], right_rows[0]
        )
        if lkeys:
            yield from self._hash_join(
                left_rows, right_rows, lkeys, rkeys, residual, node.how
            )
        else:
            yield from self._nested_loop(
                left_rows, right_rows, node.condition, node.how
            )

    def _merge(self, left: Row, right: Row) -> Row:
        merged = dict(left)
        for key, value in right.items():
            if key in merged and merged[key] != value:
                raise QueryError(
                    f"join output would clobber column {key!r}; "
                    "alias one side of the join"
                )
            merged[key] = value
        return merged

    def _null_right(self, example: Row) -> Row:
        return {k: None for k in example}

    def _static_null_row(self, node: lp.PlanNode) -> Row:
        """An all-NULL row with the column names a plan would produce.

        Used for left joins whose right side yields zero rows: the
        output schema is derived statically (scan schemas, projection
        aliases, aggregate aliases) rather than from example rows.
        """
        if isinstance(node, lp.Scan):
            names = self.provider.resolve_table(node.table).schema.names
            prefix = f"{node.alias}." if node.alias else ""
            return {f"{prefix}{n}": None for n in names}
        if isinstance(node, lp.Project):
            return {alias: None for alias in node.aliases}
        if isinstance(node, lp.Aggregate):
            out = {alias: None for alias in node.group_aliases}
            out.update({spec.alias: None for spec in node.aggregates})
            return out
        if isinstance(node, lp.Values):
            return (
                {k: None for k in node.rows[0]} if node.rows else {}
            )
        children = node.children()
        if len(children) == 1:
            return self._static_null_row(children[0])
        if isinstance(node, (lp.Join, lp.Union)) and children:
            merged: Row = {}
            for child in children:
                merged.update(self._static_null_row(child))
            return merged
        return {}

    def _hash_join(
        self,
        left_rows: List[Row],
        right_rows: List[Row],
        lkeys: List[Expression],
        rkeys: List[Expression],
        residual: List[Expression],
        how: str,
    ) -> Iterator[Row]:
        index: Dict[Tuple, List[Row]] = {}
        for row in right_rows:
            key = tuple(k.evaluate(row) for k in rkeys)
            # SQL ``NULL = x`` is never true: a key holding a NULL stays
            # out of the index, so no key (NULL-holding or not) finds it.
            if all(v is not None for v in key):
                index.setdefault(key, []).append(row)
        null_right = self._null_right(right_rows[0]) if right_rows else {}
        for lrow in left_rows:
            key = tuple(k.evaluate(lrow) for k in lkeys)
            matched = False
            for rrow in index.get(key, ()):
                self.metrics.join_pairs_examined += 1
                merged = self._merge(lrow, rrow)
                if all(c.evaluate(merged) is True for c in residual):
                    matched = True
                    self.metrics.rows_joined += 1
                    yield merged
            if not matched and how == "left":
                yield self._merge(lrow, null_right)

    def _nested_loop(
        self,
        left_rows: List[Row],
        right_rows: List[Row],
        condition: Optional[Expression],
        how: str,
    ) -> Iterator[Row]:
        null_right = self._null_right(right_rows[0]) if right_rows else {}
        for lrow in left_rows:
            matched = False
            for rrow in right_rows:
                self.metrics.join_pairs_examined += 1
                merged = self._merge(lrow, rrow)
                if condition is None or condition.evaluate(merged) is True:
                    matched = True
                    self.metrics.rows_joined += 1
                    yield merged
            if not matched and how == "left":
                yield self._merge(lrow, null_right)

    def _aggregate(self, node: lp.Aggregate) -> Iterator[Row]:
        groups: Dict[Tuple, Tuple[Row, List[_AggState]]] = {}
        for row in self._run(node.child):
            key = tuple(expr.evaluate(row) for expr in node.group_by)
            if key not in groups:
                key_row = {
                    alias: value
                    for alias, value in zip(node.group_aliases, key)
                }
                groups[key] = (
                    key_row,
                    [_AggState(spec) for spec in node.aggregates],
                )
            for state in groups[key][1]:
                state.update(row)
        if not groups and not node.group_by:
            # Global aggregate over zero rows still yields one row.
            states = [_AggState(spec) for spec in node.aggregates]
            yield {s.spec.alias: s.result() for s in states}
            return
        for key_row, states in groups.values():
            out = dict(key_row)
            for state in states:
                out[state.spec.alias] = state.result()
            yield out

    def _order_by(self, node: lp.OrderBy) -> Iterator[Row]:
        rows = list(self._run(node.child))
        # Stable sort applied from the last key to the first.
        for key, desc in list(zip(node.keys, node.descending))[::-1]:
            rows.sort(
                key=lambda r, k=key: (
                    (k.evaluate(r) is None),
                    k.evaluate(r),
                ),
                reverse=desc,
            )
        return iter(rows)

    def _limit(self, node: lp.Limit) -> Iterator[Row]:
        count = 0
        for row in self._run(node.child):
            if count >= node.count:
                return
            count += 1
            yield row

    def _distinct(self, node: lp.Distinct) -> Iterator[Row]:
        seen = set()
        for row in self._run(node.child):
            key = tuple(sorted(row.items()))
            if key not in seen:
                seen.add(key)
                yield row

    def _union(self, node: lp.Union) -> Iterator[Row]:
        left_rows = list(self._run(node.left))
        right_rows = list(self._run(node.right))
        if left_rows and right_rows:
            if set(left_rows[0]) != set(right_rows[0]):
                raise QueryError(
                    "UNION inputs have different columns: "
                    f"{sorted(left_rows[0])} vs {sorted(right_rows[0])}"
                )
        yield from left_rows
        yield from right_rows


def _observe_operator(
    observer, node: lp.PlanNode, iterator: Iterator[Row]
) -> Iterator[Row]:
    """Wrap one operator's iterator with per-operator rows/time metrics.

    ``engine.operator.rows{op=...}`` counts rows the operator produced
    (deterministic); ``engine.operator.seconds{op=...}`` accumulates the
    wall-clock spent pulling them, *inclusive* of child operators (the
    pipeline evaluates lazily, so a parent's ``next`` drives its
    children).  Counts are emitted when the iterator finishes or is
    closed, so partially consumed pipelines (e.g. under LIMIT) still
    report what actually flowed.
    """
    label = lp.node_label(node)
    rows_counter = observer.counter("engine.operator.rows", op=label)
    timer = observer.timer("engine.operator.seconds", op=label)
    rows = 0
    elapsed = 0.0
    try:
        while True:
            start = time.perf_counter()
            try:
                row = next(iterator)
            except StopIteration:
                elapsed += time.perf_counter() - start
                break
            elapsed += time.perf_counter() - start
            rows += 1
            yield row
    finally:
        rows_counter.add(rows)
        timer.add(elapsed)


# ---------------------------------------------------------------------------
# Columnar executor
# ---------------------------------------------------------------------------


def _factorize_python(vec: ColumnVector) -> Tuple[np.ndarray, int]:
    """Dense codes via a Python dict — the exact-equality fallback."""
    mapping: Dict[Any, int] = {}
    codes = np.empty(len(vec), dtype=np.int64)
    for i, v in enumerate(vec.to_pylist()):
        codes[i] = mapping.setdefault(v, len(mapping))
    return codes, max(len(mapping), 1)


def _dense_bound(n: int) -> int:
    """The widest span of integer codes addressed directly for ``n`` rows.

    A table over the span costs a few passes over at most this many
    slots, never more than the sort it replaces costs over ``n`` rows.
    """
    return 4 * n + 1024


def _ranks(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """``np.unique(values, return_inverse=True)``'s codes and count.

    ``values`` are int64.  When they span at most :func:`_dense_bound`
    slots, a presence table over ``[min, max]`` and its running count
    give the same ranks without a sort: each value is addressed
    directly at ``value - min``.
    """
    if len(values):
        lo = int(values.min())
        span = int(values.max()) - lo + 1
        if span <= _dense_bound(len(values)):
            offsets = values - lo
            present = np.zeros(span, dtype=bool)
            present[offsets] = True
            rank = np.cumsum(present) - 1
            return rank[offsets], int(rank[-1]) + 1
    uniq, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64), len(uniq)


def _factorize(vec: ColumnVector) -> Tuple[np.ndarray, int]:
    """Dense integer codes for a vector, NULLs sharing one code.

    Grouping key equality in the row engine is Python ``==`` on dict
    keys (where ``None`` matches ``None``).  A ``str`` vector's codes
    already are such codes (its dictionary entries are distinct); the
    numeric paths below are equivalent for clean numerics, and anything
    that is not (objects, NaN, ints beyond 2**53) uses the dict fallback.
    Valid values get their rank among the vector's values (NULL slots
    hold 0 and count among them) and NULL the code after the last rank;
    ``int`` and ``bool`` values rank by direct addressing (:func:`_ranks`),
    floats by ``np.unique``.
    """
    if vec.kind == "str":
        size = len(vec.dictionary)
        return np.where(vec.valid, vec.values, size).astype(np.int64), size + 1
    if vec.kind not in ("bool", "int", "float"):
        return _factorize_python(vec)
    if vec.kind == "float":
        values = vec.values.astype(np.float64)
        if bool(np.isnan(values).any()):
            return _factorize_python(vec)
        uniq, inverse = np.unique(
            np.where(vec.valid, values, 0.0), return_inverse=True
        )
        ranks, n_ranks = inverse.reshape(-1), len(uniq)
    else:
        if vec.kind == "int" and _int_magnitude(vec.values) > EXACT_INT_BOUND:
            return _factorize_python(vec)
        ranks, n_ranks = _ranks(
            np.where(vec.valid, vec.values.astype(np.int64, copy=False), 0)
        )
    codes = np.where(vec.valid, ranks, n_ranks)
    return codes.astype(np.int64), n_ranks + 1


def _combine_codes(
    codes: np.ndarray, sub: np.ndarray, n_sub: int
) -> Tuple[np.ndarray, int]:
    """Fold one more key column into running codes: ranks and count.

    The mixed-radix codes ``codes * n_sub + sub`` are ranked by direct
    addressing while their span stays within the bound, else sorted.
    """
    return _ranks(codes * np.int64(n_sub) + sub)


def _group_codes(
    key_vecs: List[ColumnVector], n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """First-seen-ordered group codes plus each group's first row index.

    Each group's first row comes from ``np.minimum.at`` over the row
    positions in a table indexed by code; only the groups present are
    then sorted, by that first row.
    """
    codes, n_codes = np.zeros(n, dtype=np.int64), 1
    for i, vec in enumerate(key_vecs):
        sub, n_sub = _factorize(vec)
        if i == 0:
            codes, n_codes = sub, n_sub
        else:
            codes, n_codes = _combine_codes(codes, sub, n_sub)
    if n_codes > _dense_bound(n):
        # A str dictionary far larger than the rows: rank what is there.
        codes, n_codes = _ranks(codes)
    first = np.full(n_codes, n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
    present = np.flatnonzero(first < n)
    order = np.argsort(first[present])
    rank = np.zeros(n_codes, dtype=np.int64)
    rank[present[order]] = np.arange(len(present), dtype=np.int64)
    return rank[codes], first[present[order]]


def _resolved_keys(
    batch: ColumnBatch, names: FrozenSet[str]
) -> Optional[Set[str]]:
    """The keys of the columns ``names`` resolve to in ``batch``.

    ``None`` when one of them does not resolve to exactly one column.
    Cutting a batch to these keys changes no name's resolution, as each
    kept key still is its name's exact key, sole ``*.name`` match or
    bare tail.
    """
    try:
        return {batch.resolve_key(name) for name in names}
    except QueryError:
        return None


def _concat_batches(batches: List[ColumnBatch]) -> ColumnBatch:
    names = batches[0].names
    columns = {
        name: concat_vectors([b.columns[name] for b in batches])
        for name in names
    }
    return ColumnBatch(columns, sum(b.length for b in batches))


def _aggregate_python(
    spec: lp.AggregateSpec,
    vec: ColumnVector,
    gcodes: np.ndarray,
    n_groups: int,
) -> ColumnVector:
    """Per-group aggregation through ``_AggState`` (exact by construction)."""
    states = [_AggState(spec) for _ in range(n_groups)]
    for code, value in zip(gcodes.tolist(), vec.to_pylist()):
        states[code].update_value(value)
    return vector_from_values([s.result() for s in states])


def _record_operator(
    observer, node: lp.PlanNode, rows: int, elapsed: float
) -> None:
    """Emit one batch operator's ``engine.operator.rows``/``.seconds``."""
    label = lp.node_label(node)
    observer.counter("engine.operator.rows", op=label).add(rows)
    observer.timer("engine.operator.seconds", op=label).add(elapsed)


def _sort_key(vec: ColumnVector) -> Optional[np.ndarray]:
    """Numbers ordered like a vector's valid values, or ``None``.

    ``int``, ``bool``, NaN-free ``float`` and ``str`` (dictionary ranks)
    qualify; NULL slots read 0, as the null flag decides their place.
    """
    if vec.kind == "str":
        values = str_ranks(vec)[0]
    elif vec.kind in ("int", "bool"):
        values = vec.values.astype(np.int64)
    elif vec.kind == "float" and not np.isnan(vec.values[vec.valid]).any():
        values = vec.values
    else:
        return None
    return np.where(vec.valid, values, 0)


def _sort_permutation(
    keys: List[Tuple[ColumnVector, bool]], n: int
) -> np.ndarray:
    """The order successive stable sorts over ``keys`` (last key first) give.

    Each row-mode pass sorts by ``(value is None, value)``, reversed for
    DESC with ties kept in input order: NULLs last under ASC and first
    under DESC.  One stable ``np.lexsort`` over (value, null flag) per
    key reproduces that, with values negated for DESC.  Any other key
    (objects, NaN) sorts the indices with ``list.sort`` over the same
    Python key, which also raises the row sort's ``TypeError``.
    """
    columns: List[np.ndarray] = []
    for vec, desc in keys:
        values = _sort_key(vec)
        if values is None:
            return _python_sort_permutation(keys, n)
        columns += [-values, vec.valid] if desc else [values, ~vec.valid]
    return np.lexsort(columns) if columns else np.arange(n)


def _python_sort_permutation(
    keys: List[Tuple[ColumnVector, bool]], n: int
) -> np.ndarray:
    perm = list(range(n))
    for vec, desc in keys:
        values = vec.to_pylist()
        perm.sort(key=lambda i: (values[i] is None, values[i]), reverse=desc)
    return np.array(perm, dtype=np.int64)


def _group_output(
    kind: str, acc: np.ndarray, counts: np.ndarray
) -> ColumnVector:
    """One aggregate's per-group results: ``acc``, NULL where count is 0."""
    valid = counts > 0
    if not valid.any():
        return all_null(len(acc))
    return ColumnVector(kind, np.where(valid, acc, _FILLER[kind]), valid)


def _hash_join_pairs(
    lcodes: np.ndarray, rcodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate equi-join pairs: each left code probes the right codes.

    Emits pairs left-major in original left order, with right matches in
    ascending original right position (the stable argsort of the right
    codes), exactly like the row engine's bucket probe.  When the right
    codes span at most :func:`_dense_bound` of both sides' rows, each
    code's bucket start and size are read from a table indexed by code
    (``np.bincount`` and its running sum); wider codes find them by two
    binary searches of the sorted right codes.
    """
    span = 0
    if len(rcodes):
        lo, hi = int(rcodes.min()), int(rcodes.max())
        span = hi - lo + 1
    if 0 < span <= _dense_bound(len(lcodes) + len(rcodes)):
        offsets = rcodes - lo
        sizes = np.bincount(offsets, minlength=span)
        bucket_starts = np.cumsum(sizes) - sizes
        # A stable argsort of 16-bit keys is NumPy's radix sort.
        keys = offsets.astype(np.uint16) if span <= 1 << 16 else offsets
        order = np.argsort(keys, kind="stable")
        hit = (lcodes >= lo) & (lcodes <= hi)
        probe = np.where(hit, lcodes - lo, 0)
        starts = bucket_starts[probe]
        counts = np.where(hit, sizes[probe], 0)
    else:
        order = np.argsort(rcodes, kind="stable")
        sorted_rcodes = rcodes[order]
        starts = np.searchsorted(sorted_rcodes, lcodes, side="left")
        ends = np.searchsorted(sorted_rcodes, lcodes, side="right")
        counts = ends - starts
    total = int(counts.sum())
    pair_left = np.repeat(np.arange(len(lcodes)), counts)
    # Pair k of a left row's run sits at its bucket start plus k: one
    # repeat of (start - run start) plus the running pair index.
    shift = starts - (np.cumsum(counts) - counts)
    pair_right = order[np.repeat(shift, counts) + np.arange(total)]
    return pair_left, pair_right


class ColumnarExecutor(Executor):
    """Batch-at-a-time executor, byte-identical to :class:`Executor`.

    Scan/Values/Filter/Project/Join/Aggregate/OrderBy nodes whose
    expressions are vectorizable, and a Limit directly over such an
    OrderBy, run over :class:`ColumnBatch` columns; every other node
    (and every non-vectorizable expression) falls back to the inherited
    row operators, which in turn pull batches from batchable children —
    the two modes mix freely within one plan.  Per-operator observability
    (``engine.operator.rows``/``.seconds``) is emitted for batch nodes
    with the same labels and row counts as the row pipeline (for a sort
    under a Limit, the rows the row Limit would have pulled), so the
    deterministic ``values`` snapshot is identical across modes.
    """

    # -- dispatch --------------------------------------------------------
    def _run(self, node: lp.PlanNode) -> Iterator[Row]:
        batch = self._run_batch(node)
        if batch is None:
            return super()._run(node)
        return iter(batch.to_rows())

    def _run_batch(
        self, node: lp.PlanNode, reads: Optional[FrozenSet[str]] = None
    ) -> Optional[ColumnBatch]:
        """Run ``node`` as a batch, or ``None`` if it has no batch handler.

        ``reads``, when given, names every column the caller will read:
        a Filter or equi-Join then copies only the columns those names
        resolve to (see :meth:`_filter_batch`, :meth:`_equi_join_batch`).
        """
        handler = self._batch_handler(node)
        if handler is None:
            return None
        if reads is not None and isinstance(node, (lp.Filter, lp.Join)):
            handler = functools.partial(handler, reads=reads)
        observer = get_observer()
        if not observer.enabled:
            return handler(node)
        start = time.perf_counter()
        batch = handler(node)
        _record_operator(
            observer, node, batch.length, time.perf_counter() - start
        )
        return batch

    def _batch_handler(
        self, node: lp.PlanNode
    ) -> Optional[Callable[[Any], ColumnBatch]]:
        if isinstance(node, lp.Scan):
            return self._scan_batch
        if isinstance(node, lp.Values):
            # Row mode preserves each row dict's own key order; only a
            # uniform layout converts losslessly.
            rows = node.rows
            if rows and any(tuple(r) != tuple(rows[0]) for r in rows):
                return None
            return self._values_batch
        if isinstance(node, lp.Filter):
            if is_vectorizable(node.predicate):
                return self._filter_batch
            return None
        if isinstance(node, lp.Project):
            if all(is_vectorizable(e) for e in node.expressions):
                return self._project_batch
            return None
        if isinstance(node, lp.Join):
            if node.condition is None or is_vectorizable(node.condition):
                return self._join_batch
            return None
        if isinstance(node, lp.Aggregate):
            if any(spec.distinct for spec in node.aggregates):
                return None
            if not all(is_vectorizable(e) for e in node.group_by):
                return None
            if not all(
                spec.argument is None or is_vectorizable(spec.argument)
                for spec in node.aggregates
            ):
                return None
            return self._aggregate_batch
        if isinstance(node, lp.OrderBy):
            if all(is_vectorizable(k) for k in node.keys):
                return self._order_by_batch
            return None
        if isinstance(node, lp.Limit):
            # Only over a batched sort, which consumes its whole input in
            # row mode too; a bare LIMIT's short-circuit stays row-only.
            if isinstance(node.child, lp.OrderBy) and self._batch_handler(
                node.child
            ):
                return self._limit_batch
            return None
        return None

    def _child_batch(
        self, node: lp.PlanNode, reads: Optional[FrozenSet[str]] = None
    ) -> ColumnBatch:
        """The child as a batch, converting row-mode output if needed."""
        batch = self._run_batch(node, reads)
        if batch is not None:
            return batch
        rows = list(super()._run(node))
        if rows:
            return ColumnBatch.from_rows(rows)
        return ColumnBatch.from_rows(rows, list(self._static_null_row(node)))

    def _rows_to_batch(
        self, rows: List[Row], node: lp.PlanNode
    ) -> ColumnBatch:
        if rows:
            return ColumnBatch.from_rows(rows)
        return ColumnBatch.from_rows(rows, list(self._static_null_row(node)))

    # -- leaf / unary operators ------------------------------------------
    def _scan_batch(self, node: lp.Scan) -> ColumnBatch:
        # The table's cached column batch under the scan's column names:
        # a fresh mapping over shared, read-only vectors.
        base = self.provider.resolve_table(node.table).column_batch()
        prefix = f"{node.alias}." if node.alias else ""
        self.metrics.rows_scanned += base.length
        return ColumnBatch(
            {prefix + name: vec for name, vec in base.columns.items()},
            base.length,
        )

    def _values_batch(self, node: lp.Values) -> ColumnBatch:
        return ColumnBatch.from_rows([dict(r) for r in node.rows])

    def _filter_batch(
        self, node: lp.Filter, reads: Optional[FrozenSet[str]] = None
    ) -> ColumnBatch:
        # Only the columns the caller reads are copied; the child is
        # asked for those and the predicate's.
        child = self._child_batch(
            node.child,
            None if reads is None else reads | node.predicate.columns(),
        )
        predicate = evaluate_batch(node.predicate, child)
        keys = None if reads is None else _resolved_keys(child, reads)
        if keys is not None:
            child = child.only(keys)
        return child.take(keep_mask(predicate))

    def _project_batch(self, node: lp.Project) -> ColumnBatch:
        reads = frozenset().union(*(e.columns() for e in node.expressions))
        child = self._child_batch(node.child, reads)
        columns = {
            alias: evaluate_batch(expr, child)
            for alias, expr in zip(node.aliases, node.expressions)
        }
        return ColumnBatch(columns, child.length)

    # -- sort ------------------------------------------------------------
    def _sorted(self, node: lp.OrderBy) -> Tuple[ColumnBatch, np.ndarray]:
        """The sort's input and the permutation the row ``_order_by`` applies.

        Keys are evaluated last to first, the order of the row sort's
        passes; over zero rows the row sort evaluates none.
        """
        child = self._child_batch(node.child)
        if child.length == 0:
            return child, np.zeros(0, dtype=np.int64)
        pairs = list(zip(node.keys, node.descending))[::-1]
        keys = [(evaluate_batch(k, child), desc) for k, desc in pairs]
        return child, _sort_permutation(keys, child.length)

    def _order_by_batch(self, node: lp.OrderBy) -> ColumnBatch:
        child, perm = self._sorted(node)
        return child.take(perm)

    def _limit_batch(self, node: lp.Limit) -> ColumnBatch:
        # The row ``_limit`` pulls one row past the limit before it stops,
        # so the sort's own counter reads ``min(n + 1, len)`` there; this
        # node's ``_run_batch`` records the ``min(n, len)`` it keeps.
        sort = node.child
        start = time.perf_counter()
        child, perm = self._sorted(sort)
        n = max(node.count, 0)
        observer = get_observer()
        if observer.enabled:
            _record_operator(
                observer, sort, min(n + 1, child.length),
                time.perf_counter() - start,
            )
        return child.take(perm[:n])

    # -- join ------------------------------------------------------------
    def _join_batch(
        self, node: lp.Join, reads: Optional[FrozenSet[str]] = None
    ) -> ColumnBatch:
        left = self._child_batch(node.left)
        right = self._child_batch(node.right)
        if node.condition is None:
            rows = list(
                self._nested_loop(
                    left.to_rows(), right.to_rows(), None, node.how
                )
            )
            return self._rows_to_batch(rows, node)
        if left.length == 0 or right.length == 0:
            if node.how == "left" and left.length:
                null_right = self._static_null_row(node.right)
                rows = [
                    self._merge(lrow, null_right) for lrow in left.to_rows()
                ]
                return self._rows_to_batch(rows, node)
            return self._rows_to_batch([], node)
        lkeys, rkeys, residual = _equi_keys(
            node.condition,
            dict.fromkeys(left.names),
            dict.fromkeys(right.names),
        )
        if not lkeys:
            rows = list(
                self._nested_loop(
                    left.to_rows(), right.to_rows(), node.condition, node.how
                )
            )
            return self._rows_to_batch(rows, node)
        return self._equi_join_batch(
            left, right, lkeys, rkeys, residual, node.how, reads
        )

    def _join_key_codes(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        lkeys: List[Expression],
        rkeys: List[Expression],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Jointly factorized equi-key codes for both sides.

        Codes are computed over the *concatenation* of both sides, so
        equal keys get equal codes across sides.  A key holding a NULL
        matches nothing, as in the row engine: such left rows get code
        -1 and such right rows -2, which no row on the other side has.
        """
        n_left, n_right = left.length, right.length
        lnull = np.zeros(n_left, dtype=bool)
        rnull = np.zeros(n_right, dtype=bool)
        for i, (lk, rk) in enumerate(zip(lkeys, rkeys)):
            lv = evaluate_batch(lk, left)
            rv = evaluate_batch(rk, right)
            lnull |= ~lv.valid
            rnull |= ~rv.valid
            sub, n_sub = _factorize(concat_vectors([lv, rv]))
            # One key's joint codes already are equal-iff-equal.
            codes = sub if i == 0 else _combine_codes(codes, sub, n_sub)[0]
        return (
            np.where(lnull, -1, codes[:n_left]),
            np.where(rnull, -2, codes[n_left:]),
        )

    def _equi_join_batch(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        lkeys: List[Expression],
        rkeys: List[Expression],
        residual: List[Expression],
        how: str,
        reads: Optional[FrozenSet[str]] = None,
    ) -> ColumnBatch:
        """Pair, merge and pad both sides of an equi-join.

        With ``reads`` (the columns the caller reads), each side is cut,
        before it is copied, to the columns that ``reads`` and the
        residual resolve to in the uncut merged batch, and to every name
        both sides carry, which the clobber checks compare.  If a name
        does not resolve to exactly one column, nothing is cut: the name
        then fails where it is read, with the same message as uncut.
        """
        lcodes, rcodes = self._join_key_codes(left, right, lkeys, rkeys)
        pair_left, pair_right = _hash_join_pairs(lcodes, rcodes)
        n_left = left.length
        self.metrics.join_pairs_examined += len(pair_left)
        if reads is not None:
            names = reads.union(*(conj.columns() for conj in residual))
            whole = ColumnBatch({**left.columns, **right.columns}, n_left)
            keys = _resolved_keys(whole, names)
            if keys is not None:
                keys |= left.columns.keys() & right.columns.keys()
                left, right = left.only(keys), right.only(keys)
        matched = self._merge_batches(
            left.take(pair_left), right.take(pair_right)
        )
        if residual:
            keep = np.ones(len(pair_left), dtype=bool)
            for conj in residual:
                keep &= keep_mask(evaluate_batch(conj, matched))
            matched = matched.take(keep)
            pair_left = pair_left[keep]
        self.metrics.rows_joined += len(pair_left)
        if how != "left":
            return matched
        matched_left = np.zeros(n_left, dtype=bool)
        matched_left[pair_left] = True
        unmatched = np.flatnonzero(~matched_left)
        if unmatched.size == 0:
            return matched
        padded = self._null_extend_batch(left.take(unmatched), right)
        # Row mode emits each unmatched left row in left order,
        # interleaved with the matches: restore that order stably.
        positions = np.concatenate([pair_left, unmatched])
        return _concat_batches([matched, padded]).take(
            np.argsort(positions, kind="stable")
        )

    def _merge_batches(
        self, left: ColumnBatch, right: ColumnBatch
    ) -> ColumnBatch:
        columns = dict(left.columns)
        for name, rvec in right.columns.items():
            if name in columns:
                self._check_clobber(name, columns[name], rvec)
            columns[name] = rvec
        return ColumnBatch(columns, left.length)

    def _check_clobber(
        self, name: str, lvec: ColumnVector, rvec: ColumnVector
    ) -> None:
        # Row mode raises iff Python ``left != right`` is truthy for any
        # pair (``None != None`` is False, ``None != x`` is True).
        if {lvec.kind, rvec.kind} & {"object", "str"}:
            bad = any(
                ((x is None) != (y is None))
                or (x is not None and y is not None and x != y)
                for x, y in zip(lvec.to_pylist(), rvec.to_pylist())
            )
        else:
            both = lvec.valid & rvec.valid
            bad = bool(
                np.any(lvec.valid != rvec.valid)
                or np.any(both & (lvec.values != rvec.values))
            )
        if bad:
            raise QueryError(
                f"join output would clobber column {name!r}; "
                "alias one side of the join"
            )

    def _null_extend_batch(
        self, left: ColumnBatch, right: ColumnBatch
    ) -> ColumnBatch:
        # Row mode merges each unmatched left row with an all-None right
        # row; an overlapping column with a non-null left value clobbers.
        columns = dict(left.columns)
        for name in right.columns:
            if name in columns and bool(columns[name].valid.any()):
                raise QueryError(
                    f"join output would clobber column {name!r}; "
                    "alias one side of the join"
                )
            columns[name] = all_null(left.length)
        return ColumnBatch(columns, left.length)

    # -- aggregate -------------------------------------------------------
    def _aggregate_batch(self, node: lp.Aggregate) -> ColumnBatch:
        reads = frozenset().union(
            *(e.columns() for e in node.group_by),
            *(
                spec.argument.columns()
                for spec in node.aggregates
                if spec.argument is not None
            ),
        )
        child = self._child_batch(node.child, reads)
        key_vecs = [evaluate_batch(e, child) for e in node.group_by]
        arg_vecs = [
            None if spec.argument is None
            else evaluate_batch(spec.argument, child)
            for spec in node.aggregates
        ]
        n = child.length
        if node.group_by:
            gcodes, first_rows = _group_codes(key_vecs, n)
            n_groups = len(first_rows)
            if n_groups == 0:
                names = list(node.group_aliases) + [
                    spec.alias for spec in node.aggregates
                ]
                return ColumnBatch.from_rows([], names)
        else:
            first_rows = np.zeros(0, dtype=np.int64)
            gcodes = np.zeros(n, dtype=np.int64)
            n_groups = 1
        columns: Dict[str, ColumnVector] = {}
        for alias, vec in zip(node.group_aliases, key_vecs):
            columns[alias] = vec.take(first_rows)
        for spec, vec in zip(node.aggregates, arg_vecs):
            columns[spec.alias] = self._aggregate_vector(
                spec, vec, gcodes, n_groups
            )
        return ColumnBatch(columns, n_groups)

    def _aggregate_vector(
        self,
        spec: lp.AggregateSpec,
        vec: Optional[ColumnVector],
        gcodes: np.ndarray,
        n_groups: int,
    ) -> ColumnVector:
        # Outputs are built straight from the accumulator arrays, NULL
        # where a group saw no value: the kind ``vector_from_values``
        # infers over the row engine's per-group results.
        if vec is None or spec.func == "count":
            counted = gcodes if vec is None else gcodes[vec.valid]
            counts = np.bincount(counted, minlength=n_groups)
            return ColumnVector(
                "int", counts.astype(np.int64), np.ones(n_groups, dtype=bool)
            )
        if not self._numeric_aggregable(spec, vec):
            return _aggregate_python(spec, vec, gcodes, n_groups)
        valid = vec.valid
        grouped = gcodes[valid]
        values = vec.values[valid]
        counts = np.bincount(grouped, minlength=n_groups)
        func = spec.func
        if func in ("min", "max"):
            return self._extreme_column(
                func, vec.kind, values, grouped, counts, n_groups
            )
        floats = values.astype(np.float64)
        totals = np.zeros(n_groups, dtype=np.float64)
        np.add.at(totals, grouped, floats)
        if func == "sum":
            return _group_output("float", totals, counts)
        if func == "avg":
            # float64 / int64 is the IEEE division of ``float / int``.
            means = np.divide(
                totals, counts, out=np.zeros(n_groups), where=counts > 0
            )
            return _group_output("float", means, counts)
        # var / std (sample, ddof=1), same scalar formula as _AggState.
        squares = np.zeros(n_groups, dtype=np.float64)
        np.add.at(squares, grouped, floats * floats)
        out: List[Any] = []
        for i in range(n_groups):
            count = int(counts[i])
            if count == 0:
                out.append(None)
            elif count < 2:
                out.append(0.0)
            else:
                mean = float(totals[i]) / count
                var = (float(squares[i]) - count * mean * mean) / (count - 1)
                var = max(var, 0.0)
                out.append(var if func == "var" else math.sqrt(var))
        return vector_from_values(out)

    def _numeric_aggregable(
        self, spec: lp.AggregateSpec, vec: ColumnVector
    ) -> bool:
        """Whether the NumPy accumulators reproduce ``_AggState`` exactly.

        Booleans (not summed by the row engine), objects, NaNs, and —
        for var/std — ints whose squares exceed 2**53 (Python squares
        exactly, float64 rounds) all go through the Python states.
        """
        if vec.kind not in ("int", "float"):
            return False
        if vec.kind == "float":
            if bool(np.isnan(vec.values[vec.valid]).any()):
                return False
            if spec.func in ("min", "max"):
                zeros = vec.values[vec.valid] == 0.0
                if bool(np.any(zeros & np.signbit(vec.values[vec.valid]))):
                    # -0.0 vs 0.0 ties: row mode keeps the first seen.
                    return False
        if spec.func in ("var", "std") and vec.kind == "int":
            if _int_magnitude(vec.values) > 2 ** 26:
                return False
        return True

    def _extreme_column(
        self,
        func: str,
        kind: str,
        values: np.ndarray,
        grouped: np.ndarray,
        counts: np.ndarray,
        n_groups: int,
    ) -> ColumnVector:
        ufunc = np.minimum if func == "min" else np.maximum
        if kind == "int":
            info = np.iinfo(np.int64)
            fill = info.max if func == "min" else info.min
            acc = np.full(n_groups, fill, dtype=np.int64)
        else:
            fill = np.inf if func == "min" else -np.inf
            acc = np.full(n_groups, fill, dtype=np.float64)
        ufunc.at(acc, grouped, values)
        return _group_output(kind, acc, counts)


# ---------------------------------------------------------------------------
# Executor selection (columnar vs row)
# ---------------------------------------------------------------------------

#: The executors a caller may name with ``execution=``: the first runs
#: when none is named, and ``"row"`` is the reference it answers to.
EXECUTIONS = ("columnar", "row")


def check_execution(requested: Optional[str]) -> None:
    """Raise :class:`QueryError` unless ``requested`` is ``None`` or one
    of :data:`EXECUTIONS`."""
    if requested is not None and requested not in EXECUTIONS:
        raise QueryError(
            f"unknown execution {requested!r}; expected one of {EXECUTIONS}"
        )


def choose_execution(
    plan: lp.PlanNode, requested: Optional[str] = None
) -> str:
    """Pick ``"row"`` or ``"columnar"`` for one plan.

    ``requested`` is one of :data:`EXECUTIONS`, or ``None`` for the
    first; any other value raises :class:`QueryError`.  Even
    ``"columnar"`` degrades to row mode when the plan holds a LIMIT that
    is not directly over an ORDER BY: the row pipeline evaluates lazily
    and stops pulling once the limit is reached, so its per-operator
    ``engine.operator.rows`` counters reflect the short-circuit — a
    materializing batch executor could not emit identical observability.
    Under an ORDER BY only the sort's own counter shows it, and the
    columnar ``Limit`` handler reproduces that one.  Individual
    non-vectorizable operators inside a columnar plan need no rule here;
    :class:`ColumnarExecutor` falls back per node.
    """
    check_execution(requested)
    if requested == "row" or any(
        isinstance(n, lp.Limit) and not isinstance(n.child, lp.OrderBy)
        for n in lp.walk(plan)
    ):
        return "row"
    return "columnar"


def executor_for(
    provider: TableProvider,
    plan: lp.PlanNode,
    execution: Optional[str] = None,
    metrics: Optional[ExecutionMetrics] = None,
) -> Executor:
    """The executor that runs ``plan`` under ``execution``."""
    if choose_execution(plan, execution) == "columnar":
        return ColumnarExecutor(provider, metrics)
    return Executor(provider, metrics)
