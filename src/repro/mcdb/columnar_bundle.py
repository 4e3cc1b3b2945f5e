"""Columnar tuple bundles: one matrix per column over all MC iterations.

:class:`~repro.mcdb.tuple_bundle.BundledTable` stores one dict per tuple,
each uncertain column a length-``n_mc`` array, and loops over tuples in
Python.  :class:`ColumnarBundleTable` transposes that layout: each
uncertain column becomes a single ``(n_rows, n_mc)`` matrix (deterministic
columns stay one scalar per row), and the presence mask is one boolean
matrix — so a selection or aggregation over every tuple *and* every Monte
Carlo iteration is a single NumPy expression.  This is the engine's
columnar batch idea applied to MCDB's "one pass over many instantiations"
trick (Section 2.1).

The contract with the row-bundled path is byte identity: the same query
callable run over columnar bundles must return bit-identical samples.
Accumulating aggregations therefore use sequential scans (``np.cumsum``
down the row axis, with a leading zero row so the first addition matches
``0.0 + x``) rather than pairwise reductions.

Query callables written for row bundles usually work unchanged: an
elementwise predicate like ``lambda r: r["x"] > 5`` broadcasts over a
``(n_rows, n_mc)`` matrix exactly as it did over each row's length-
``n_mc`` array.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.errors import QueryError
from repro.mcdb.tuple_bundle import MASK_COLUMN, BundledTable, _broadcast

__all__ = ["ColumnarBundleTable"]


class ColumnarBundleTable:
    """A bundled relation stored column-major over tuples and iterations.

    ``scalars`` maps deterministic column names to a list of one Python
    value per tuple; ``matrices`` maps uncertain column names to
    ``(n_rows, n_mc)`` arrays; ``present`` is the ``(n_rows, n_mc)``
    presence mask.  ``order`` preserves the row-bundle column order so
    the round-trip back to :class:`BundledTable` is faithful.
    """

    def __init__(
        self,
        name: str,
        n_mc: int,
        order: List[str],
        scalars: Dict[str, List[Any]],
        matrices: Dict[str, np.ndarray],
        present: np.ndarray,
    ) -> None:
        if n_mc < 1:
            raise QueryError("n_mc must be >= 1")
        self.name = name
        self.n_mc = n_mc
        self.order = order
        self.scalars = scalars
        self.matrices = matrices
        self.present = present

    def __len__(self) -> int:
        return int(self.present.shape[0])

    @property
    def n_rows(self) -> int:
        """Number of tuples (bundles) in the relation."""
        return int(self.present.shape[0])

    # -- conversions --------------------------------------------------------
    @classmethod
    def from_bundled(cls, bundle: BundledTable) -> "ColumnarBundleTable":
        """Transpose a row bundle into matrices.

        Requires a uniform relation: every tuple must carry the same
        columns (hand-built heterogeneous bundles stay row-bundled).
        """
        rows = bundle.rows
        n_mc = bundle.n_mc
        if not rows:
            return cls(
                bundle.name, n_mc, [], {}, {}, np.zeros((0, n_mc), dtype=bool)
            )
        order = [k for k in rows[0] if k != MASK_COLUMN]
        expected = set(order) | {MASK_COLUMN}
        for row in rows:
            if set(row) != expected:
                raise QueryError(
                    f"bundle {bundle.name!r} has non-uniform columns; "
                    "columnar bundles need the same columns on every tuple"
                )
        scalars: Dict[str, List[Any]] = {}
        matrices: Dict[str, np.ndarray] = {}
        for column in order:
            values = [row[column] for row in rows]
            if any(isinstance(v, np.ndarray) for v in values):
                matrices[column] = np.stack(
                    [_broadcast(v, n_mc) for v in values]
                )
            else:
                scalars[column] = list(values)
        present = np.stack([row[MASK_COLUMN] for row in rows])
        return cls(bundle.name, n_mc, order, scalars, matrices, present)

    def to_bundled(self) -> BundledTable:
        """Reconstruct the row-bundle representation."""
        rows: List[Dict[str, Any]] = []
        for i in range(self.n_rows):
            row: Dict[str, Any] = {}
            for column in self.order:
                if column in self.scalars:
                    row[column] = self.scalars[column][i]
                else:
                    row[column] = self.matrices[column][i]
            row[MASK_COLUMN] = self.present[i]
            rows.append(row)
        return BundledTable(self.name, rows, self.n_mc)

    def _widened(self) -> Dict[str, np.ndarray]:
        """All columns as ``(n_rows, n_mc)`` matrices (mask included).

        With no tuples any column name reads as an empty matrix: the row
        bundle never calls a predicate then, so no name can be unknown.
        """
        shape = (self.n_rows, self.n_mc)
        out: Dict[str, np.ndarray] = (
            {} if self.n_rows else defaultdict(lambda: np.zeros(shape))
        )
        for column in self.order:
            if column in self.scalars:
                arr = np.asarray(self.scalars[column])
                out[column] = np.broadcast_to(arr[:, None], shape)
            else:
                out[column] = self.matrices[column]
        out[MASK_COLUMN] = self.present
        return out

    def _replace(
        self,
        order: List[str],
        scalars: Dict[str, List[Any]],
        matrices: Dict[str, np.ndarray],
        present: np.ndarray,
    ) -> "ColumnarBundleTable":
        return ColumnarBundleTable(
            self.name, self.n_mc, order, scalars, matrices, present
        )

    # -- operators ----------------------------------------------------------
    def filter(
        self, predicate: Callable[[Dict[str, np.ndarray]], np.ndarray]
    ) -> "ColumnarBundleTable":
        """Per-iteration selection over the whole relation at once.

        ``predicate`` receives every column as a ``(n_rows, n_mc)``
        matrix and returns a boolean matrix; tuples absent from every
        iteration are dropped, exactly like the row-bundle filter.
        """
        shape = (self.n_rows, self.n_mc)
        keep = np.asarray(predicate(self._widened()), dtype=bool)
        if keep.shape != shape:
            raise QueryError(
                f"bundle predicate returned shape {keep.shape}, "
                f"expected {shape}"
            )
        mask = self.present & keep
        alive = mask.any(axis=1)
        return self._replace(
            list(self.order),
            {k: [v for v, ok in zip(vs, alive) if ok]
             for k, vs in self.scalars.items()},
            {k: m[alive] for k, m in self.matrices.items()},
            mask[alive],
        )

    def derive(
        self, column: str, fn: Callable[[Dict[str, np.ndarray]], np.ndarray]
    ) -> "ColumnarBundleTable":
        """Add a computed (uncertain) column ``column = fn(columns)``."""
        shape = (self.n_rows, self.n_mc)
        values = np.asarray(fn(self._widened()))
        if values.shape != shape:
            values = np.broadcast_to(values, shape).copy()
        matrices = dict(self.matrices)
        matrices[column] = values
        order = list(self.order)
        if column not in order:
            order.append(column)
        scalars = dict(self.scalars)
        scalars.pop(column, None)
        return self._replace(order, scalars, matrices, self.present)

    def join_deterministic(
        self,
        other_rows: Sequence[Mapping[str, Any]],
        left_key: str,
        right_key: str,
    ) -> "ColumnarBundleTable":
        """Equi-join with a deterministic relation on deterministic keys.

        Key matching and column-merge rules are the row bundle's own
        (the join is scalar-side work with no per-iteration factor, so
        it round-trips through :class:`BundledTable`).
        """
        if left_key in self.matrices:
            raise QueryError(
                f"join key {left_key!r} is uncertain; tuple-bundle "
                "joins require deterministic keys"
            )
        return ColumnarBundleTable.from_bundled(
            self.to_bundled().join_deterministic(
                other_rows, left_key, right_key
            )
        )

    # -- aggregation -----------------------------------------------------
    def _column_matrix(self, column: str) -> np.ndarray:
        if column in self.matrices:
            return self.matrices[column]
        if column in self.scalars:
            arr = np.asarray(self.scalars[column])
            return np.broadcast_to(
                arr[:, None], (self.n_rows, self.n_mc)
            )
        if not self.n_rows:
            # A bundle with no tuples has no column list (the row bundle
            # takes it from its tuples) and reads no value: any column
            # is empty, as the row reference's aggregates treat it.
            return np.zeros((0, self.n_mc))
        raise QueryError(f"unknown bundle column {column!r}")

    def _masked_sum(self, contributions: np.ndarray) -> np.ndarray:
        """Sequential row-order sum, bit-identical to the ``+=`` loop.

        A leading zero row makes the first addition ``0.0 + x`` (the row
        path starts from ``np.zeros``), and ``np.cumsum`` accumulates in
        row order — unlike ``np.sum``, whose pairwise order differs.
        """
        if not self.n_rows:
            return np.zeros(self.n_mc)
        padded = np.vstack(
            [np.zeros((1, self.n_mc)), contributions]
        )
        return np.cumsum(padded, axis=0)[-1]

    def aggregate_sum(self, column: str) -> np.ndarray:
        """Per-iteration SUM over present tuples (all tuples at once)."""
        values = self._column_matrix(column).astype(float)
        return self._masked_sum(np.where(self.present, values, 0.0))

    def aggregate_count(self) -> np.ndarray:
        """Per-iteration COUNT(*) over present tuples."""
        if not self.n_rows:
            return np.zeros(self.n_mc, dtype=int)
        return np.cumsum(self.present.astype(int), axis=0)[-1]

    def aggregate_avg(self, column: str) -> np.ndarray:
        """Per-iteration AVG (``nan`` for iterations with zero tuples)."""
        sums = self.aggregate_sum(column)
        counts = self.aggregate_count()
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / counts, np.nan)

    def aggregate_min(self, column: str) -> np.ndarray:
        """Per-iteration MIN (``nan`` for empty iterations)."""
        return self._extreme(column, minimum=True)

    def aggregate_max(self, column: str) -> np.ndarray:
        """Per-iteration MAX (``nan`` for empty iterations)."""
        return self._extreme(column, minimum=False)

    def _extreme(self, column: str, minimum: bool) -> np.ndarray:
        fill = np.inf if minimum else -np.inf
        values = self._column_matrix(column).astype(float)
        masked = np.where(self.present, values, fill)
        padded = np.vstack([np.full((1, self.n_mc), fill), masked])
        ufunc = np.minimum if minimum else np.maximum
        best = ufunc.reduce(padded, axis=0)
        return np.where(np.isfinite(best), best, np.nan)

    def aggregate_quantile(self, column: str, q: float) -> np.ndarray:
        """Per-iteration ``q``-quantile over present tuples."""
        if not 0.0 <= q <= 1.0:
            raise QueryError(f"quantile level must be in [0,1], got {q}")
        values = self._column_matrix(column).astype(float)
        out = np.full(self.n_mc, np.nan)
        for i in range(self.n_mc):
            present = values[self.present[:, i], i]
            if present.size:
                out[i] = float(np.quantile(present, q))
        return out

    def grouped_aggregate_sum(
        self, group_column: str, value_column: str
    ) -> Dict[Any, np.ndarray]:
        """Per-iteration SUM per (deterministic) group key."""
        if group_column in self.matrices:
            raise QueryError(
                f"group key {group_column!r} must be deterministic"
            )
        keys = self.scalars.get(group_column)
        if keys is None:
            if self.n_rows:
                raise QueryError(f"unknown bundle column {group_column!r}")
            keys = []
        values = self._column_matrix(value_column).astype(float)
        contributions = np.where(self.present, values, 0.0)
        # First-seen key order, accumulating in row order within each
        # group — the row path's dict-insertion semantics.
        members: Dict[Any, List[int]] = {}
        for i, key in enumerate(keys):
            members.setdefault(key, []).append(i)
        groups: Dict[Any, np.ndarray] = {}
        for key, indices in members.items():
            if len(indices) == 1:
                groups[key] = contributions[indices[0]]
            else:
                groups[key] = np.cumsum(
                    contributions[indices], axis=0
                )[-1]
        return groups
