"""Tuple-bundle query processing.

MCDB's key performance technique (Section 2.1): rather than instantiating
the database once per Monte Carlo iteration and running the query plan each
time, a *tuple bundle* "encapsulates the instantiations of a tuple over a
set of Monte Carlo iterations" so the plan executes only once.

Here a bundled row maps column names to either a scalar (the column is
deterministic for that tuple) or a numpy array of length ``n_mc`` (one value
per Monte Carlo iteration).  Each row also carries a boolean *presence
mask* recording the iterations in which the tuple exists (selections make
the mask data-dependent).  Aggregations then collapse the bundled relation
into per-iteration samples of the query-result distribution.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.errors import QueryError

Row = Dict[str, Any]
MASK_COLUMN = "__present__"


def _broadcast(value: Any, n_mc: int) -> np.ndarray:
    """View a scalar or array column value as a length-``n_mc`` array."""
    if isinstance(value, np.ndarray):
        if value.shape != (n_mc,):
            raise QueryError(
                f"bundle column has shape {value.shape}, expected ({n_mc},)"
            )
        return value
    return np.full(n_mc, value)


class BundledTable:
    """A relation whose uncertain columns are bundled over MC iterations."""

    def __init__(self, name: str, rows: List[Row], n_mc: int) -> None:
        if n_mc < 1:
            raise QueryError("n_mc must be >= 1")
        self.name = name
        self.n_mc = n_mc
        self.rows: List[Row] = []
        for row in rows:
            stored = dict(row)
            if MASK_COLUMN not in stored:
                stored[MASK_COLUMN] = np.ones(n_mc, dtype=bool)
            self.rows.append(stored)

    def __len__(self) -> int:
        return len(self.rows)

    def to_columnar(self):
        """Transpose into a :class:`~repro.mcdb.columnar_bundle
        .ColumnarBundleTable` (one matrix per column).

        Raises :class:`~repro.errors.QueryError` when tuples carry
        different column sets (such bundles stay row-bundled).
        """
        from repro.mcdb.columnar_bundle import ColumnarBundleTable

        return ColumnarBundleTable.from_bundled(self)

    # -- operators ----------------------------------------------------------
    def filter(
        self, predicate: Callable[[Row], np.ndarray]
    ) -> "BundledTable":
        """Per-iteration selection.

        ``predicate`` receives a row whose columns are arrays of length
        ``n_mc`` and returns a boolean array: the iterations in which the
        tuple satisfies the predicate.  Rows absent from every iteration
        are dropped entirely.
        """
        out_rows: List[Row] = []
        for row in self.rows:
            widened = {
                k: (_broadcast(v, self.n_mc) if k != MASK_COLUMN else v)
                for k, v in row.items()
            }
            keep = np.asarray(predicate(widened), dtype=bool)
            if keep.shape != (self.n_mc,):
                raise QueryError(
                    f"bundle predicate returned shape {keep.shape}, "
                    f"expected ({self.n_mc},)"
                )
            mask = row[MASK_COLUMN] & keep
            if mask.any():
                new_row = dict(row)
                new_row[MASK_COLUMN] = mask
                out_rows.append(new_row)
        return BundledTable(self.name, out_rows, self.n_mc)

    def derive(
        self, column: str, fn: Callable[[Row], np.ndarray]
    ) -> "BundledTable":
        """Add a computed column ``column = fn(row)`` (per iteration)."""
        out_rows: List[Row] = []
        for row in self.rows:
            widened = {
                k: (_broadcast(v, self.n_mc) if k != MASK_COLUMN else v)
                for k, v in row.items()
            }
            new_row = dict(row)
            new_row[column] = np.asarray(fn(widened))
            out_rows.append(new_row)
        return BundledTable(self.name, out_rows, self.n_mc)

    def join_deterministic(
        self,
        other_rows: Sequence[Mapping[str, Any]],
        left_key: str,
        right_key: str,
    ) -> "BundledTable":
        """Equi-join with a deterministic relation on deterministic keys.

        The join key must be a scalar (certain) column on the bundle side;
        matching deterministic rows contribute scalar columns.
        """
        index: Dict[Any, List[Mapping[str, Any]]] = {}
        for other in other_rows:
            index.setdefault(other[right_key], []).append(other)
        out_rows: List[Row] = []
        for row in self.rows:
            key = row.get(left_key)
            if isinstance(key, np.ndarray):
                raise QueryError(
                    f"join key {left_key!r} is uncertain; tuple-bundle "
                    "joins require deterministic keys"
                )
            for other in index.get(key, ()):
                merged = dict(row)
                for column, value in other.items():
                    if column == right_key and left_key == right_key:
                        continue
                    if column in merged and column != right_key:
                        raise QueryError(
                            f"join would clobber column {column!r}"
                        )
                    merged.setdefault(column, value)
                out_rows.append(merged)
        return BundledTable(self.name, out_rows, self.n_mc)

    # -- aggregation -----------------------------------------------------
    def aggregate_sum(self, column: str) -> np.ndarray:
        """Per-iteration SUM over present tuples.

        Returns an array of length ``n_mc``: one sample of the
        query-result distribution per Monte Carlo iteration.
        """
        total = np.zeros(self.n_mc)
        for row in self.rows:
            values = _broadcast(row[column], self.n_mc).astype(float)
            total += np.where(row[MASK_COLUMN], values, 0.0)
        return total

    def aggregate_count(self) -> np.ndarray:
        """Per-iteration COUNT(*) over present tuples."""
        total = np.zeros(self.n_mc, dtype=int)
        for row in self.rows:
            total += row[MASK_COLUMN].astype(int)
        return total

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
        best = np.full(self.n_mc, fill)
        for row in self.rows:
            values = _broadcast(row[column], self.n_mc).astype(float)
            masked = np.where(row[MASK_COLUMN], values, fill)
            best = np.minimum(best, masked) if minimum else np.maximum(best, masked)
        return np.where(np.isfinite(best), best, np.nan)

    def aggregate_quantile(self, column: str, q: float) -> np.ndarray:
        """Per-iteration ``q``-quantile of ``column`` over present tuples.

        Returns ``nan`` for iterations in which no tuple is present.
        Used for risk-style queries where the query result itself is a
        quantile (e.g. the per-scenario 95th-percentile claim size).
        """
        if not 0.0 <= q <= 1.0:
            raise QueryError(f"quantile level must be in [0,1], got {q}")
        out = np.full(self.n_mc, np.nan)
        if not self.rows:
            return out
        values = np.stack(
            [_broadcast(row[column], self.n_mc).astype(float) for row in self.rows]
        )
        masks = np.stack([row[MASK_COLUMN] for row in self.rows])
        for i in range(self.n_mc):
            present = values[masks[:, i], i]
            if present.size:
                out[i] = float(np.quantile(present, q))
        return out

    def grouped_aggregate_sum(
        self, group_column: str, value_column: str
    ) -> Dict[Any, np.ndarray]:
        """Per-iteration SUM per (deterministic) group key."""
        groups: Dict[Any, np.ndarray] = {}
        for row in self.rows:
            key = row.get(group_column)
            if isinstance(key, np.ndarray):
                raise QueryError(
                    f"group key {group_column!r} must be deterministic"
                )
            values = _broadcast(row[value_column], self.n_mc).astype(float)
            contribution = np.where(row[MASK_COLUMN], values, 0.0)
            if key in groups:
                groups[key] = groups[key] + contribution
            else:
                groups[key] = contribution
        return groups
