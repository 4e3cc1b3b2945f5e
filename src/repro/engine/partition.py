"""Partitioned tables and partition-aware morsel execution.

Slice 1 of the sharded data plane: a :class:`PartitionedTable` assigns
every row of an engine :class:`~repro.engine.table.Table` to one of
``n`` partitions by a key column — ``hash`` partitioning via the same
CRC-32 canonical-key assignment the mapreduce shuffle uses
(:mod:`repro.exec.keys`), or ``range`` partitioning over deterministic
boundaries derived from the sorted distinct keys — and the
:class:`PartitionedMorselExecutor` runs fused ``Filter``/``Project``
chains and fused aggregates one morsel per partition slice, fanned out
through the :mod:`repro.exec` substrate, with the merge restoring the
exact original row order.

Determinism argument (the partitioned plan must be byte-identical to
the unpartitioned one at every partition count, on every backend):

* partition assignment is a pure function of the key
  (:func:`repro.exec.keys.partition_index` / fixed range boundaries),
  never of arrival order, backend, or worker count;
* every fused stage is elementwise or row-local, so evaluating a
  partition slice is exactly evaluating those rows within the full
  batch;
* each surviving row carries its *original position* through every
  filter mask, and the driver merges with a stable argsort over
  positions — reproducing the unpartitioned row order exactly;
* anything order-sensitive (group accumulation, non-associative float
  addition) is not distributed: partitions only evaluate group keys and
  aggregate arguments, the merge restores source order, and the driver
  runs the same serial accumulation the unpartitioned executor runs;
* per-operator obs counters are summed over partition morsels — each
  source row is processed exactly once per stage, so the totals equal
  the serial counts; shuffle accounting lives in
  :class:`PartitionRun` records on the executor, **never** in the obs
  registry or :class:`ExecutionMetrics` (both must stay byte-identical
  to unpartitioned runs).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import plan as lp
from repro.engine.columnar import ColumnBatch
from repro.engine.fusion import (
    EvalStage,
    FilterStage,
    chain_stages,
    compile_stages,
    prune_columns,
)
from repro.engine.morsel import (
    MorselExecutor,
    _slice_batch,
)
from repro.engine.expressions import Column, Expression
from repro.engine.operators import (
    ExecutionMetrics,
    HashJoinExec,
    TableProvider,
    _concat_batches,
    _equi_keys,
)
from repro.engine.table import Table
from repro.errors import CatalogError
from repro.exec.keys import partition_index
from repro.exec.substrate import Substrate
from repro.parallel.backend import Backend

__all__ = [
    "PARTITION_SCOPE",
    "PartitionRun",
    "PartitionedMorselExecutor",
    "PartitionedTable",
]

#: Fault-plan scope for partition-parallel fan-outs; the task index is
#: the morsel's position in the deterministic (partition-major) order.
PARTITION_SCOPE = "engine.partition"

_SCHEMES = ("hash", "range")


class PartitionedTable:
    """A key-partitioned view over an engine table.

    Rows never move: the table stays one in-process
    :class:`~repro.engine.table.Table`, and the partitioning is a list
    of ascending original-row-position arrays, one per partition.  NULL
    keys land on partition 0 (both schemes), mirroring the convention
    that NULLs group first-seen in the columnar group-by.

    ``hash`` assigns ``partition_index(key, n)`` — the mapreduce
    shuffle's canonical CRC-32 assignment, so equality-equal numeric
    spellings (``1``/``1.0``/``True``) share a partition and a key keeps
    its partition across subsystem boundaries.  ``range`` derives ``n-1``
    boundaries from the sorted distinct keys at build time and assigns
    by binary search; boundaries are a pure function of the key set.
    """

    def __init__(
        self,
        table: Table,
        key: str,
        num_partitions: int,
        scheme: str = "hash",
    ) -> None:
        if num_partitions < 1:
            raise CatalogError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        if scheme not in _SCHEMES:
            raise CatalogError(
                f"unknown partition scheme {scheme!r}; expected one of "
                f"{_SCHEMES}"
            )
        if key not in table.schema.names:
            raise CatalogError(
                f"table {table.name!r} has no column {key!r} to "
                f"partition on"
            )
        self.table = table
        self.key = key
        self.num_partitions = num_partitions
        self.scheme = scheme
        #: ``(version, len, reorg_epoch, positions)`` of the table the
        #: positions were built for, replaced as one tuple.
        self._built: Optional[Tuple[int, int, int, List[np.ndarray]]] = None
        self._boundaries: List[Any] = []
        self._build()

    # -- assignment ----------------------------------------------------------
    def _range_boundaries(self, values: Sequence[Any]) -> List[Any]:
        distinct = sorted({v for v in values if v is not None})
        n = self.num_partitions
        if not distinct or n == 1:
            return []
        # n-1 cut points at even quantile offsets of the distinct keys:
        # deterministic, data-dependent, and stable under row reorder.
        return [
            distinct[(len(distinct) * i) // n]
            for i in range(1, n)
        ]

    def _assign(self, value: Any) -> int:
        if value is None:
            return 0
        if self.scheme == "hash":
            return partition_index(value, self.num_partitions)
        return bisect.bisect_right(self._boundaries, value)

    def _build(self) -> None:
        table = self.table
        version, n, epoch = table.version, len(table), table.reorg_epoch
        built = self._built
        # After pure appends (same reorg epoch, more rows) a hash
        # partitioning assigns only the new rows: assignment is a pure
        # function of the key, and new positions sort after old ones.
        # Range boundaries depend on the whole key set, so range rebuilds.
        append = (
            self.scheme == "hash"
            and built is not None
            and built[2] == epoch
            and built[1] < n
        )
        start = built[1] if append else 0
        values = [row[self.key] for row in table.rows[start:n]]
        if self.scheme == "range":
            self._boundaries = self._range_boundaries(values)
        assignment = np.fromiter(
            (self._assign(v) for v in values),
            dtype=np.int64,
            count=len(values),
        )
        positions = [
            start + np.flatnonzero(assignment == p)
            for p in range(self.num_partitions)
        ]
        if append:
            positions = [
                np.concatenate([old, new])
                for old, new in zip(built[3], positions)
            ]
        self._built = (version, n, epoch, positions)

    # -- public surface ------------------------------------------------------
    @property
    def stale(self) -> bool:
        """Whether the table mutated since the positions were built."""
        return self._built[:2] != (self.table.version, len(self.table))

    def refresh(self) -> "PartitionedTable":
        """Bring the position arrays up to date if the table has mutated.

        ``hash`` assigns only rows appended since the last build;
        anything else rebuilds every position.
        """
        if self.stale:
            self._build()
        return self

    def positions(self) -> List[np.ndarray]:
        """Ascending original-row positions, one array per partition."""
        self.refresh()
        return self._built[3]

    def partition_sizes(self) -> List[int]:
        """Row count per partition (diagnostics / shuffle accounting)."""
        return [int(p.size) for p in self.positions()]

    def compatible_with(self, other: "PartitionedTable") -> bool:
        """Whether equal keys land on equal partition indices in both.

        True iff the schemes and partition counts match — and, for
        ``range`` partitioning, the boundary lists too (hash assignment
        is a pure function of (key, n); range assignment also depends on
        the data-derived cut points).  This is the co-partitioned join's
        admission test: when it holds, every joinable row pair already
        co-locates and shard-i-against-shard-i probing is exhaustive.
        """
        if self.scheme != other.scheme:
            return False
        if self.num_partitions != other.num_partitions:
            return False
        if self.scheme == "range":
            self.refresh()
            other.refresh()
            if self._boundaries != other._boundaries:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PartitionedTable {self.table.name!r} key={self.key!r} "
            f"scheme={self.scheme} n={self.num_partitions}>"
        )


# -- shuffle accounting ------------------------------------------------------

@dataclass
class PartitionRun:
    """Accounting for one partition-parallel operator execution.

    Deliberately *outside* the obs registry and
    :class:`ExecutionMetrics`: partitioned results — including metric
    and obs snapshots — must stay byte-identical to unpartitioned runs,
    so the shuffle bookkeeping rides on the executor instead.
    """

    table: str
    key: str
    scheme: str
    partitions: int
    partition_rows: List[int] = field(default_factory=list)
    morsels: int = 0
    rows_in: int = 0
    rows_merged: int = 0
    #: Bytes a repartitioning hash join would have had to move between
    #: partitions (both sides' column payloads); zero for scan fan-outs.
    shuffle_bytes_avoided: int = 0


class _TrackedPipeline:
    """A fused pipeline that carries original row positions through.

    Like :class:`repro.engine.fusion.FusedPipeline` (same per-stage
    ``counts`` contract), but filters also apply their keep mask to the
    position array so the driver can merge partition outputs back into
    exact source order.  Picklable for the process backend.
    """

    __slots__ = ("stages",)

    def __init__(self, stages: Sequence[object]) -> None:
        self.stages = tuple(stages)

    def __call__(
        self, batch: ColumnBatch, positions: np.ndarray
    ) -> Tuple[ColumnBatch, np.ndarray, Tuple[int, ...]]:
        counts: List[int] = []
        for stage in self.stages:
            if isinstance(stage, FilterStage):
                mask = stage.predicate_mask(batch)
                batch = batch.take(mask)
                positions = positions[mask]
            else:
                batch = stage.apply(batch)
            counts.append(batch.length)
        return batch, positions, tuple(counts)

    def __getstate__(self):
        return self.stages

    def __setstate__(self, state):
        self.stages = state


def _apply_tracked(payload):
    """Worker task: one tracked pipeline over one partition morsel."""
    pipeline, morsel, positions = payload
    return pipeline(morsel, positions)


def _co_partition_pairs(payload):
    """Worker task: hash-probe one partition's key-code slices.

    ``payload`` is ``(lcodes_slice, rcodes_slice)`` — both sides' jointly
    factorized codes restricted to one partition.  Pure and picklable;
    the driver maps the local pair indices back through the partition's
    original-position arrays.
    """
    lcodes, rcodes = payload
    return HashJoinExec().candidate_pairs(lcodes, rcodes)


class PartitionedMorselExecutor(MorselExecutor):
    """Morsel executor whose morsels parallelize *across* partitions.

    For a fused chain or fused aggregate whose source is a ``Scan`` of a
    partitioned table, the source batch is sliced per partition, each
    slice is split into morsels, and all morsels fan out through the
    :mod:`repro.exec` substrate in deterministic partition-major order
    under the ``engine.partition`` fault scope.  Every other plan shape
    (joins, sorts, LIMIT, non-partitioned scans) falls back to the
    inherited morsel/columnar/row machinery unchanged — partitioning can
    never change results, metrics, or obs output.
    """

    def __init__(
        self,
        provider: TableProvider,
        metrics: Optional[ExecutionMetrics] = None,
        morsel_size: Optional[int] = None,
        backend: Optional[Backend] = None,
    ) -> None:
        super().__init__(provider, metrics, morsel_size, backend)
        self.substrate = Substrate(self.backend)
        #: One record per partition-parallel operator execution, in
        #: execution order; reset by callers between queries as needed.
        self.partition_runs: List[PartitionRun] = []

    # -- plumbing ---------------------------------------------------------
    def _scan_partitioning(
        self, source: lp.PlanNode
    ) -> Optional[PartitionedTable]:
        if not isinstance(source, lp.Scan):
            return None
        lookup = getattr(self.provider, "partitioning", None)
        if lookup is None:
            return None
        parted = lookup(source.table)
        if parted is None:
            return None
        # The positions index the provider-resolved table; a diverging
        # resolution (e.g. a session overlay shadowing the base table)
        # must not be partition-executed against stale positions.
        if parted.table is not self.provider.resolve_table(source.table):
            return None
        return parted

    def _map_partitions(
        self,
        parted: PartitionedTable,
        pipeline: _TrackedPipeline,
        pruned: ColumnBatch,
    ) -> Tuple[List[Tuple[ColumnBatch, np.ndarray, Tuple[int, ...]]], PartitionRun]:
        """Fan one tracked pipeline over every partition's morsels."""
        tasks: List[Tuple[_TrackedPipeline, ColumnBatch, np.ndarray]] = []
        for positions in parted.positions():
            part_batch = pruned.take(positions)
            size = self.morsel_size
            bounds = [
                (lo, min(lo + size, part_batch.length))
                for lo in range(0, part_batch.length, size)
            ] or [(0, 0)]
            for lo, hi in bounds:
                tasks.append(
                    (
                        pipeline,
                        _slice_batch(part_batch, lo, hi),
                        positions[lo:hi],
                    )
                )
        run = PartitionRun(
            table=parted.table.name,
            key=parted.key,
            scheme=parted.scheme,
            partitions=parted.num_partitions,
            partition_rows=parted.partition_sizes(),
            morsels=len(tasks),
            rows_in=pruned.length,
        )
        if len(tasks) == 1:
            results = [pipeline(tasks[0][1], tasks[0][2])]
        else:
            results = self.substrate.submit(
                _apply_tracked,
                tasks,
                scope=PARTITION_SCOPE,
                quiet=True,
            )
        return results, run

    @staticmethod
    def _merge_tracked(
        results: Sequence[Tuple[ColumnBatch, np.ndarray, Tuple[int, ...]]],
    ) -> Tuple[ColumnBatch, np.ndarray]:
        """Concatenate partition outputs and restore source row order."""
        merged = _concat_batches([batch for batch, _, _ in results])
        positions = (
            np.concatenate([pos for _, pos, _ in results])
            if results
            else np.empty(0, dtype=np.int64)
        )
        if positions.size:
            order = np.argsort(positions, kind="stable")
            merged = merged.take(order)
        return merged, positions

    def _sum_counts(
        self,
        results: Sequence[Tuple[ColumnBatch, np.ndarray, Tuple[int, ...]]],
        n_stages: int,
    ) -> List[int]:
        totals = [0] * n_stages
        for _, _, counts in results:
            for i in range(n_stages):
                totals[i] += counts[i]
        return totals

    # -- fused filter/project chain over a partitioned scan ---------------
    def _chain_morsel_batch(self, node: lp.PlanNode) -> ColumnBatch:
        source, stage_nodes = chain_stages(node)
        parted = self._scan_partitioning(source)
        if parted is None:
            return super()._chain_morsel_batch(node)
        src = self._child_batch(source)
        pipeline = _TrackedPipeline(compile_stages(stage_nodes))
        results, run = self._map_partitions(
            parted, pipeline, prune_columns(src, stage_nodes)
        )
        totals = self._sum_counts(results, len(stage_nodes))
        # Top node's counter comes from the generic _run_batch wrapper
        # (merged length == the serial count); inner stages here.
        self._emit_stage_obs(stage_nodes[:-1], totals[:-1])
        merged, _ = self._merge_tracked(results)
        run.rows_merged = merged.length
        self.partition_runs.append(run)
        return merged

    # -- fused aggregate over a partitioned scan ---------------------------
    def _aggregate_morsel_batch(self, node: lp.Aggregate) -> ColumnBatch:
        found = chain_stages(node.child)
        source, stage_nodes = (
            found if found is not None else (node.child, [])
        )
        parted = self._scan_partitioning(source)
        if parted is None:
            return super()._aggregate_morsel_batch(node)
        key_names = [f"__key{i}" for i in range(len(node.group_by))]
        arg_names: List[Optional[str]] = []
        eval_exprs = list(node.group_by)
        eval_names = list(key_names)
        for i, spec in enumerate(node.aggregates):
            if spec.argument is None:
                arg_names.append(None)
            else:
                name = f"__arg{i}"
                arg_names.append(name)
                eval_exprs.append(spec.argument)
                eval_names.append(name)
        src = self._child_batch(source)
        stages = compile_stages(stage_nodes)
        stages.append(EvalStage(eval_exprs, eval_names))
        pipeline = _TrackedPipeline(stages)
        results, run = self._map_partitions(
            parted, pipeline, prune_columns(src, stage_nodes, eval_exprs)
        )
        totals = self._sum_counts(results, len(stage_nodes))
        self._emit_stage_obs(stage_nodes, totals)
        # Restore source row order before the (order-sensitive) serial
        # accumulation: group first-seen order and float addition order
        # then match the unpartitioned executor exactly.
        merged, _ = self._merge_tracked(results)
        run.rows_merged = merged.length
        self.partition_runs.append(run)
        n = merged.length
        merged_cols: Dict[str, Any] = {
            name: merged.columns[name] for name in eval_names
        }
        key_vecs = [merged_cols[name] for name in key_names]
        arg_vecs = [
            None if name is None else merged_cols[name] for name in arg_names
        ]
        return self._finish_aggregate(node, key_vecs, arg_vecs, n)

    # -- co-partitioned equi-join ------------------------------------------
    @staticmethod
    def _names_key(expr: Expression, key: str) -> bool:
        return isinstance(expr, Column) and (
            expr.name == key or expr.name.endswith("." + key)
        )

    @staticmethod
    def _batch_nbytes(batch: ColumnBatch) -> int:
        total = 0
        for vec in batch.columns.values():
            total += int(vec.values.nbytes) + int(vec.valid.nbytes)
        return total

    def _join_batches(
        self, node: lp.Join, left: ColumnBatch, right: ColumnBatch
    ) -> ColumnBatch:
        """Route optimizer-selected co-partitioned joins shard-by-shard.

        Every guard here re-checks at execution time what the optimizer
        saw at plan time (partitionings can be dropped or mutated in
        between); any mismatch falls back to the inherited path, where
        ``co_partitioned`` degrades to a plain hash join — partitioning
        can never change results.
        """
        if (
            node.algorithm != "co_partitioned"
            or node.condition is None
            or left.length == 0
            or right.length == 0
        ):
            return super()._join_batches(node, left, right)
        parted_l = self._scan_partitioning(node.left)
        parted_r = self._scan_partitioning(node.right)
        if (
            parted_l is None
            or parted_r is None
            or not parted_l.compatible_with(parted_r)
        ):
            return super()._join_batches(node, left, right)
        lkeys, rkeys, residual = _equi_keys(
            node.condition,
            dict.fromkeys(left.names),
            dict.fromkeys(right.names),
        )
        if not any(
            self._names_key(lk, parted_l.key)
            and self._names_key(rk, parted_r.key)
            for lk, rk in zip(lkeys, rkeys)
        ):
            return super()._join_batches(node, left, right)
        # Joint factorization gives equal keys equal codes across sides,
        # and collapses exactly the equality classes the canonical CRC-32
        # partitioner collapses — so equal codes always share a
        # partition, and probing shard-i-against-shard-i is exhaustive.
        lcodes, rcodes = self._join_key_codes(left, right, lkeys, rkeys)
        lpos = parted_l.positions()
        rpos = parted_r.positions()
        tasks = [
            (lcodes[lpos[p]], rcodes[rpos[p]])
            for p in range(parted_l.num_partitions)
        ]
        run = PartitionRun(
            table=f"{parted_l.table.name} join {parted_r.table.name}",
            key=parted_l.key,
            scheme=parted_l.scheme,
            partitions=parted_l.num_partitions,
            partition_rows=[
                int(lp_.size + rp_.size) for lp_, rp_ in zip(lpos, rpos)
            ],
            morsels=len(tasks),
            rows_in=left.length + right.length,
            shuffle_bytes_avoided=(
                self._batch_nbytes(left) + self._batch_nbytes(right)
            ),
        )
        if len(tasks) == 1:
            local = [_co_partition_pairs(tasks[0])]
        else:
            local = self.substrate.submit(
                _co_partition_pairs,
                tasks,
                scope=PARTITION_SCOPE,
                quiet=True,
            )
        pair_left = np.concatenate(
            [lpos[p][pl] for p, (pl, _) in enumerate(local)]
        )
        pair_right = np.concatenate(
            [rpos[p][pr] for p, (_, pr) in enumerate(local)]
        )
        # Hash emits pairs sorted by (left, right) original positions;
        # restoring that global order makes residual evaluation, metrics,
        # and row order byte-identical to the unpartitioned hash join.
        emit = np.lexsort((pair_right, pair_left))
        merged = self._finish_equi_join(
            left, right,
            pair_left[emit].astype(np.int64),
            pair_right[emit].astype(np.int64),
            residual, node.how,
        )
        run.rows_merged = merged.length
        self.partition_runs.append(run)
        return merged
