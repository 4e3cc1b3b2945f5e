"""Morsel-parallel columnar execution.

:class:`MorselExecutor` extends the batch-at-a-time
:class:`~repro.engine.operators.ColumnarExecutor` with morsel
parallelism: the source batch of a fusible ``Filter``/``Project`` chain
is split into fixed-size *morsels* (zero-copy NumPy slices), each morsel
runs the whole fused pipeline (:mod:`repro.engine.fusion`) as one task
on a :mod:`repro.parallel` backend, and the results are merged back **in
morsel order** — so values, row order, :class:`ExecutionMetrics` and the
deterministic ``values`` section of an obs snapshot are byte-identical
to serial columnar execution and to the row interpreter, on every
backend.

Determinism argument, in brief (see DESIGN.md for the full version):

* every fused stage is elementwise or row-local, so evaluating a morsel
  is exactly evaluating those rows within the full batch — splitting
  then concatenating in morsel order reproduces the full-batch result
  row for row;
* anything order-sensitive (group accumulation, whose float additions
  are non-associative) is **not** distributed: morsels only evaluate the
  group keys and aggregate arguments, and the driver runs the serial
  accumulation over the morsel-order concatenation, which is the same
  value sequence the serial executor feeds it;
* workers execute under ``repro.obs.suppressed()`` and the driver maps
  with ``quiet=True``, so no ``parallel.*`` metric leaks into the
  snapshot; per-operator counters are recomputed at the driver from the
  per-morsel row counts, which sum to the serial totals.

The knob: ``REPRO_ENGINE_MORSEL=<size>`` enables the executor globally,
``db.sql(..., morsel_size=...)`` / ``Query.run(morsel_size=...)`` per
query.  When unset, plans run through the plain columnar or row
executor with no added work beyond one environment-variable read.
Scans read the same cached batch on every vectorized executor
(:meth:`repro.engine.table.Table.column_batch`).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import plan as lp
from repro.engine.columnar import ColumnBatch, ColumnVector, concat_vectors
from repro.engine.expressions import evaluate_batch
from repro.engine.fusion import (
    EvalStage,
    FusedPipeline,
    chain_stages,
    compile_stages,
    limit_chain,
    prune_columns,
)
from repro.engine.operators import (
    ColumnarExecutor,
    ExecutionMetrics,
    TableProvider,
    _concat_batches,
    scan_columns,
)
from repro.errors import QueryError
from repro.obs import get_observer
from repro.parallel.backend import Backend, get_backend

__all__ = [
    "MORSEL_ENV_VAR",
    "MORSEL_SCOPE",
    "DEFAULT_MORSEL_SIZE",
    "MorselExecutor",
    "resolve_morsel_size",
    "split_batch",
]

#: Environment knob enabling morsel execution for every query that does
#: not pass an explicit ``morsel_size=`` argument.
MORSEL_ENV_VAR = "REPRO_ENGINE_MORSEL"

#: Fault-plan scope tag for morsel fan-outs (``FaultPlan`` targeting).
MORSEL_SCOPE = "engine.morsel"

#: Morsel size when the executor is constructed directly without one.
DEFAULT_MORSEL_SIZE = 4096


def resolve_morsel_size(requested: Optional[int] = None) -> Optional[int]:
    """Resolve the effective morsel size, or ``None`` when disabled.

    Precedence: explicit ``requested`` argument, then the
    ``REPRO_ENGINE_MORSEL`` environment variable; with neither, morsel
    execution is off and the legacy executors run untouched.
    """
    if requested is None:
        raw = os.environ.get(MORSEL_ENV_VAR, "").strip()
        if not raw:
            return None
        try:
            requested = int(raw)
        except ValueError:
            raise QueryError(
                f"{MORSEL_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    size = int(requested)
    if size < 1:
        raise QueryError(f"morsel size must be >= 1, got {size}")
    return size


def _slice_vector(vec: ColumnVector, lo: int, hi: int) -> ColumnVector:
    # NumPy basic slicing returns views: splitting a batch into morsels
    # copies no data (pickling a view for the process backend serializes
    # only the slice's own elements).
    return ColumnVector(vec.kind, vec.values[lo:hi], vec.valid[lo:hi])


def _slice_batch(batch: ColumnBatch, lo: int, hi: int) -> ColumnBatch:
    columns = {
        name: _slice_vector(vec, lo, hi)
        for name, vec in batch.columns.items()
    }
    return ColumnBatch(columns, hi - lo)


def split_batch(batch: ColumnBatch, size: int) -> List[ColumnBatch]:
    """Split a batch into contiguous morsels of at most ``size`` rows.

    A batch of zero rows yields one empty morsel, so pipelines always
    run at least once and empty results keep their column names.
    """
    if size < 1:
        raise QueryError(f"morsel size must be >= 1, got {size}")
    if batch.length <= size:
        return [batch]
    return [
        _slice_batch(batch, lo, min(lo + size, batch.length))
        for lo in range(0, batch.length, size)
    ]


def _apply_pipeline(payload: Tuple[FusedPipeline, ColumnBatch]):
    """Worker task: run one fused pipeline over one morsel."""
    pipeline, morsel = payload
    return pipeline(morsel)


class MorselExecutor(ColumnarExecutor):
    """Columnar executor with fused, morsel-parallel chains.

    Inherits every per-node handler (and the row fallback) from
    :class:`ColumnarExecutor`; on top of that it intercepts three plan
    shapes:

    * a fusible ``Filter``/``Project`` chain — fused into one pipeline
      and fanned out over morsels via ``Backend.map``;
    * a batchable ``Aggregate`` over such a chain — the chain plus the
      evaluation of group keys and aggregate arguments runs per morsel,
      then the driver performs the serial accumulation on the
      morsel-order concatenation (float addition is non-associative, so
      partial per-morsel aggregation would break byte identity);
    * ``Limit`` over a chain on a ``Scan``/uniform-``Values`` source —
      evaluated morsel-incrementally with an early stop, reconstructing
      the row engine's exact short-circuit operator counts from the keep
      masks.
    """

    def __init__(
        self,
        provider: TableProvider,
        metrics: Optional[ExecutionMetrics] = None,
        morsel_size: Optional[int] = None,
        backend: Optional[Backend] = None,
    ) -> None:
        super().__init__(provider, metrics)
        resolved = resolve_morsel_size(morsel_size)
        self.morsel_size = (
            resolved if resolved is not None else DEFAULT_MORSEL_SIZE
        )
        self.backend = get_backend(backend)

    # -- dispatch --------------------------------------------------------
    def _batch_handler(self, node: lp.PlanNode):
        if isinstance(node, (lp.Filter, lp.Project)):
            if chain_stages(node) is not None:
                return self._chain_morsel_batch
            return super()._batch_handler(node)
        if isinstance(node, lp.Limit):
            if limit_chain(node) is not None:
                return self._limit_morsel_batch
            return None
        if isinstance(node, lp.Aggregate):
            if super()._batch_handler(node) is not None:
                return self._aggregate_morsel_batch
            return None
        return super()._batch_handler(node)

    # -- shared plumbing -------------------------------------------------
    def _map_pipeline(
        self, pipeline: FusedPipeline, batch: ColumnBatch
    ) -> List[Tuple[ColumnBatch, Tuple[int, ...]]]:
        morsels = split_batch(batch, self.morsel_size)
        if len(morsels) == 1:
            return [pipeline(morsels[0])]
        return self.backend.map(
            _apply_pipeline,
            [(pipeline, morsel) for morsel in morsels],
            scope=MORSEL_SCOPE,
            quiet=True,
        )

    def _emit_stage_obs(
        self, stage_nodes: Sequence[lp.PlanNode], totals: Sequence[int]
    ) -> None:
        observer = get_observer()
        if not observer.enabled:
            return
        for node, total in zip(stage_nodes, totals):
            label = lp.node_label(node)
            observer.counter("engine.operator.rows", op=label).add(int(total))
            observer.timer("engine.operator.seconds", op=label).add(0.0)

    # -- fused filter/project chain --------------------------------------
    def _chain_morsel_batch(self, node: lp.PlanNode) -> ColumnBatch:
        source, stage_nodes = chain_stages(node)
        src = self._child_batch(source)
        pipeline = FusedPipeline(compile_stages(stage_nodes))
        results = self._map_pipeline(
            pipeline, prune_columns(src, stage_nodes)
        )
        totals = [0] * len(stage_nodes)
        for _, counts in results:
            for i, count in enumerate(counts):
                totals[i] += count
        # The top node's counter comes from the generic _run_batch
        # wrapper (merged length == the serial count); inner stages are
        # emitted here.
        self._emit_stage_obs(stage_nodes[:-1], totals[:-1])
        return _concat_batches([batch for batch, _ in results])

    # -- fused aggregate --------------------------------------------------
    def _aggregate_morsel_batch(self, node: lp.Aggregate) -> ColumnBatch:
        found = chain_stages(node.child)
        source, stage_nodes = (
            found if found is not None else (node.child, [])
        )
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
        pipeline = FusedPipeline(stages)
        results = self._map_pipeline(
            pipeline, prune_columns(src, stage_nodes, eval_exprs)
        )
        totals = [0] * len(stage_nodes)
        for _, counts in results:
            for i in range(len(stage_nodes)):
                totals[i] += counts[i]
        self._emit_stage_obs(stage_nodes, totals)
        evaluated = [batch for batch, _ in results]
        n = sum(batch.length for batch in evaluated)
        merged = {
            name: concat_vectors([b.columns[name] for b in evaluated])
            for name in eval_names
        }
        key_vecs = [merged[name] for name in key_names]
        arg_vecs = [
            None if name is None else merged[name] for name in arg_names
        ]
        return self._finish_aggregate(node, key_vecs, arg_vecs, n)

    # -- vectorized LIMIT -------------------------------------------------
    def _limit_morsel_batch(self, node: lp.Limit) -> ColumnBatch:
        """Morsel-incremental LIMIT with exact short-circuit accounting.

        The row engine's ``_limit`` pulls ``count`` rows plus one probe
        row from its child before stopping; every operator below it
        therefore reports exactly the rows it yielded up to that point.
        This path replicates those numbers: morsels are evaluated in
        order (serially — fanning out would evaluate past the stopping
        point) while tracking each surviving row's source position, the
        scan stops at the morsel containing the probe row, and the
        per-operator counts are recomputed from positions strictly
        before the stop.  The one documented divergence: evaluation is
        morsel-granular, so expressions may be evaluated for rows
        between the stopping point and the end of that morsel — rows the
        row engine never touches — and an error raised there surfaces.
        """
        source, stage_nodes = limit_chain(node)
        if isinstance(source, lp.Scan):
            table = self.provider.resolve_table(source.table)
            src = scan_columns(table, source.alias)
        else:
            src = ColumnBatch.from_rows([dict(r) for r in source.rows])
        stages = compile_stages(stage_nodes)
        pruned = prune_columns(src, stage_nodes)
        n = src.length
        target = node.count + 1  # the row engine's probe pull
        size = self.morsel_size
        bounds = [
            (lo, min(lo + size, n)) for lo in range(0, n, size)
        ] or [(0, 0)]
        outputs: List[ColumnBatch] = []
        stage_positions: List[List[np.ndarray]] = []
        survivors = 0
        stop = n  # source rows pulled; n when the child is exhausted
        for lo, hi in bounds:
            morsel = _slice_batch(pruned, lo, hi)
            positions = np.arange(lo, hi, dtype=np.int64)
            per_stage: List[np.ndarray] = []
            for stage_node, stage in zip(stage_nodes, stages):
                if isinstance(stage_node, lp.Filter):
                    mask = stage.predicate_mask(morsel)
                    morsel = morsel.take(mask)
                    positions = positions[mask]
                else:
                    morsel = stage.apply(morsel)
                per_stage.append(positions)
            outputs.append(morsel)
            stage_positions.append(per_stage)
            if survivors + len(positions) >= target:
                stop = int(positions[target - survivors - 1]) + 1
                survivors = target
                break
            survivors += len(positions)
        observer = get_observer()
        if observer.enabled:
            label = lp.node_label(source)
            observer.counter("engine.operator.rows", op=label).add(stop)
            observer.timer("engine.operator.seconds", op=label).add(0.0)
            for j, stage_node in enumerate(stage_nodes):
                pulled = sum(
                    int(np.count_nonzero(per_stage[j] < stop))
                    for per_stage in stage_positions
                )
                slabel = lp.node_label(stage_node)
                observer.counter("engine.operator.rows", op=slabel).add(
                    pulled
                )
                observer.timer("engine.operator.seconds", op=slabel).add(0.0)
        if isinstance(source, lp.Scan):
            self.metrics.rows_scanned += stop
        merged = _concat_batches(outputs)
        kept = min(node.count, merged.length)
        return merged.take(np.arange(kept, dtype=np.int64))
