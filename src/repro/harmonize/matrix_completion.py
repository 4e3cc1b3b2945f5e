"""DSGD matrix completion (Gemulla et al. [21]).

The stratified-SGD idea behind the spline solver originated in matrix
completion for recommender systems: factor a sparse ratings matrix
``V ~ W H`` by SGD over observed entries.  Stratifying the entries into
sets of pairwise "non-interchangeable" blocks — block ``(i, j)`` conflicts
with ``(i', j')`` iff they share a row-block or column-block — lets each
stratum (a diagonal of blocks, i.e. a permutation) run fully in parallel.
The paper reports that DSGD "leads to best-of-breed matrix completion
algorithms on a variety of architectures" [40].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class RatingsMatrix:
    """A sparse observed matrix: parallel (row, col, value) arrays."""

    num_rows: int
    num_cols: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not (self.rows.shape == self.cols.shape == self.values.shape):
            raise SimulationError("rows/cols/values must be equal length")
        if self.rows.size == 0:
            raise SimulationError("need at least one observed entry")
        if self.rows.max() >= self.num_rows or self.cols.max() >= self.num_cols:
            raise SimulationError("entry index out of bounds")

    @property
    def num_observed(self) -> int:
        """Number of observed entries."""
        return int(self.rows.size)

    @classmethod
    def synthetic(
        cls,
        num_rows: int,
        num_cols: int,
        rank: int,
        density: float,
        rng: np.random.Generator,
        noise_sd: float = 0.05,
    ) -> Tuple["RatingsMatrix", np.ndarray, np.ndarray]:
        """A random low-rank matrix observed at random positions.

        Returns the observations plus the true factors (for evaluating
        recovery error in tests/benchmarks).
        """
        if not 0.0 < density <= 1.0:
            raise SimulationError("density must be in (0, 1]")
        w_true = rng.normal(0, 1.0 / np.sqrt(rank), size=(num_rows, rank))
        h_true = rng.normal(0, 1.0 / np.sqrt(rank), size=(rank, num_cols))
        full = w_true @ h_true
        n_obs = max(int(density * num_rows * num_cols), rank * (num_rows + num_cols))
        n_obs = min(n_obs, num_rows * num_cols)
        flat = rng.choice(num_rows * num_cols, size=n_obs, replace=False)
        rows, cols = np.divmod(flat, num_cols)
        values = full[rows, cols] + rng.normal(0, noise_sd, size=n_obs)
        return (
            cls(num_rows, num_cols, rows, cols, values),
            w_true,
            h_true,
        )


@dataclass
class FactorizationResult:
    """Fitted factors plus training diagnostics."""

    w: np.ndarray
    h: np.ndarray
    loss_history: List[float]
    records_shuffled: int

    def predict(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Predicted values at the given positions."""
        return np.einsum("ik,ki->i", self.w[rows], self.h[:, cols])

    @property
    def final_loss(self) -> float:
        """Training RMSE after the final epoch."""
        return self.loss_history[-1]


def _rmse(matrix: RatingsMatrix, w: np.ndarray, h: np.ndarray) -> float:
    pred = np.einsum("ik,ki->i", w[matrix.rows], h[:, matrix.cols])
    return float(np.sqrt(np.mean((pred - matrix.values) ** 2)))


def _sgd_entry_update(
    w: np.ndarray,
    h: np.ndarray,
    i: int,
    j: int,
    value: float,
    step: float,
    reg: float,
) -> None:
    error = float(w[i] @ h[:, j]) - value
    w_row = w[i].copy()
    w[i] -= step * (error * h[:, j] + reg * w[i])
    h[:, j] -= step * (error * w_row + reg * h[:, j])


def sgd_factorize(
    matrix: RatingsMatrix,
    rank: int,
    rng: np.random.Generator,
    epochs: int = 30,
    step: float = 0.2,
    reg: float = 0.005,
) -> FactorizationResult:
    """Plain sequential SGD over shuffled observed entries.

    Shuffle cost model: without stratification every update can touch any
    factor block, so a distributed run would shuffle one record per
    update.
    """
    if rank < 1 or epochs < 1:
        raise SimulationError("rank and epochs must be >= 1")
    w = rng.normal(0, 0.1, size=(matrix.num_rows, rank))
    h = rng.normal(0, 0.1, size=(rank, matrix.num_cols))
    losses = [_rmse(matrix, w, h)]
    n = matrix.num_observed
    for epoch in range(epochs):
        order = rng.permutation(n)
        eta = step / (1.0 + epoch * 0.1)
        for idx in order:
            _sgd_entry_update(
                w,
                h,
                int(matrix.rows[idx]),
                int(matrix.cols[idx]),
                float(matrix.values[idx]),
                eta,
                reg,
            )
        losses.append(_rmse(matrix, w, h))
    return FactorizationResult(
        w=w, h=h, loss_history=losses, records_shuffled=epochs * n
    )


def dsgd_factorize(
    matrix: RatingsMatrix,
    rank: int,
    rng: np.random.Generator,
    num_blocks: int = 4,
    epochs: int = 30,
    step: float = 0.2,
    reg: float = 0.005,
) -> FactorizationResult:
    """DSGD: stratified SGD over diagonals of a block grid.

    Rows and columns are partitioned into ``num_blocks`` ranges.  A
    *stratum* is a set of blocks ``{(i, (i + d) mod B)}`` for a diagonal
    offset ``d`` — blocks in a stratum share no rows or columns, so their
    updates commute and run in parallel.  Each epoch visits the ``B``
    diagonals in random order (the regenerative switching schedule).

    Shuffle cost: switching strata moves only factor blocks, charged at
    ``2 * num_blocks`` records per switch — independent of the number of
    observed entries.
    """
    if num_blocks < 1:
        raise SimulationError("num_blocks must be >= 1")
    w = rng.normal(0, 0.1, size=(matrix.num_rows, rank))
    h = rng.normal(0, 0.1, size=(rank, matrix.num_cols))
    row_block = (matrix.rows * num_blocks) // matrix.num_rows
    col_block = (matrix.cols * num_blocks) // matrix.num_cols
    # Pre-index entries per block.
    block_entries = {
        (int(rb), int(cb)): np.flatnonzero((row_block == rb) & (col_block == cb))
        for rb in range(num_blocks)
        for cb in range(num_blocks)
    }
    losses = [_rmse(matrix, w, h)]
    shuffled = 0
    for epoch in range(epochs):
        eta = step / (1.0 + epoch * 0.1)
        for diagonal in rng.permutation(num_blocks):
            shuffled += 2 * num_blocks
            for rb in range(num_blocks):
                cb = (rb + diagonal) % num_blocks
                entries = block_entries[(rb, cb)]
                if entries.size == 0:
                    continue
                for idx in rng.permutation(entries):
                    _sgd_entry_update(
                        w,
                        h,
                        int(matrix.rows[idx]),
                        int(matrix.cols[idx]),
                        float(matrix.values[idx]),
                        eta,
                        reg,
                    )
        losses.append(_rmse(matrix, w, h))
    return FactorizationResult(
        w=w, h=h, loss_history=losses, records_shuffled=shuffled
    )
