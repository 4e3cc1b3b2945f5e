"""Stochastic gradient descent and distributed (stratified) SGD.

Section 2.2 of the paper: the cubic-spline constants solve a huge
tridiagonal system ``A x = b``; direct solvers shuffle massively on
MapReduce, so Splash instead minimizes ``L(x) = ||A x - b||^2`` by *DSGD*
([21]).  The tridiagonal structure means row ``i``'s gradient touches only
``x_{i-1}, x_i, x_{i+1}``, so the rows split into three strata

    S_1 = {0, 3, 6, ...},  S_2 = {1, 4, 7, ...},  S_3 = {2, 5, 8, ...}

within which updates touch pairwise-disjoint entries of ``x`` and can be
processed in parallel with no coordination.  The algorithm runs inside a
stratum for a while, then switches strata according to a regenerative
scheme that spends equal time in each stratum in the long run, which
guarantees convergence to the global solution.

Step sizes follow ``eps_k = a * k^(-alpha)`` with ``k`` the epoch index;
the paper notes provable convergence of the ``n^(-alpha)`` family for
``1 <= alpha < 2`` (smaller exponents down to ~0.5 trade theory for speed
and are accepted here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.stats.linalg import TridiagonalSystem, least_squares_loss


@dataclass(frozen=True)
class SGDConfig:
    """Hyper-parameters shared by SGD and DSGD.

    ``step_scale=None`` picks a stable default from the system: the
    per-row loss ``L_i`` has Lipschitz gradient constant ``2 ||A_i||^2``,
    and updates scale the sampled gradient by the row count ``m``, so the
    default is ``1 / (2 m max_i ||A_i||^2)``.
    """

    step_scale: Optional[float] = None
    step_exponent: float = 1.0
    epochs: int = 50

    def __post_init__(self):
        if not 0.5 < self.step_exponent < 2.0:
            raise SimulationError(
                f"step_exponent must be in (0.5, 2), got {self.step_exponent}"
            )
        if self.epochs < 1:
            raise SimulationError("epochs must be >= 1")

    def resolve_step_scale(self, system: TridiagonalSystem) -> float:
        if self.step_scale is not None:
            return self.step_scale
        m = system.size
        row_norm_sq = (
            system.diag**2
            + np.concatenate([[0.0], system.lower[1:] ** 2])
            + np.concatenate([system.upper[:-1] ** 2, [0.0]])
        )
        return 1.0 / (2.0 * m * float(row_norm_sq.max()) + 1e-12)


@dataclass
class SolveResult:
    """Output of an iterative least-squares solve."""

    x: np.ndarray
    loss_history: List[float]
    gradient_steps: int
    records_shuffled: int

    @property
    def final_loss(self) -> float:
        """Loss after the last epoch."""
        return self.loss_history[-1]


def _row_gradient_update(
    system: TridiagonalSystem,
    x: np.ndarray,
    i: int,
    step: float,
) -> None:
    """In-place SGD step on row ``i``: ``x -= step * m * grad L_i(x)``.

    Touches at most the three entries ``x_{i-1}, x_i, x_{i+1}`` — the
    sparsity DSGD's stratification exploits.
    """
    n = system.size
    residual = system.diag[i] * x[i] - system.rhs[i]
    if i > 0:
        residual += system.lower[i] * x[i - 1]
    if i < n - 1:
        residual += system.upper[i] * x[i + 1]
    scale = 2.0 * step * n * residual
    x[i] -= scale * system.diag[i]
    if i > 0:
        x[i - 1] -= scale * system.lower[i]
    if i < n - 1:
        x[i + 1] -= scale * system.upper[i]


def sgd_solve(
    system: TridiagonalSystem,
    rng: np.random.Generator,
    config: SGDConfig = SGDConfig(),
    x0: Optional[np.ndarray] = None,
) -> SolveResult:
    """Sequential SGD on ``L(x) = ||A x - b||^2``.

    One epoch performs ``m`` uniformly sampled row updates.  In the
    MapReduce cost model this is the *unstratified* baseline: every update
    may touch any entry of ``x``, so the full vector must be shuffled to
    whichever node holds the sampled row — we charge one shuffled record
    per update.
    """
    m = system.size
    x = np.zeros(m) if x0 is None else np.array(x0, dtype=float)
    a = config.resolve_step_scale(system)
    losses = [least_squares_loss(system, x)]
    step_count = 0
    for epoch in range(config.epochs):
        eps = a * (epoch + 1) ** (-config.step_exponent)
        for _ in range(m):
            step_count += 1
            i = int(rng.integers(0, m))
            _row_gradient_update(system, x, i, eps)
        losses.append(least_squares_loss(system, x))
    return SolveResult(
        x=x,
        loss_history=losses,
        gradient_steps=step_count,
        records_shuffled=step_count,
    )


def strata_indices(m: int, num_strata: int = 3) -> List[np.ndarray]:
    """The interleaved strata ``S_k = {k, k + s, k + 2s, ...}``.

    For a tridiagonal system, ``num_strata=3`` guarantees that rows within
    a stratum touch disjoint solution entries.
    """
    if num_strata < 3:
        raise SimulationError(
            "tridiagonal DSGD needs >= 3 strata for disjoint updates"
        )
    return [np.arange(k, m, num_strata) for k in range(num_strata)]


def dsgd_solve(
    system: TridiagonalSystem,
    rng: np.random.Generator,
    config: SGDConfig = SGDConfig(),
    num_workers: int = 4,
    num_strata: int = 3,
    x0: Optional[np.ndarray] = None,
) -> SolveResult:
    """Stratified distributed SGD.

    Each epoch visits the strata in a fresh random order (the regenerative
    switching scheme: over many epochs, equal time is spent in every
    stratum).  Within a stratum the rows are partitioned across
    ``num_workers`` and processed "in parallel" — updates are provably
    non-conflicting, so the sequential emulation is exact.

    Shuffle accounting: switching into a stratum requires each worker to
    fetch only the ``x`` entries bordering its row partition — we charge
    ``2 * num_workers`` records per stratum switch, independent of ``m``.
    That is the "negligible" shuffle volume the paper contrasts with
    direct solvers.
    """
    if num_workers < 1:
        raise SimulationError("num_workers must be >= 1")
    m = system.size
    x = np.zeros(m) if x0 is None else np.array(x0, dtype=float)
    a = config.resolve_step_scale(system)
    strata = strata_indices(m, num_strata)
    losses = [least_squares_loss(system, x)]
    step_count = 0
    shuffled = 0
    for epoch in range(config.epochs):
        eps = a * (epoch + 1) ** (-config.step_exponent)
        order = rng.permutation(num_strata)
        for stratum_id in order:
            rows = strata[stratum_id]
            if rows.size == 0:
                continue
            shuffled += 2 * num_workers  # boundary entries only
            # Partition rows across workers; each worker samples its own
            # rows uniformly.  Because within-stratum updates are disjoint,
            # interleaving across workers is equivalent to any parallel
            # execution order.
            partitions = np.array_split(rows, num_workers)
            for partition in partitions:
                if partition.size == 0:
                    continue
                for _ in range(partition.size):
                    step_count += 1
                    i = int(partition[rng.integers(0, partition.size)])
                    _row_gradient_update(system, x, i, eps)
        losses.append(least_squares_loss(system, x))
    return SolveResult(
        x=x,
        loss_history=losses,
        gradient_steps=step_count,
        records_shuffled=shuffled,
    )


def direct_solver_shuffle_cost(m: int, sweeps: int = 1) -> int:
    """Shuffle cost of a direct tridiagonal solve on MapReduce.

    The forward/backward sweeps of the Thomas algorithm are sequential:
    every row's partial results must flow through the cluster, so a
    MapReduce realization shuffles on the order of the full data per sweep
    (the "massive amounts of data shuffling" the paper refers to).  We
    charge ``2 * m`` records per sweep (forward + backward).
    """
    if m < 0 or sweeps < 1:
        raise SimulationError("need m >= 0 and sweeps >= 1")
    return 2 * m * sweeps
