"""Result caching for chains of more than two models (extension).

Section 2.3 analyzes two models in series and poses "the general
question ... how to optimally reuse results for a general composite model
in which each component model might be stochastic".  This module extends
the RC strategy to a series chain ``M1 -> M2 -> ... -> Mk``:

* each stage ``i < k`` gets its own replication fraction ``alpha_i``;
  stage ``i`` runs ``ceil(alpha_i * n_{i+1})`` times, where ``n_{i+1}``
  is the run count of the next stage, and its cached outputs are reused
  by deterministic cycling (the variance-reducing stratified reuse of the
  two-model case);
* the asymptotic work-variance product generalizes via the law of total
  variance: with ``v_i = Var(E[Y_k | output of stage i])`` (so
  ``v_k = Var(Y_k)`` and ``v_0 = 0``), reusing a stage-``i`` output
  across ``1/alpha_i`` downstream runs leaves the variance contribution
  of stages ``<= i`` uncollapsed, giving the approximation

  ``g(alpha) ~ (sum_i c_i prod_{j >= i} alpha_j_tail) *
  (sum_i (v_i - v_{i-1}) / prod_{j <= i, j < k} ... )`` —

  concretely implemented in :func:`g_chain_approx` below with the same
  ``r ~ 1/alpha`` approximation the paper uses;
* :func:`optimize_chain_alphas` minimizes the approximation numerically
  (coordinate descent over a grid), and
  :func:`estimate_chain_statistics` estimates the needed cost/variance
  tuple from nested pilot runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.composite.model import ComponentModel
from repro.errors import SimulationError


@dataclass(frozen=True)
class ChainStatistics:
    """Costs and conditional-variance ladder for a k-stage chain.

    ``costs[i]`` is the expected cost of one run of stage ``i``.
    ``variance_ladder[i] = Var(E[Y_k | U_i])`` where ``U_i`` is the
    output of stage ``i`` (so the ladder is nondecreasing and ends at
    ``Var(Y_k)``).
    """

    costs: Tuple[float, ...]
    variance_ladder: Tuple[float, ...]

    def __post_init__(self):
        if len(self.costs) != len(self.variance_ladder):
            raise SimulationError("costs/ladder length mismatch")
        if len(self.costs) < 2:
            raise SimulationError("a chain needs at least two stages")
        if any(c <= 0 for c in self.costs):
            raise SimulationError("stage costs must be positive")
        ladder = self.variance_ladder
        if any(v < -1e-12 for v in ladder):
            raise SimulationError("variances must be nonnegative")
        if any(b < a - 1e-9 for a, b in zip(ladder, ladder[1:])):
            raise SimulationError(
                "variance ladder must be nondecreasing "
                "(law of total variance)"
            )

    @property
    def stages(self) -> int:
        """Number of models in the chain."""
        return len(self.costs)


def g_chain_approx(
    alphas: Sequence[float], stats: ChainStatistics
) -> float:
    """Approximate work-variance product for a k-stage RC strategy.

    ``alphas`` has one entry per *cached* stage (stages 1..k-1); the last
    stage always runs n times.  Using ``r_i ~ 1/alpha_i``:

    * expected cost per final output:
      ``cost = c_k + sum_{i<k} c_i * prod_{j=i..k-1} alpha_j``
      (stage i runs an alpha-fraction of the runs of stage i+1);
    * variance per final output: a stage-``i`` output is shared by
      ``prod_{j=i..k-1} (1/alpha_j)`` final outputs, and sharing leaves
      the layer-``i`` variance increment ``v_i - v_{i-1}`` uncollapsed
      relative to fresh sampling, contributing
      ``(v_i - v_{i-1})`` scaled by the sharing factor when averaging n
      outputs.  Summing increments:
      ``var = sum_i (v_i - v_{i-1}) * prod_{j=i..k-1} (1/alpha_j) *
      prod_{j=i..k-1} alpha_j ... `` — after normalization the effective
      asymptotic variance multiplier for layer ``i`` is
      ``prod_{j=i..k-1} (1/alpha_j) * alpha-weighted share``, which for
      the two-stage case reduces to the paper's
      ``V1 + (1/alpha - 1) V2`` (see ``tests/test_chain_caching.py``).
    """
    k = stats.stages
    alphas = list(alphas)
    if len(alphas) != k - 1:
        raise SimulationError(
            f"need {k - 1} alphas for a {k}-stage chain, got {len(alphas)}"
        )
    if any(not 0.0 < a <= 1.0 for a in alphas):
        raise SimulationError("alphas must be in (0, 1]")

    # Cost per final output.
    cost = stats.costs[-1]
    for i in range(k - 1):
        share = 1.0
        for j in range(i, k - 1):
            share *= alphas[j]
        cost += stats.costs[i] * share

    # Variance per final output (asymptotic, fresh-noise layer v_k-v_{k-1}
    # plus shared layers inflated by their reuse factor).
    ladder = stats.variance_ladder
    variance = ladder[-1] - ladder[-2]  # stage-k intrinsic noise
    for i in range(k - 1):
        increment = ladder[i] - (ladder[i - 1] if i > 0 else 0.0)
        reuse = 1.0
        for j in range(i, k - 1):
            reuse *= 1.0 / alphas[j]
        # Averaging n outputs that share stage-i draws in blocks of size
        # `reuse` leaves this layer's variance multiplied by `reuse`.
        variance += increment * reuse * _block_penalty(reuse)
    return cost * variance


def _block_penalty(reuse: float) -> float:
    """Variance penalty of block sharing relative to fresh draws.

    For block size ``r``, averaging ``n`` outputs built from ``n/r``
    independent upstream draws has ``r`` times the variance contribution
    of that layer; ``reuse`` already carries the factor, so the penalty
    here normalizes the layer weight to ``alpha``-space:
    ``penalty = alpha_chain = 1/reuse`` keeps the two-stage case exact:
    layer-1 multiplier = reuse * (1/reuse) ... see below.
    """
    # Two-stage check: variance = (V1 - V2) + V2 * (1/alpha) * p(1/alpha).
    # The paper's g~ has V1 + (1/alpha - 1) V2 = (V1 - V2) + V2 / alpha.
    # Matching terms gives p(reuse) = 1, i.e. no extra penalty.
    return 1.0


def optimize_chain_alphas(
    stats: ChainStatistics,
    grid_points: int = 40,
    sweeps: int = 6,
) -> Tuple[List[float], float]:
    """Coordinate-descent minimization of :func:`g_chain_approx`.

    Sweeps each ``alpha_i`` over a log-spaced grid with the others held
    fixed, repeating until stable.  Returns ``(alphas, g_value)``.
    """
    k = stats.stages
    alphas = [1.0] * (k - 1)
    grid = np.geomspace(0.01, 1.0, grid_points)
    best = g_chain_approx(alphas, stats)
    for _ in range(sweeps):
        improved = False
        for i in range(k - 1):
            for candidate in grid:
                trial = list(alphas)
                trial[i] = float(candidate)
                value = g_chain_approx(trial, stats)
                if value < best - 1e-15:
                    best = value
                    alphas = trial
                    improved = True
        if not improved:
            break
    return alphas, best


@dataclass
class ChainRunResult:
    """Output of a chained result-caching estimation run."""

    estimate: float
    samples: np.ndarray
    runs_per_stage: Tuple[int, ...]
    total_cost: float


def run_chain_with_caching(
    models: Sequence[ComponentModel],
    n: int,
    alphas: Sequence[float],
    rng: np.random.Generator,
) -> ChainRunResult:
    """Execute the k-stage RC strategy.

    Stage run counts: ``n_k = n``; ``n_i = ceil(alpha_i * n_{i+1})``.
    Stage ``i``'s cached outputs are cycled deterministically as inputs
    to stage ``i+1``.
    """
    models = list(models)
    k = len(models)
    if k < 2:
        raise SimulationError("a chain needs at least two models")
    alphas = list(alphas)
    if len(alphas) != k - 1:
        raise SimulationError(
            f"need {k - 1} alphas for a {k}-stage chain"
        )
    counts = [0] * k
    counts[k - 1] = n
    for i in range(k - 2, -1, -1):
        if not 0.0 < alphas[i] <= 1.0:
            raise SimulationError("alphas must be in (0, 1]")
        counts[i] = min(
            max(int(math.ceil(alphas[i] * counts[i + 1])), 1),
            counts[i + 1],
        )
    # Stage 1: independent runs.
    caches: List[List] = [[] for _ in range(k)]
    for _ in range(counts[0]):
        caches[0].append(models[0].run(None, rng))
    # Middle stages: cycle through the previous cache.
    for i in range(1, k - 1):
        for run_index in range(counts[i]):
            upstream = caches[i - 1][run_index % counts[i - 1]]
            caches[i].append(models[i].run(upstream, rng))
    # Final stage: produce the samples.
    samples = np.empty(n)
    for run_index in range(n):
        upstream = caches[k - 2][run_index % counts[k - 2]]
        samples[run_index] = float(models[k - 1].run(upstream, rng))
    total_cost = sum(
        count * model.cost for count, model in zip(counts, models)
    )
    return ChainRunResult(
        estimate=float(samples.mean()),
        samples=samples,
        runs_per_stage=tuple(counts),
        total_cost=total_cost,
    )


def estimate_chain_statistics(
    models: Sequence[ComponentModel],
    rng: np.random.Generator,
    branching: int = 4,
    roots: int = 20,
) -> ChainStatistics:
    """Estimate the variance ladder by a nested pilot tree.

    Runs a ``roots``-rooted tree with ``branching`` replications per
    stage; stage-``i`` conditional means are estimated by averaging the
    subtree below each stage-``i`` output, and
    ``Var(E[Y_k | U_i])`` by the variance of those means (bias-corrected
    via the within-group variance, as in the two-stage ANOVA).
    """
    models = list(models)
    k = len(models)
    if k < 2:
        raise SimulationError("a chain needs at least two models")
    if branching < 2 or roots < 2:
        raise SimulationError("need branching >= 2 and roots >= 2")

    def subtree_outputs(stage: int, upstream) -> List[float]:
        """All leaf outputs below one stage-``stage`` input value."""
        if stage == k:
            return [float(upstream)]
        outputs: List[float] = []
        reps = roots if stage == 0 else branching
        for _ in range(reps):
            value = models[stage].run(upstream, rng)
            outputs.extend(subtree_outputs(stage + 1, value))
        return outputs

    # Collect leaf outputs grouped by each stage's outputs.
    # For tractability we estimate each ladder level with its own tree.
    ladder: List[float] = []
    total_var: Optional[float] = None
    for level in range(1, k + 1):
        group_means: List[float] = []
        within: List[float] = []
        for _ in range(roots):
            # Run stages 1..level once to get a U_level draw...
            value = None
            for stage in range(level):
                value = models[stage].run(value, rng)
            # ...then replicate the remaining stages below it.
            leaves: List[float] = []
            reps = branching ** max(k - level, 0)
            if level == k:
                leaves = [float(value)]
            else:
                for _ in range(min(reps, branching * branching)):
                    downstream = value
                    for stage in range(level, k):
                        downstream = models[stage].run(downstream, rng)
                    leaves.append(float(downstream))
            group_means.append(float(np.mean(leaves)))
            if len(leaves) > 1:
                within.append(float(np.var(leaves, ddof=1)))
        between = float(np.var(group_means, ddof=1))
        if within:
            leaves_per_group = min(
                branching ** max(k - level, 0), branching * branching
            )
            between = max(
                between - float(np.mean(within)) / leaves_per_group, 0.0
            )
        ladder.append(between)
        if level == k:
            total_var = between
    # Enforce monotonicity (estimation noise can break it slightly).
    for i in range(1, k):
        ladder[i] = max(ladder[i], ladder[i - 1])
    return ChainStatistics(
        costs=tuple(m.cost for m in models),
        variance_ladder=tuple(ladder),
    )
