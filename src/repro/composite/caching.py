"""Result caching for stochastic composite models (Section 2.3, ref [25]).

For two stochastic models in series, estimating ``theta = E[Y2]`` with
``n`` replications of ``M2`` needs only ``m_n = ceil(alpha * n)``
replications of ``M1``: the first ``m_n`` outputs of ``M1`` are cached and
then reused "in a fixed order" (deterministic cycling — a stratified
sample of M1's output that keeps the estimator variance down).

The asymptotic variance of the budget-constrained estimator is

.. math::

    g(\\alpha) = (\\alpha c_1 + c_2)
                 (V_1 + [2 r_\\alpha - \\alpha r_\\alpha (r_\\alpha + 1)] V_2),
    \\qquad r_\\alpha = \\lfloor 1/\\alpha \\rfloor,

where ``c_1, c_2`` are expected run costs, ``V_1 = Var[Y2]`` and ``V_2``
is the covariance of two ``Y2`` outputs sharing an ``M1`` input.  The
approximation ``r_alpha ~ 1/alpha`` gives
``g~(alpha) = (alpha c1 + c2)(V1 + (1/alpha - 1) V2)`` minimized at

.. math::

    \\alpha^* = \\sqrt{ (c_2 / c_1) / (V_1 / V_2 - 1) }.

This module implements the estimator, the analytic formulas, pilot-run
estimation of the statistics tuple ``S = (c1, c2, V1, V2)``, and the
budget-constrained runner ``U(c)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple, Union

import numpy as np

from repro.composite.model import ComponentModel
from repro.errors import SimulationError
from repro.parallel.backend import Backend, get_backend
from repro.stats.rng import task_seed_sequences


@dataclass(frozen=True)
class CompositeStatistics:
    """The statistics tuple ``S = (c1, c2, V1, V2)`` of Section 2.3."""

    c1: float
    c2: float
    v1: float
    v2: float

    def __post_init__(self):
        if self.c1 <= 0 or self.c2 <= 0:
            raise SimulationError("costs must be positive")
        if self.v1 < 0:
            raise SimulationError("V1 must be nonnegative")
        # Cauchy-Schwarz: V1 >= V2 (paper notes V1/V2 >= 1).
        if self.v2 > self.v1 + 1e-12:
            raise SimulationError(
                f"V2 ({self.v2}) cannot exceed V1 ({self.v1})"
            )


def replication_counts(n: int, alpha: float) -> int:
    """``m_n = ceil(alpha * n)``, clamped to [1, n]."""
    if n < 1:
        raise SimulationError("n must be >= 1")
    if not 0.0 < alpha <= 1.0:
        raise SimulationError(f"alpha must be in (0, 1], got {alpha}")
    return min(max(int(math.ceil(alpha * n)), 1), n)


def g_exact(alpha: float, stats: CompositeStatistics) -> float:
    """The exact asymptotic work-variance product ``g(alpha)``."""
    if not 0.0 < alpha <= 1.0:
        raise SimulationError(f"alpha must be in (0, 1], got {alpha}")
    r = math.floor(1.0 / alpha)
    bracket = 2.0 * r - alpha * r * (r + 1.0)
    return (alpha * stats.c1 + stats.c2) * (
        stats.v1 + bracket * stats.v2
    )


def g_approx(alpha: float, stats: CompositeStatistics) -> float:
    """The smooth approximation ``g~(alpha)`` using ``r_alpha ~ 1/alpha``."""
    if not 0.0 < alpha <= 1.0:
        raise SimulationError(f"alpha must be in (0, 1], got {alpha}")
    return (alpha * stats.c1 + stats.c2) * (
        stats.v1 + (1.0 / alpha - 1.0) * stats.v2
    )


def optimal_alpha(
    stats: CompositeStatistics, n: Optional[int] = None
) -> float:
    """The optimal replication fraction ``alpha*``.

    Truncated to ``[1/n, 1]`` when ``n`` is given (the paper: "truncate at
    1/n or 1 as needed to ensure a feasible solution").  Degenerate cases:
    ``V2 = 0`` (M2 insensitive to M1) → run M1 as little as possible;
    ``V1 = V2`` (M2 a deterministic transformer) → ``alpha* = 1``.
    """
    lower = (1.0 / n) if n else 1e-9
    if stats.v2 <= 0:
        return lower
    ratio = stats.v1 / stats.v2
    if ratio <= 1.0:
        return 1.0
    alpha = math.sqrt((stats.c2 / stats.c1) / (ratio - 1.0))
    return min(max(alpha, lower), 1.0)


@dataclass
class CachingRunResult:
    """Output of one result-caching estimation run."""

    estimate: float
    samples: np.ndarray
    m1_runs: int
    m2_runs: int
    total_cost: float

    @property
    def variance(self) -> float:
        """Sample variance of the ``Y2`` outputs (biased for correlated
        samples — use replicated runs of the whole procedure to estimate
        the estimator's variance)."""
        return float(self.samples.var(ddof=1)) if self.samples.size > 1 else 0.0


def _m1_replication(m1, transform, seq):
    """One cached-model run on its own pre-spawned stream (picklable)."""
    y1 = m1.run(None, np.random.default_rng(seq))
    return transform(y1) if transform is not None else y1


def _m2_replication(m2, task):
    """One downstream run: ``task`` is ``(cached Y1, seed sequence)``."""
    y1, seq = task
    return float(m2.run(y1, np.random.default_rng(seq)))


def run_with_caching(
    m1: ComponentModel,
    m2: ComponentModel,
    n: int,
    alpha: float,
    rng: Optional[np.random.Generator],
    transform=None,
    backend: Union[str, Backend, None] = None,
    seed: Optional[int] = None,
) -> CachingRunResult:
    """Estimate ``E[Y2]`` with the RC strategy at replication fraction ``alpha``.

    Executes ``m_n`` runs of ``m1``, caches the outputs ("written to
    disk"), and cycles through them in fixed order as inputs to ``n`` runs
    of ``m2``.  ``transform`` optionally post-processes each ``Y1`` before
    it is fed to ``m2`` (Splash's data transformation step; its cost is
    considered part of ``c1``).

    Two execution modes exist.  The legacy mode (``backend=None``) threads
    the single generator ``rng`` through every run sequentially.  The
    parallel mode (``backend`` given) requires ``seed`` instead: every
    ``m1``/``m2`` replication draws from its own pre-spawned stream, so
    replications fan out across workers with byte-identical results on
    every backend (run ``backend="serial"`` to see the exact same numbers
    in one process).
    """
    m_n = replication_counts(n, alpha)
    if backend is not None:
        if seed is None:
            raise SimulationError(
                "parallel run_with_caching needs an explicit integer seed "
                "(per-replication streams are spawned from it)"
            )
        executor = get_backend(backend)
        cache = executor.map(
            partial(_m1_replication, m1, transform),
            task_seed_sequences(seed, "rc-m1", m_n),
        )
        m2_seqs = task_seed_sequences(seed, "rc-m2", n)
        samples = np.asarray(
            executor.map(
                partial(_m2_replication, m2),
                [(cache[i % m_n], m2_seqs[i]) for i in range(n)],
            )
        )
    else:
        if rng is None:
            raise SimulationError(
                "sequential run_with_caching needs an rng (or pass a "
                "backend plus seed)"
            )
        cache = []
        for _ in range(m_n):
            y1 = m1.run(None, rng)
            if transform is not None:
                y1 = transform(y1)
            cache.append(y1)
        samples = np.empty(n)
        for i in range(n):
            samples[i] = float(m2.run(cache[i % m_n], rng))
    total_cost = m_n * m1.cost + n * m2.cost
    return CachingRunResult(
        estimate=float(samples.mean()),
        samples=np.asarray(samples, dtype=float),
        m1_runs=m_n,
        m2_runs=n,
        total_cost=total_cost,
    )


def budget_constrained_run(
    m1: ComponentModel,
    m2: ComponentModel,
    budget: float,
    alpha: float,
    rng: np.random.Generator,
    transform=None,
) -> CachingRunResult:
    """The budget-constrained estimator ``U(c)``.

    ``N(c) = sup{n >= 0 : C_n <= c}`` with
    ``C_n = ceil(alpha n) c1 + n c2``; runs the RC strategy at that ``n``.
    """
    if budget <= 0:
        raise SimulationError("budget must be positive")
    n = 0
    while True:
        candidate = n + 1
        cost = replication_counts(candidate, alpha) * m1.cost + candidate * m2.cost
        if cost > budget:
            break
        n = candidate
    if n == 0:
        raise SimulationError(
            f"budget {budget} cannot afford a single composite run "
            f"(needs {m1.cost + m2.cost})"
        )
    return run_with_caching(m1, m2, n, alpha, rng, transform)


def estimate_statistics(
    m1: ComponentModel,
    m2: ComponentModel,
    rng: np.random.Generator,
    pilot_m1_runs: int = 30,
    m2_runs_per_m1: int = 4,
    transform=None,
) -> CompositeStatistics:
    """Pilot-run estimation of ``S = (c1, c2, V1, V2)``.

    Runs ``pilot_m1_runs`` independent ``M1`` outputs with
    ``m2_runs_per_m1`` downstream runs each; a one-way ANOVA decomposition
    gives ``V2 = Var(E[Y2 | Y1])`` (the shared-input covariance) and
    ``V1 = V2 + E[Var(Y2 | Y1)]``.  Costs come from the models' declared
    per-run costs — in Splash these would be metadata refined across
    production runs (see :mod:`repro.composite.metadata`).
    """
    if pilot_m1_runs < 2 or m2_runs_per_m1 < 2:
        raise SimulationError(
            "need >= 2 pilot M1 runs and >= 2 M2 runs per M1"
        )
    groups = np.empty((pilot_m1_runs, m2_runs_per_m1))
    for i in range(pilot_m1_runs):
        y1 = m1.run(None, rng)
        if transform is not None:
            y1 = transform(y1)
        for j in range(m2_runs_per_m1):
            groups[i, j] = float(m2.run(y1, rng))
    within = float(groups.var(axis=1, ddof=1).mean())
    group_means = groups.mean(axis=1)
    between = float(group_means.var(ddof=1))
    # E[Var(Y2|Y1)] ~ within; Var(E[Y2|Y1]) ~ between - within / k
    v2 = max(between - within / m2_runs_per_m1, 0.0)
    v1 = v2 + within
    if v1 <= 0:
        v1 = max(float(groups.var(ddof=1)), 1e-12)
    return CompositeStatistics(c1=m1.cost, c2=m2.cost, v1=v1, v2=min(v2, v1))


def _variance_replication(m1, m2, budget, alpha, transform, seed, k):
    """Replication ``k`` of the budget-constrained procedure (picklable).

    The stream depends only on ``(seed, k)``, so replication ``k`` draws
    the same values on any backend, any worker, in any completion order.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(k,))
    )
    return budget_constrained_run(m1, m2, budget, alpha, rng, transform).estimate


def measure_estimator_variance(
    m1: ComponentModel,
    m2: ComponentModel,
    budget: float,
    alpha: float,
    replications: int,
    seed: int = 0,
    transform=None,
    backend: Union[str, Backend, None] = None,
) -> Tuple[float, float]:
    """Empirical mean and work-normalized variance of ``U(c)``.

    Runs the whole budget-constrained procedure ``replications`` times
    with independent streams; returns ``(mean estimate, c * Var[U(c)])``.
    The second value estimates ``g(alpha)`` (since
    ``Var[U(c)] ~ g(alpha)/c``), directly comparable to :func:`g_exact`.

    Replications already use independent per-``k`` streams, so they fan
    out across any :mod:`repro.parallel` backend with results
    byte-identical to the serial loop.
    """
    if replications < 2:
        raise SimulationError("need >= 2 replications")
    executor = get_backend(backend)
    estimates = np.asarray(
        executor.map(
            partial(_variance_replication, m1, m2, budget, alpha, transform, seed),
            range(replications),
        )
    )
    return float(estimates.mean()), float(budget * estimates.var(ddof=1))
