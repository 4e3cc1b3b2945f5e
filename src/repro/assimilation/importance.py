"""Importance sampling and sequential importance sampling (Section 3.2).

The paper builds particle filtering up from first principles: plain Monte
Carlo fails for complex high-dimensional targets; *importance sampling*
"samples from a tractable distribution and then 'corrects' the sampled
value via a multiplicative weight"; *sequential* importance sampling
exploits a Markov-structured proposal so each time step costs O(1); and
resampling fixes the weight-degeneracy problem (SIR).  This module covers
the IS/SIS layer; resampling lives in
:mod:`repro.assimilation.resampling`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import FilteringError


@dataclass(frozen=True)
class ImportanceEstimate:
    """An importance-sampling estimate with diagnostics."""

    value: float
    normalizing_constant: float
    effective_sample_size: float
    weights: np.ndarray


def normalize_weights(unnormalized: np.ndarray) -> np.ndarray:
    """Normalize nonnegative weights to sum to one."""
    w = np.asarray(unnormalized, dtype=float)
    if np.any(w < 0):
        raise FilteringError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0 or not np.isfinite(total):
        raise FilteringError(
            "total weight collapsed to zero (proposal too far from target)"
        )
    return w / total


def normalize_log_weights(log_weights: np.ndarray) -> np.ndarray:
    """Normalize weights given in log space (stable log-sum-exp)."""
    lw = np.asarray(log_weights, dtype=float)
    shift = lw.max()
    if not np.isfinite(shift):
        raise FilteringError("all log-weights are -inf")
    w = np.exp(lw - shift)
    return w / w.sum()


def effective_sample_size(normalized_weights: np.ndarray) -> float:
    """ESS = 1 / sum(w_i^2): between 1 (collapse) and N (uniform)."""
    w = np.asarray(normalized_weights, dtype=float)
    return float(1.0 / np.sum(w**2))


def importance_sample(
    target_log_density: Callable[[np.ndarray], np.ndarray],
    proposal_log_density: Callable[[np.ndarray], np.ndarray],
    proposal_sampler: Callable[[np.random.Generator, int], np.ndarray],
    integrand: Callable[[np.ndarray], np.ndarray],
    n: int,
    rng: np.random.Generator,
) -> ImportanceEstimate:
    """Self-normalized importance sampling of ``E_pi[g(X)]``.

    ``target_log_density`` may be *unnormalized* (log gamma_n); the
    normalizing constant ``Z_n`` is estimated as the mean unnormalized
    weight, exactly as in the paper's equations (1)-(2).
    """
    if n < 1:
        raise FilteringError("n must be >= 1")
    samples = proposal_sampler(rng, n)
    log_w = target_log_density(samples) - proposal_log_density(samples)
    finite = np.isfinite(log_w)
    if not finite.any():
        raise FilteringError("no sample received positive weight")
    shift = log_w[finite].max()
    w = np.where(finite, np.exp(log_w - shift), 0.0)
    z_hat = float(w.mean() * np.exp(shift))
    normalized = w / w.sum()
    values = np.asarray(integrand(samples), dtype=float)
    estimate = float(np.sum(normalized * values))
    return ImportanceEstimate(
        value=estimate,
        normalizing_constant=z_hat,
        effective_sample_size=effective_sample_size(normalized),
        weights=normalized,
    )


def sis_weight_update(
    previous_log_weights: np.ndarray,
    incremental_log_weights: np.ndarray,
) -> np.ndarray:
    """The SIS recursion ``w_n = w_{n-1} * alpha_n`` in log space."""
    prev = np.asarray(previous_log_weights, dtype=float)
    inc = np.asarray(incremental_log_weights, dtype=float)
    if prev.shape != inc.shape:
        raise FilteringError("weight arrays must have the same shape")
    return prev + inc
