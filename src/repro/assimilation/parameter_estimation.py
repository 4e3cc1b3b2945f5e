"""Parameter estimation via particle-filter likelihoods.

A bridge between the paper's Section 3.1 (calibration) and Section 3.2
(data assimilation): the particle filter's by-product — an unbiased
estimate of the marginal likelihood ``p(y_{1:n} | theta)`` — turns any
state-space model into a calibration target.  Maximizing the estimated
log-likelihood over ``theta`` (with common random numbers so the
surface is smooth enough for Nelder-Mead) is simulated maximum
likelihood; for the linear-Gaussian case the exact likelihood from the
Kalman filter validates the estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.assimilation.particle_filter import (
    LinearGaussianSSM,
    StateSpaceModel,
    particle_filter,
)
from repro.calibration.optimizers import nelder_mead
from repro.errors import FilteringError

#: Maps a parameter vector to a ready-to-filter state-space model.
ModelBuilder = Callable[[np.ndarray], StateSpaceModel]


@dataclass
class LikelihoodEstimationResult:
    """Outcome of simulated maximum likelihood over a state-space model."""

    theta: np.ndarray
    log_likelihood: float
    evaluations: int


def pf_log_likelihood(
    builder: ModelBuilder,
    theta: np.ndarray,
    observations: Sequence[float],
    n_particles: int,
    seed: int,
) -> float:
    """The particle-filter estimate of ``log p(y | theta)``.

    Using a fixed ``seed`` gives common random numbers across theta
    values — the same trick MSM uses — making the estimated surface
    continuous enough for derivative-free optimization.
    """
    model = builder(np.asarray(theta, dtype=float))
    rng = np.random.default_rng(seed)
    try:
        result = particle_filter(model, observations, n_particles, rng)
    except FilteringError:
        return -np.inf
    return result.log_likelihood


def estimate_parameters(
    builder: ModelBuilder,
    observations: Sequence[float],
    initial: Sequence[float],
    bounds: Sequence[Tuple[float, float]],
    n_particles: int = 200,
    seed: int = 0,
    max_iterations: int = 80,
) -> LikelihoodEstimationResult:
    """Simulated maximum likelihood by Nelder-Mead over the PF likelihood."""
    observations = list(observations)
    if not observations:
        raise FilteringError("need at least one observation")

    def objective(theta: np.ndarray) -> float:
        value = pf_log_likelihood(
            builder, theta, observations, n_particles, seed
        )
        return -value if np.isfinite(value) else 1e12

    result = nelder_mead(
        objective, initial, bounds=bounds, max_iterations=max_iterations
    )
    return LikelihoodEstimationResult(
        theta=result.x,
        log_likelihood=-result.value,
        evaluations=result.evaluations,
    )


def linear_gaussian_builder(
    template: LinearGaussianSSM,
) -> ModelBuilder:
    """Builder estimating ``(a, q)`` of a linear-Gaussian SSM.

    Other parameters come from the template; ``theta = (a, q)``.
    """

    def build(theta: np.ndarray) -> StateSpaceModel:
        a = float(theta[0])
        q = max(float(theta[1]), 1e-6)
        ssm = LinearGaussianSSM(
            a=a,
            c=template.c,
            q=q,
            r=template.r,
            initial_mean=template.initial_mean,
            initial_var=template.initial_var,
        )
        return ssm.to_state_space_model()

    return build


def exact_log_likelihood(
    ssm: LinearGaussianSSM, observations: Sequence[float]
) -> float:
    """The exact marginal log-likelihood from the Kalman recursions."""
    log_likelihood = 0.0
    mean = ssm.initial_mean
    var = ssm.initial_var
    for y in observations:
        mean = ssm.a * mean
        var = ssm.a**2 * var + ssm.q
        innovation_var = ssm.c**2 * var + ssm.r
        resid = y - ssm.c * mean
        log_likelihood += -0.5 * (
            np.log(2 * np.pi * innovation_var)
            + resid**2 / innovation_var
        )
        gain = var * ssm.c / innovation_var
        mean = mean + gain * resid
        var = (1.0 - gain * ssm.c) * var
    return float(log_likelihood)
