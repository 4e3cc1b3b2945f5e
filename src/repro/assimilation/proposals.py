"""Particle-filter proposals for wildfire assimilation ([56] vs [57]).

Two filters over :class:`~repro.assimilation.wildfire.WildfireModel`:

* :func:`wildfire_bootstrap_filter` — the original [56] formulation: the
  transition density is the proposal, so "the formulas for the weights
  reduce to an evaluation of the observation function", and proposing
  means "setting the state of the simulation to the resampled particle
  and then simulating for Δt time units".
* :func:`wildfire_sensor_filter` — the [57] improvement: after the
  transition step a *sensor-adjusted* state ``x'`` is built by "randomly
  igniting unburned cells ... deemed to have sufficiently high sensor
  temperatures and 'turning off' the fire for cells where sensor
  temperatures are deemed sufficiently cool"; ``x`` or ``x'`` is kept
  with a probability reflecting confidence in the sensors.  The weight
  correction ``p(x|x_prev) / q(x|y, x_prev)`` has no closed form, so —
  following the paper — both densities are estimated with a kernel
  density estimator over ``M`` auxiliary draws.  (We apply the KDE to a
  scalar sufficient summary, the burning-cell count, an ABC-style
  reduction that keeps the estimator stable on grid-valued states.)

Both return per-step mean state estimates and misclassification error
against the truth, the quantities the AN-WF benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.assimilation.importance import (
    effective_sample_size,
    normalize_log_weights,
)
from repro.assimilation.kde import KernelDensityEstimator
from repro.assimilation.resampling import systematic_resample
from repro.assimilation.wildfire import (
    BURNED,
    BURNING,
    UNBURNED,
    WildfireModel,
)
from repro.errors import FilteringError


@dataclass
class WildfireFilterResult:
    """Per-step diagnostics of a wildfire assimilation run."""

    mean_errors: np.ndarray
    burning_count_errors: np.ndarray
    effective_sample_sizes: np.ndarray

    @property
    def final_error(self) -> float:
        """Cell misclassification rate at the final step."""
        return float(self.mean_errors[-1])

    @property
    def average_error(self) -> float:
        """Misclassification rate averaged over steps."""
        return float(self.mean_errors.mean())


def _estimate_state(particles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted majority state per cell."""
    n, h, w = particles.shape
    scores = np.zeros((3, h, w))
    for state in (UNBURNED, BURNING, BURNED):
        scores[state] = np.tensordot(
            weights, (particles == state).astype(float), axes=1
        )
    return scores.argmax(axis=0).astype(np.int8)


def _diagnose(
    particles: np.ndarray,
    weights: np.ndarray,
    truth: np.ndarray,
    model: WildfireModel,
) -> Tuple[float, float]:
    estimate = _estimate_state(particles, weights)
    error = model.state_error(estimate, truth)
    burn_est = float(
        np.sum(weights * (particles == BURNING).sum(axis=(1, 2)))
    )
    burn_err = abs(burn_est - model.burning_count(truth))
    return error, burn_err


def wildfire_bootstrap_filter(
    model: WildfireModel,
    observations: Sequence[np.ndarray],
    truth_states: Sequence[np.ndarray],
    n_particles: int,
    rng: np.random.Generator,
    initial_ignitions: Optional[Sequence[Tuple[int, int]]] = None,
) -> WildfireFilterResult:
    """Algorithm 2 with the transition proposal (the [56] filter)."""
    if n_particles < 2:
        raise FilteringError("need at least two particles")
    h, w = model.params.height, model.params.width
    if initial_ignitions is None:
        center = (h // 2, w // 2)
        initial_ignitions = [center] * n_particles
    particles = np.stack(
        [model.initial_state(ig) for ig in initial_ignitions]
    )
    errors, burn_errors, ess_series = [], [], []
    for step, observation in enumerate(observations):
        particles = model.step_particles(particles, rng)
        log_w = model.observation_log_density(particles, observation)
        weights = normalize_log_weights(log_w)
        error, burn_err = _diagnose(
            particles, weights, truth_states[step], model
        )
        errors.append(error)
        burn_errors.append(burn_err)
        ess_series.append(effective_sample_size(weights))
        indices = systematic_resample(weights, rng)
        particles = particles[indices]
    return WildfireFilterResult(
        mean_errors=np.asarray(errors),
        burning_count_errors=np.asarray(burn_errors),
        effective_sample_sizes=np.asarray(ess_series),
    )


def _sensor_adjust(
    state: np.ndarray,
    observation: np.ndarray,
    model: WildfireModel,
    rng: np.random.Generator,
    hot_threshold: float = 70.0,
    cool_threshold: float = 35.0,
    adjust_probability: float = 0.8,
) -> np.ndarray:
    """Build x' from x using the sensor readings ([57]'s adjustment)."""
    adjusted = state.copy()
    for reading, r, c in zip(
        observation, model.sensor_rows, model.sensor_cols
    ):
        if (
            reading >= hot_threshold
            and adjusted[r, c] == UNBURNED
            and rng.uniform() < adjust_probability
        ):
            adjusted[r, c] = BURNING
        elif (
            reading <= cool_threshold
            and adjusted[r, c] == BURNING
            and rng.uniform() < adjust_probability
        ):
            adjusted[r, c] = BURNED
    return adjusted


def wildfire_sensor_filter(
    model: WildfireModel,
    observations: Sequence[np.ndarray],
    truth_states: Sequence[np.ndarray],
    n_particles: int,
    rng: np.random.Generator,
    sensor_confidence: float = 0.5,
    kde_samples: int = 8,
    initial_ignitions: Optional[Sequence[Tuple[int, int]]] = None,
) -> WildfireFilterResult:
    """Algorithm 2 with the sensor-aware proposal (the [57] filter).

    ``sensor_confidence`` is the probability of keeping the
    sensor-adjusted state x' over the plain transition x.
    ``kde_samples`` is the M of the paper: auxiliary draws per particle
    used to KDE-estimate the transition and proposal densities entering
    the weight (via the burning-count summary).
    """
    if not 0.0 <= sensor_confidence <= 1.0:
        raise FilteringError("sensor_confidence must be in [0,1]")
    if kde_samples < 3:
        raise FilteringError("kde_samples must be >= 3")
    if n_particles < 2:
        raise FilteringError("need at least two particles")
    h, w = model.params.height, model.params.width
    if initial_ignitions is None:
        center = (h // 2, w // 2)
        initial_ignitions = [center] * n_particles
    particles = np.stack(
        [model.initial_state(ig) for ig in initial_ignitions]
    )
    errors, burn_errors, ess_series = [], [], []

    def summary(state: np.ndarray) -> float:
        return float((state == BURNING).sum())

    for step, observation in enumerate(observations):
        proposed = np.empty_like(particles)
        log_correction = np.zeros(n_particles)
        for i in range(n_particles):
            previous = particles[i]
            x = model.step(previous, rng)
            x_prime = _sensor_adjust(x, observation, model, rng)
            keep_adjusted = rng.uniform() < sensor_confidence
            chosen = x_prime if keep_adjusted else x
            proposed[i] = chosen
            # KDE estimates of p(s(x) | x_prev) and q(s(x) | y, x_prev)
            # from M auxiliary draws each, per the paper.
            p_draws = [
                summary(model.step(previous, rng))
                for _ in range(kde_samples)
            ]
            q_draws = []
            for _ in range(kde_samples):
                aux = model.step(previous, rng)
                if rng.uniform() < sensor_confidence:
                    aux = _sensor_adjust(aux, observation, model, rng)
                q_draws.append(summary(aux))
            s_chosen = summary(chosen)
            p_hat = KernelDensityEstimator(np.asarray(p_draws)).log_evaluate(
                [s_chosen]
            )[0]
            q_hat = KernelDensityEstimator(np.asarray(q_draws)).log_evaluate(
                [s_chosen]
            )[0]
            log_correction[i] = p_hat - q_hat
        log_w = (
            model.observation_log_density(proposed, observation)
            + log_correction
        )
        weights = normalize_log_weights(log_w)
        error, burn_err = _diagnose(
            proposed, weights, truth_states[step], model
        )
        errors.append(error)
        burn_errors.append(burn_err)
        ess_series.append(effective_sample_size(weights))
        indices = systematic_resample(weights, rng)
        particles = proposed[indices]
    return WildfireFilterResult(
        mean_errors=np.asarray(errors),
        burning_count_errors=np.asarray(burn_errors),
        effective_sample_sizes=np.asarray(ess_series),
    )
