"""The particle filter of the paper's Algorithm 2, plus a Kalman reference.

A hidden Markov (state-space) model supplies: an initial sampler, a
transition sampler (and optionally its log-density), and an observation
log-density.  :func:`particle_filter` runs Algorithm 2 step by step —
sample from the proposal, weight, normalize, resample — supporting both
the *bootstrap* proposal (the transition density, under which the weight
reduces to the observation likelihood, exactly as the paper notes for
[56]) and arbitrary custom proposals.

For linear-Gaussian models the exact posterior is available in closed
form via the Kalman filter implemented here, giving the tests and the
ALG2 benchmark a ground truth to converge to.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.assimilation.importance import (
    effective_sample_size,
    normalize_log_weights,
)
from repro.assimilation.resampling import get_resampler
from repro.errors import FilteringError
from repro.faults.retry import RetryPolicy, TaskFailed
from repro.obs import get_observer
from repro.parallel.backend import Backend, get_backend
from repro.stats.rng import RandomStreamFactory


@dataclass
class StateSpaceModel:
    """A generic state-space (hidden Markov) model.

    All callables are vectorized over a leading particle axis where the
    state is an array of shape ``(n_particles, ...)``.

    Parameters
    ----------
    initial_sampler:
        ``(rng, n) -> states``.
    transition_sampler:
        ``(states, rng) -> next states`` (one step of the dynamics).
    observation_log_density:
        ``(states, observation) -> per-particle log-likelihoods``.
    transition_log_density:
        ``(next_states, states) -> per-particle log-densities``; optional
        (needed only for non-bootstrap proposals).
    """

    initial_sampler: Callable[[np.random.Generator, int], np.ndarray]
    transition_sampler: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    observation_log_density: Callable[[np.ndarray, Any], np.ndarray]
    transition_log_density: Optional[
        Callable[[np.ndarray, np.ndarray], np.ndarray]
    ] = None


@dataclass
class Proposal:
    """A proposal distribution ``q_n(x_n | x_{n-1}, y_n)``.

    ``sampler(states, observation, rng) -> proposed states``;
    ``log_density(proposed, states, observation) -> log q`` per particle.
    """

    sampler: Callable[[np.ndarray, Any, np.random.Generator], np.ndarray]
    log_density: Callable[[np.ndarray, np.ndarray, Any], np.ndarray]


@dataclass
class FilterResult:
    """Output of a particle-filter run."""

    filtered_means: np.ndarray
    effective_sample_sizes: np.ndarray
    log_likelihood: float
    final_particles: np.ndarray

    @property
    def steps(self) -> int:
        """Number of assimilated observations."""
        return int(self.filtered_means.shape[0])


def _initial_shard(
    model: StateSpaceModel, task: Tuple[np.random.SeedSequence, int]
) -> np.ndarray:
    """Sample one shard of initial particles on its own stream (picklable)."""
    seq, count = task
    return model.initial_sampler(np.random.default_rng(seq), count)


def _drop_dead_shards(outputs: List[Any], scope: str) -> List[Any]:
    """Filter out terminally failed shards (``on_shard_failure="degrade"``).

    Collected :class:`TaskFailed` markers are removed with a loud
    warning — the population shrinks, so the degraded run's estimate is
    still a valid (if noisier) Monte Carlo answer but no longer
    byte-identical to a failure-free one.  Losing *every* shard leaves
    nothing to filter with and raises.
    """
    failures = [o for o in outputs if isinstance(o, TaskFailed)]
    if not failures:
        return outputs
    survivors = [o for o in outputs if not isinstance(o, TaskFailed)]
    dead = sorted(f.index for f in failures)
    warnings.warn(
        f"particle filter dropped {len(failures)} dead shard(s) {dead} "
        f"in scope {scope!r}; degrading to {len(survivors)} of "
        f"{len(outputs)} shards — the Monte Carlo population shrinks, so "
        "results will differ from a failure-free run",
        RuntimeWarning,
        stacklevel=3,
    )
    if not survivors:
        raise FilteringError(
            f"every particle shard failed terminally in scope {scope!r}"
        ) from failures[-1]
    return survivors


def _propose_shard(
    model: StateSpaceModel,
    proposal: Optional[Proposal],
    observation: Any,
    task: Tuple[np.ndarray, np.random.SeedSequence],
) -> Tuple[np.ndarray, np.ndarray]:
    """Propose + weight one particle shard (steps 6-9 for a sub-population).

    Module-level so the closure pickles for the process backend; the
    shard's stream comes pre-spawned from the driver, which is what makes
    the fan-out byte-identical on every backend.
    """
    states, seq = task
    rng = np.random.default_rng(seq)
    if proposal is None:
        proposed = model.transition_sampler(states, rng)
        log_w = model.observation_log_density(proposed, observation)
    else:
        proposed = proposal.sampler(states, observation, rng)
        log_w = (
            model.observation_log_density(proposed, observation)
            + model.transition_log_density(proposed, states)
            - proposal.log_density(proposed, states, observation)
        )
    return proposed, log_w


def particle_filter(
    model: StateSpaceModel,
    observations: Sequence[Any],
    n_particles: int,
    rng: Optional[np.random.Generator] = None,
    proposal: Optional[Proposal] = None,
    resampler: str = "systematic",
    summarizer: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    backend: Union[str, Backend, None] = None,
    seed: Optional[int] = None,
    n_shards: int = 8,
    retry: Optional[RetryPolicy] = None,
    on_shard_failure: str = "raise",
) -> FilterResult:
    """Algorithm 2 of the paper.

    With ``proposal=None`` the bootstrap filter runs: the transition
    density is the proposal, so incremental weights are the observation
    likelihoods (steps 2/8 reduce to "an evaluation of the observation
    function").  A custom :class:`Proposal` requires the model's
    ``transition_log_density``.

    ``summarizer`` maps the particle array to per-particle scalars (or
    vectors) whose weighted mean forms ``filtered_means``; the default
    averages the raw state.

    Execution modes: the legacy mode (``backend=None``) threads ``rng``
    through every sampling call sequentially.  With a ``backend`` (and a
    required ``seed``), the population is split into ``n_shards`` fixed
    shards whose proposal sampling and weighting fan out across workers,
    each shard on its own per-step pre-spawned stream; normalization and
    resampling stay global.  Because the shard layout and streams depend
    only on ``(seed, n_shards, n_particles)`` — never on the backend or
    worker count — every backend produces byte-identical results.

    Fault tolerance (parallel mode): failed shards are retried per
    ``retry`` under the fault scopes ``"pf.init"`` / ``"pf.shard"``; a
    retried shard re-runs on its pre-spawned stream, so a recovered run
    stays byte-identical to a failure-free one.  When a shard exhausts
    its attempts, ``on_shard_failure`` decides: ``"raise"`` (default)
    propagates :class:`~repro.faults.retry.TaskFailed`, while
    ``"degrade"`` drops the dead shard's particles with a
    ``RuntimeWarning`` and filters on with a smaller population — a
    smaller (but still valid) Monte Carlo estimate, mirroring how the
    paper's ecosystem platforms survive worker loss mid-experiment.  A
    run in which every shard survives is unaffected by the choice.
    """
    if n_particles < 2:
        raise FilteringError("need at least two particles")
    if on_shard_failure not in ("raise", "degrade"):
        raise FilteringError(
            "on_shard_failure must be 'raise' or 'degrade', "
            f"got {on_shard_failure!r}"
        )
    observations = list(observations)
    if not observations:
        raise FilteringError("need at least one observation")
    if proposal is not None and model.transition_log_density is None:
        raise FilteringError(
            "custom proposals require the model's transition_log_density"
        )
    parallel = backend is not None
    if parallel:
        if seed is None:
            raise FilteringError(
                "parallel particle_filter needs an explicit integer seed "
                "(per-shard streams are spawned from it)"
            )
        if n_shards < 1:
            raise FilteringError("n_shards must be >= 1")
        executor = get_backend(backend)
        factory = RandomStreamFactory(seed)
        shard_count = min(n_shards, n_particles)
        shard_sizes = [
            block.size
            for block in np.array_split(np.arange(n_particles), shard_count)
        ]
        shard_on_error = (
            "collect" if on_shard_failure == "degrade" else "raise"
        )
    elif rng is None:
        raise FilteringError(
            "sequential particle_filter needs an rng (or pass a backend "
            "plus seed)"
        )
    resample = get_resampler(resampler)
    summarize = summarizer if summarizer is not None else (lambda x: x)
    observer = get_observer()
    observer.counter("assimilation.filter_runs").inc()
    observer.counter("assimilation.steps").add(len(observations))

    with observer.span(
        "assimilation.particle_filter",
        steps=len(observations),
        particles=n_particles,
        mode="parallel" if parallel else "sequential",
    ):
        # Step 1: particles at time 0 (before the first observation).
        with observer.span("assimilation.init"):
            if parallel:
                shard_outputs = executor.map(
                    partial(_initial_shard, model),
                    [
                        (factory.sequence(("pf", "init", s)), size)
                        for s, size in enumerate(shard_sizes)
                    ],
                    scope="pf.init",
                    retry=retry,
                    on_error=shard_on_error,
                )
                particles = np.concatenate(
                    _drop_dead_shards(shard_outputs, "pf.init"), axis=0
                )
                if particles.shape[0] < 2:
                    raise FilteringError(
                        "shard failures degraded the population below "
                        "two particles"
                    )
            else:
                particles = model.initial_sampler(rng, n_particles)
        means: List[np.ndarray] = []
        ess_series: List[float] = []
        log_likelihood = 0.0
        ess_histogram = observer.histogram("assimilation.ess")
        resample_timer = observer.timer("assimilation.resample.seconds")

        for step, observation in enumerate(observations):
            with observer.span("assimilation.step", step=step):
                # Steps 6-9: propose and weight.
                with observer.span("assimilation.propose"):
                    if parallel:
                        # A degraded population may have shrunk below the
                        # configured shard count; in a failure-free run
                        # this is exactly ``shard_count``, so the stream
                        # keys — and the results — are unchanged.
                        effective_shards = min(
                            shard_count, int(particles.shape[0])
                        )
                        shard_results = executor.map(
                            partial(
                                _propose_shard, model, proposal, observation
                            ),
                            [
                                (
                                    shard,
                                    factory.sequence(("pf", "step", step, s)),
                                )
                                for s, shard in enumerate(
                                    np.array_split(
                                        particles, effective_shards, axis=0
                                    )
                                )
                            ],
                            scope="pf.shard",
                            retry=retry,
                            on_error=shard_on_error,
                        )
                        shard_results = _drop_dead_shards(
                            shard_results, "pf.shard"
                        )
                        proposed = np.concatenate(
                            [r[0] for r in shard_results], axis=0
                        )
                        log_w = np.concatenate(
                            [r[1] for r in shard_results]
                        )
                        if proposed.shape[0] < 2:
                            raise FilteringError(
                                "shard failures degraded the population "
                                f"below two particles at step {step}"
                            )
                    elif proposal is None:
                        proposed = model.transition_sampler(particles, rng)
                        log_w = model.observation_log_density(
                            proposed, observation
                        )
                    else:
                        previous = particles
                        proposed = proposal.sampler(
                            previous, observation, rng
                        )
                        log_w = (
                            model.observation_log_density(
                                proposed, observation
                            )
                            + model.transition_log_density(
                                proposed, previous
                            )
                            - proposal.log_density(
                                proposed, previous, observation
                            )
                        )
                # Log-likelihood increment: log mean unnormalized weight.
                shift = np.max(log_w)
                if not np.isfinite(shift):
                    raise FilteringError(
                        f"all particles have zero likelihood at step {step}"
                    )
                log_likelihood += float(
                    shift + np.log(np.mean(np.exp(log_w - shift)))
                )
                weights = normalize_log_weights(log_w)
                summary = np.asarray(summarize(proposed), dtype=float)
                if summary.ndim == 1:
                    means.append(np.array([float(weights @ summary)]))
                else:
                    means.append(weights @ summary)
                ess = effective_sample_size(weights)
                ess_series.append(ess)
                ess_histogram.observe(ess)
                # Steps 4/11: resample to equal weights.  Resampling is
                # global (it couples all particles), so it runs in the
                # driver; in parallel mode it draws from its own
                # per-step stream.
                resample_rng = (
                    factory.stream(("pf", "resample", step))
                    if parallel
                    else rng
                )
                with observer.span("assimilation.resample"):
                    resample_start = time.perf_counter()
                    indices = resample(weights, resample_rng)
                    particles = proposed[indices]
                    resample_timer.add(
                        time.perf_counter() - resample_start
                    )
                observer.counter("assimilation.resampled_particles").add(
                    int(particles.shape[0])
                )
    observer.gauge("assimilation.log_likelihood").set(log_likelihood)

    return FilterResult(
        filtered_means=np.vstack(means),
        effective_sample_sizes=np.asarray(ess_series),
        log_likelihood=log_likelihood,
        final_particles=particles,
    )


# ---------------------------------------------------------------------------
# Linear-Gaussian reference model + exact Kalman filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearGaussianSSM:
    """``x_n = a x_{n-1} + N(0, q);  y_n = c x_n + N(0, r)``."""

    a: float = 0.9
    c: float = 1.0
    q: float = 0.5
    r: float = 0.8
    initial_mean: float = 0.0
    initial_var: float = 1.0

    def simulate(
        self, steps: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Generate (states, observations) of length ``steps``."""
        x = np.empty(steps)
        y = np.empty(steps)
        prev = rng.normal(self.initial_mean, np.sqrt(self.initial_var))
        for t in range(steps):
            prev = self.a * prev + rng.normal(0, np.sqrt(self.q))
            x[t] = prev
            y[t] = self.c * prev + rng.normal(0, np.sqrt(self.r))
        return x, y

    def to_state_space_model(self) -> StateSpaceModel:
        """Adapt to the generic particle-filter interface.

        The callables are partials of module-level functions over this
        (frozen, picklable) dataclass, so the resulting model ships to
        process-backend workers intact.
        """
        return StateSpaceModel(
            initial_sampler=partial(_lg_initial_sampler, self),
            transition_sampler=partial(_lg_transition_sampler, self),
            observation_log_density=partial(_lg_observation_log_density, self),
            transition_log_density=partial(_lg_transition_log_density, self),
        )

    def optimal_proposal(self) -> Proposal:
        """The paper's ``q*_n ∝ p(x_n|x_{n-1}) p(y_n|x_n)``.

        For the linear-Gaussian case this is the exact conditional
        ``N(mu, s)`` with precision ``1/q + c^2/r``; like the model
        adapter, picklable for process-backend execution.
        """
        return Proposal(
            sampler=partial(_lg_proposal_sampler, self),
            log_density=partial(_lg_proposal_log_density, self),
        )

    @property
    def _proposal_var(self) -> float:
        return 1.0 / (1.0 / self.q + self.c**2 / self.r)


def _lg_initial_sampler(
    ssm: LinearGaussianSSM, rng: np.random.Generator, n: int
) -> np.ndarray:
    return rng.normal(ssm.initial_mean, np.sqrt(ssm.initial_var), size=n)


def _lg_transition_sampler(ssm: LinearGaussianSSM, states, rng):
    return ssm.a * states + rng.normal(0, np.sqrt(ssm.q), size=states.shape)


def _lg_observation_log_density(ssm: LinearGaussianSSM, states, observation):
    resid = observation - ssm.c * states
    return -0.5 * resid**2 / ssm.r - 0.5 * np.log(2 * np.pi * ssm.r)


def _lg_transition_log_density(ssm: LinearGaussianSSM, next_states, states):
    resid = next_states - ssm.a * states
    return -0.5 * resid**2 / ssm.q - 0.5 * np.log(2 * np.pi * ssm.q)


def _lg_proposal_sampler(ssm: LinearGaussianSSM, states, observation, rng):
    s = ssm._proposal_var
    mu = s * (ssm.a * states / ssm.q + ssm.c * observation / ssm.r)
    return mu + rng.normal(0, np.sqrt(s), size=states.shape)


def _lg_proposal_log_density(ssm: LinearGaussianSSM, proposed, states, observation):
    s = ssm._proposal_var
    mu = s * (ssm.a * states / ssm.q + ssm.c * observation / ssm.r)
    resid = proposed - mu
    return -0.5 * resid**2 / s - 0.5 * np.log(2 * np.pi * s)


def kalman_filter(
    model: LinearGaussianSSM, observations: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact filtered means/variances for the linear-Gaussian SSM."""
    means = []
    variances = []
    mean = model.initial_mean
    var = model.initial_var
    for y in observations:
        # predict
        mean = model.a * mean
        var = model.a**2 * var + model.q
        # update
        gain = var * model.c / (model.c**2 * var + model.r)
        mean = mean + gain * (y - model.c * mean)
        var = (1.0 - gain * model.c) * var
        means.append(mean)
        variances.append(var)
    return np.asarray(means), np.asarray(variances)
