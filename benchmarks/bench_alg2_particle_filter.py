"""ALG2 — the particle filter of paper Algorithm 2.

Validates the implementation on a linear-Gaussian state-space model where
the exact filtering distribution comes from the Kalman filter.  Shape
checks: RMSE to the exact posterior mean decreases with the particle
count; the paper's optimal proposal q* improves the effective sample size
over the bootstrap proposal; SIS *without* resampling collapses.

The convergence sweep runs in the filter's sharded parallel mode through
the library-wide :mod:`repro.parallel` backend (``REPRO_BACKEND``);
``--quick`` shrinks the horizon and particle counts for CI.
"""

from __future__ import annotations

import numpy as np

from benchmarks._util import (
    BenchConfig,
    format_table,
    save_json,
    save_report,
)
from repro.assimilation import (
    LinearGaussianSSM,
    effective_sample_size,
    kalman_filter,
    normalize_log_weights,
    particle_filter,
)
from repro.parallel import get_backend
from repro.stats import make_rng

STEPS = 60


def sis_without_resampling(ssm, observations, n, rng):
    """Plain SIS: weights accumulate multiplicatively (no resampling)."""
    model = ssm.to_state_space_model()
    particles = model.initial_sampler(rng, n)
    log_w = np.zeros(n)
    ess = []
    for y in observations:
        particles = model.transition_sampler(particles, rng)
        log_w = log_w + model.observation_log_density(particles, y)
        ess.append(effective_sample_size(normalize_log_weights(log_w)))
    return np.asarray(ess)


def run_experiment(config: BenchConfig = BenchConfig()):
    steps = 20 if config.quick else STEPS
    particle_counts = (25, 100, 400) if config.quick else (25, 100, 400, 1600)
    seeds = 2 if config.quick else 3
    ssm = LinearGaussianSSM(a=0.9, q=0.5, r=0.5)
    _, observations = ssm.simulate(steps, make_rng(0))
    kalman_means, _ = kalman_filter(ssm, observations)
    model = ssm.to_state_space_model()

    rows = []
    rmse_by_n = {}
    for n in particle_counts:
        errors = []
        ess = []
        for seed in range(seeds):
            result = particle_filter(
                model,
                observations,
                n,
                backend=get_backend(),
                seed=10 + seed,
            )
            errors.append(
                float(
                    np.sqrt(
                        np.mean(
                            (result.filtered_means[:, 0] - kalman_means) ** 2
                        )
                    )
                )
            )
            ess.append(float(result.effective_sample_sizes.mean()))
        rmse_by_n[n] = float(np.mean(errors))
        rows.append((n, rmse_by_n[n], np.mean(ess)))

    bootstrap = particle_filter(model, observations, 400, make_rng(1))
    optimal = particle_filter(
        model, observations, 400, make_rng(1),
        proposal=ssm.optimal_proposal(),
    )
    sis_ess = sis_without_resampling(ssm, observations, 400, make_rng(2))
    return rows, rmse_by_n, bootstrap, optimal, sis_ess


def test_alg2_particle_filter(benchmark, bench_config):
    rows, rmse_by_n, bootstrap, optimal, sis_ess = benchmark.pedantic(
        run_experiment, args=(bench_config,), rounds=1, iterations=1
    )
    table = format_table(
        ["particles", "RMSE vs Kalman", "mean ESS"], rows
    )
    table += "\n\nproposal comparison at N=400:\n"
    table += format_table(
        ["proposal", "mean ESS"],
        [
            ("bootstrap p(x|x_prev)",
             bootstrap.effective_sample_sizes.mean()),
            ("optimal q* ∝ p(x|x_prev) p(y|x)",
             optimal.effective_sample_sizes.mean()),
        ],
    )
    table += (
        f"\n\nSIS without resampling: ESS after step 1 = {sis_ess[0]:.1f}, "
        f"after step {len(sis_ess)} = {sis_ess[-1]:.1f} "
        "(weight collapse the paper's resampling step prevents)"
    )
    save_report("ALG2_particle_filter", table)
    save_json(
        "ALG2_particle_filter",
        {
            "config": {
                "quick": bench_config.quick,
                "backend": get_backend().name,
            },
            "columns": ["particles", "rmse_vs_kalman", "mean_ess"],
            "rows": [list(row) for row in rows],
        },
    )

    # Convergence in N toward the exact (Kalman) answer.
    largest = max(rmse_by_n)
    assert rmse_by_n[largest] < rmse_by_n[min(rmse_by_n)]
    assert rmse_by_n[largest] < (0.2 if bench_config.quick else 0.08)
    # The optimal proposal dominates the bootstrap on ESS.
    assert (
        optimal.effective_sample_sizes.mean()
        > bootstrap.effective_sample_sizes.mean()
    )
    # SIS degeneracy: ESS collapses by the end of the horizon.
    assert sis_ess[-1] < sis_ess[0] / 10
