"""Tests for importance sampling, particle filtering, and wildfire DA."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assimilation import (
    KernelDensityEstimator,
    LinearGaussianSSM,
    WildfireModel,
    WildfireParameters,
    effective_sample_size,
    importance_sample,
    kalman_filter,
    multinomial_resample,
    normalize_log_weights,
    normalize_weights,
    particle_filter,
    silverman_bandwidth,
    sis_weight_update,
    stratified_resample,
    systematic_resample,
    wildfire_bootstrap_filter,
    wildfire_sensor_filter,
)
from repro.assimilation.wildfire import BURNED, UNBURNED
from repro.errors import FilteringError
from repro.stats import make_rng


class TestWeights:
    def test_normalize(self):
        w = normalize_weights(np.array([1.0, 3.0]))
        np.testing.assert_allclose(w, [0.25, 0.75])

    def test_normalize_rejects_negative(self):
        with pytest.raises(FilteringError):
            normalize_weights(np.array([-1.0, 2.0]))

    def test_normalize_rejects_collapse(self):
        with pytest.raises(FilteringError):
            normalize_weights(np.zeros(3))

    def test_log_normalization_stable(self):
        w = normalize_log_weights(np.array([-1000.0, -1000.0, -1001.0]))
        assert w.sum() == pytest.approx(1.0)
        assert w[0] == pytest.approx(w[1])

    def test_effective_sample_size_bounds(self):
        uniform = np.full(10, 0.1)
        assert effective_sample_size(uniform) == pytest.approx(10.0)
        collapsed = np.zeros(10)
        collapsed[0] = 1.0
        assert effective_sample_size(collapsed) == pytest.approx(1.0)

    def test_sis_update(self):
        out = sis_weight_update(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, 0.0])


class TestImportanceSampling:
    def test_estimates_normal_mean_from_wide_proposal(self, rng):
        estimate = importance_sample(
            target_log_density=lambda x: -0.5 * (x - 2.0) ** 2,
            proposal_log_density=lambda x: -0.5 * (x / 4.0) ** 2
            - np.log(4.0),
            proposal_sampler=lambda r, n: r.normal(0, 4.0, size=n),
            integrand=lambda x: x,
            n=40000,
            rng=rng,
        )
        assert estimate.value == pytest.approx(2.0, abs=0.1)

    def test_normalizing_constant(self, rng):
        # Unnormalized N(0,1): gamma = exp(-x^2/2), Z = sqrt(2 pi).
        estimate = importance_sample(
            target_log_density=lambda x: -0.5 * x**2,
            proposal_log_density=lambda x: -0.5 * (x / 2.0) ** 2
            - np.log(2.0 * np.sqrt(2 * np.pi)),
            proposal_sampler=lambda r, n: r.normal(0, 2.0, size=n),
            integrand=lambda x: x,
            n=40000,
            rng=rng,
        )
        assert estimate.normalizing_constant == pytest.approx(
            np.sqrt(2 * np.pi), rel=0.05
        )


class TestResampling:
    @pytest.mark.parametrize(
        "resample",
        [multinomial_resample, systematic_resample, stratified_resample],
        ids=["multinomial", "systematic", "stratified"],
    )
    def test_frequency_proportional_to_weights(self, resample, rng):
        weights = np.array([0.5, 0.3, 0.2])
        counts = np.zeros(3)
        for _ in range(400):
            indices = resample(weights, rng)
            for i in indices:
                counts[i] += 1
        freq = counts / counts.sum()
        np.testing.assert_allclose(freq, weights, atol=0.05)

    def test_systematic_preserves_heavy_particles(self, rng):
        weights = np.array([0.96, 0.02, 0.02])
        indices = systematic_resample(weights, rng)
        assert (indices == 0).sum() >= 2

    def test_accepts_unnormalized_weights(self, rng):
        """Any nonnegative finite vector with positive sum normalizes.

        Accumulated importance weights arrive unnormalized (their sum is
        whatever the likelihoods produced); resampling must treat
        ``[0.5, 0.2]`` exactly like the normalized ``[5/7, 2/7]``.
        """
        raw = np.array([0.5, 0.2])
        state = rng.bit_generator.state
        from_raw = systematic_resample(raw, rng)
        rng.bit_generator.state = state
        from_normalized = systematic_resample(raw / raw.sum(), rng)
        assert np.array_equal(from_raw, from_normalized)

    def test_accepts_float_drift_sum(self, rng):
        # Sum 0.99 — the drifted-but-valid case the old strict
        # isclose(sum, 1) check wrongly rejected.
        indices = systematic_resample(np.array([0.33, 0.33, 0.33]), rng)
        assert indices.shape == (3,)

    def test_rejects_unusable_weights(self, rng):
        for bad in (
            np.array([0.0, 0.0]),          # zero sum: nothing to draw
            np.array([0.5, np.nan]),       # NaN entry
            np.array([0.5, np.inf]),       # non-finite entry
            np.array([0.8, -0.2]),         # negative entry
        ):
            with pytest.raises(FilteringError):
                systematic_resample(bad, rng)


class TestKDE:
    def test_density_integrates_to_one(self, rng):
        data = rng.normal(size=300)
        kde = KernelDensityEstimator(data)
        grid = np.linspace(-6, 6, 1001)
        integral = np.trapezoid(kde.evaluate(grid), grid)
        assert integral == pytest.approx(1.0, abs=0.01)

    def test_recovers_normal_density(self, rng):
        data = rng.normal(size=3000)
        kde = KernelDensityEstimator(data)
        from scipy.stats import norm

        grid = np.linspace(-2, 2, 21)
        np.testing.assert_allclose(
            kde.evaluate(grid), norm.pdf(grid), atol=0.05
        )

    @pytest.mark.parametrize("kernel", ["gaussian", "laplace", "epanechnikov"])
    def test_all_kernels_positive_at_mode(self, kernel, rng):
        data = rng.normal(size=200)
        kde = KernelDensityEstimator(data, kernel=kernel)
        assert kde.evaluate([0.0])[0] > 0

    def test_silverman_shrinks_with_n(self, rng):
        small = silverman_bandwidth(rng.normal(size=50))
        large = silverman_bandwidth(rng.normal(size=5000))
        assert large < small

    def test_validation(self):
        with pytest.raises(FilteringError):
            KernelDensityEstimator(np.array([]))
        with pytest.raises(FilteringError):
            KernelDensityEstimator(np.array([1.0]), kernel="box")


class TestParticleFilterLinearGaussian:
    def test_converges_to_kalman(self):
        ssm = LinearGaussianSSM()
        _, y = ssm.simulate(40, make_rng(0))
        kalman_means, _ = kalman_filter(ssm, y)
        model = ssm.to_state_space_model()
        errors = {}
        for n in (50, 2000):
            result = particle_filter(model, y, n, make_rng(1))
            errors[n] = float(
                np.sqrt(np.mean((result.filtered_means[:, 0] - kalman_means) ** 2))
            )
        assert errors[2000] < errors[50]
        assert errors[2000] < 0.1

    def test_optimal_proposal_improves_ess(self):
        ssm = LinearGaussianSSM(r=0.3)  # informative observations
        _, y = ssm.simulate(40, make_rng(2))
        model = ssm.to_state_space_model()
        bootstrap = particle_filter(model, y, 400, make_rng(3))
        optimal = particle_filter(
            model, y, 400, make_rng(3), proposal=ssm.optimal_proposal()
        )
        assert (
            optimal.effective_sample_sizes.mean()
            > bootstrap.effective_sample_sizes.mean()
        )

    def test_log_likelihood_finite(self):
        ssm = LinearGaussianSSM()
        _, y = ssm.simulate(20, make_rng(4))
        result = particle_filter(
            ssm.to_state_space_model(), y, 200, make_rng(5)
        )
        assert np.isfinite(result.log_likelihood)

    def test_validation(self):
        ssm = LinearGaussianSSM()
        model = ssm.to_state_space_model()
        with pytest.raises(FilteringError):
            particle_filter(model, [1.0], 1, make_rng(0))
        with pytest.raises(FilteringError):
            particle_filter(model, [], 10, make_rng(0))
        model_no_density = ssm.to_state_space_model()
        model_no_density.transition_log_density = None
        with pytest.raises(FilteringError):
            particle_filter(
                model_no_density,
                [1.0],
                10,
                make_rng(0),
                proposal=ssm.optimal_proposal(),
            )


class TestWildfireModel:
    @pytest.fixture
    def model(self):
        return WildfireModel(
            WildfireParameters(height=8, width=8, sensor_fraction=0.5),
            seed=0,
        )

    def test_fire_spreads_and_burns_out(self, model):
        rng = make_rng(1)
        states = model.simulate(25, rng)
        assert model.burned_area(states[-1]) > model.burned_area(states[0])
        # A burned cell never un-burns.
        for before, after in zip(states, states[1:]):
            assert not np.any((before == BURNED) & (after != BURNED))

    def test_unburned_never_skips_to_burned(self, model):
        rng = make_rng(2)
        states = model.simulate(20, rng)
        for before, after in zip(states, states[1:]):
            assert not np.any((before == UNBURNED) & (after == BURNED))

    def test_observation_log_density_prefers_truth(self, model):
        rng = make_rng(3)
        truth = model.simulate(8, rng)[-1]
        obs = model.observe(truth, rng)
        wrong = model.initial_state((0, 0))
        ll = model.observation_log_density(
            np.stack([truth, wrong]), obs
        )
        assert ll[0] > ll[1]

    def test_wind_biases_spread(self):
        params = WildfireParameters(
            height=15, width=15, wind=(0.9, 0.0), spread_probability=0.25
        )
        model = WildfireModel(params, seed=4)
        downwind = 0
        upwind = 0
        for seed in range(20):
            final = model.simulate(10, make_rng(seed))[-1]
            burned = np.argwhere(final != UNBURNED)
            center = params.height // 2
            downwind += int((burned[:, 0] > center).sum())
            upwind += int((burned[:, 0] < center).sum())
        assert downwind > upwind


class TestWildfireFilters:
    def _scenario(self, seed=0, steps=10):
        params = WildfireParameters(height=8, width=8, sensor_fraction=0.5)
        model = WildfireModel(params, seed=seed)
        rng = make_rng(seed + 100)
        truth = model.simulate(steps, rng)
        observations = [model.observe(s, rng) for s in truth[1:]]
        return model, truth[1:], observations

    def test_bootstrap_filter_tracks_fire(self):
        model, truth, obs = self._scenario(0)
        result = wildfire_bootstrap_filter(
            model, obs, truth, n_particles=30, rng=make_rng(1)
        )
        assert result.average_error < 0.5
        assert result.mean_errors.shape == (len(obs),)

    def test_assimilation_beats_blind_simulation(self):
        model, truth, obs = self._scenario(1, steps=12)
        filtered = wildfire_bootstrap_filter(
            model, obs, truth, n_particles=40, rng=make_rng(2)
        )
        # Blind: single unassimilated run from the same ignition.
        blind = model.simulate(12, make_rng(3))[1:]
        blind_err = np.mean(
            [model.state_error(b, t) for b, t in zip(blind, truth)]
        )
        assert filtered.average_error < blind_err + 0.05

    def test_sensor_filter_runs_and_is_competitive(self):
        model, truth, obs = self._scenario(2, steps=8)
        boot = wildfire_bootstrap_filter(
            model, obs, truth, n_particles=25, rng=make_rng(4)
        )
        sens = wildfire_sensor_filter(
            model, obs, truth, n_particles=25, rng=make_rng(4),
            kde_samples=5,
        )
        assert sens.average_error < boot.average_error + 0.1

    def test_validation(self):
        model, truth, obs = self._scenario(3, steps=4)
        with pytest.raises(FilteringError):
            wildfire_bootstrap_filter(model, obs, truth, 1, make_rng(0))
        with pytest.raises(FilteringError):
            wildfire_sensor_filter(
                model, obs, truth, 10, make_rng(0), kde_samples=2
            )
        with pytest.raises(FilteringError):
            wildfire_sensor_filter(
                model, obs, truth, 10, make_rng(0), sensor_confidence=2.0
            )
