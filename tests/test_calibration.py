"""Tests for calibration: MLE, MM, MSM, optimizers, market model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import (
    HerdingMarketModel,
    HerdingParameters,
    MSMProblem,
    exponential_log_likelihood,
    exponential_mle,
    exponential_mm,
    genetic_algorithm,
    kriging_calibrate,
    make_msm_simulator,
    nelder_mead,
    normal_mle,
    normal_mm,
    numeric_mle,
    random_search,
    standard_market_moments,
)
from repro.errors import CalibrationError
from repro.stats import make_rng


class TestMLE:
    def test_exponential_closed_form(self, rng):
        data = rng.exponential(1.0 / 2.5, size=20000)
        assert exponential_mle(data) == pytest.approx(2.5, rel=0.05)

    def test_exponential_mle_maximizes_likelihood(self, rng):
        data = rng.exponential(0.5, size=500)
        theta_hat = exponential_mle(data)
        best = exponential_log_likelihood(data, theta_hat)
        for other in (theta_hat * 0.8, theta_hat * 1.2):
            assert exponential_log_likelihood(data, other) < best

    def test_mm_equals_mle_for_exponential(self, rng):
        """The paper's observation: for the exponential, MM == MLE."""
        data = rng.exponential(2.0, size=100)
        assert exponential_mm(data) == pytest.approx(exponential_mle(data))

    def test_normal_closed_form(self, rng):
        data = rng.normal(3.0, 2.0, size=20000)
        mu, sigma = normal_mle(data)
        assert mu == pytest.approx(3.0, abs=0.05)
        assert sigma == pytest.approx(2.0, abs=0.05)
        assert normal_mm(data) == pytest.approx((mu, sigma))

    def test_numeric_mle_recovers_exponential(self, rng):
        data = rng.exponential(1.0 / 3.0, size=2000)

        def log_density(x, theta):
            rate = theta[0]
            if rate <= 0:
                return np.full(x.shape, -np.inf)
            return np.log(rate) - rate * x

        result = numeric_mle(log_density, data, [1.0], bounds=[(1e-6, 50.0)])
        assert result.parameters[0] == pytest.approx(
            exponential_mle(data), rel=1e-3
        )

    def test_validation(self):
        with pytest.raises(CalibrationError):
            exponential_mle([])
        with pytest.raises(CalibrationError):
            exponential_mle([-1.0, 2.0])
        with pytest.raises(CalibrationError):
            normal_mle([1.0])


class TestOptimizers:
    @staticmethod
    def rosenbrock(x):
        return float(
            (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
        )

    @staticmethod
    def sphere(x):
        return float(np.sum((np.asarray(x) - 0.3) ** 2))

    def test_nelder_mead_on_rosenbrock(self):
        result = nelder_mead(
            self.rosenbrock, [-1.0, 1.0], max_iterations=2000
        )
        assert result.value < 1e-6
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-2)

    def test_nelder_mead_respects_bounds(self):
        result = nelder_mead(
            self.sphere, [0.9, 0.9], bounds=[(0.5, 1.0), (0.5, 1.0)],
            max_iterations=500,
        )
        assert np.all(result.x >= 0.5 - 1e-12)
        # Constrained optimum is at the boundary (0.5, 0.5).
        np.testing.assert_allclose(result.x, [0.5, 0.5], atol=1e-3)

    def test_genetic_algorithm_on_sphere(self):
        result = genetic_algorithm(
            self.sphere,
            bounds=[(-2.0, 2.0)] * 3,
            rng=make_rng(0),
            population_size=30,
            generations=60,
        )
        assert result.value < 1e-2
        np.testing.assert_allclose(result.x, [0.3] * 3, atol=0.1)

    def test_ga_beats_random_search_on_budget(self):
        bounds = [(-2.0, 2.0)] * 4
        ga = genetic_algorithm(
            self.sphere, bounds, make_rng(1),
            population_size=20, generations=24,
        )
        rs = random_search(self.sphere, bounds, make_rng(2), evaluations=500)
        assert ga.value < rs.value

    def test_evaluation_counting(self):
        calls = []
        result = nelder_mead(
            lambda x: (calls.append(1), self.sphere(x))[1],
            [0.0, 0.0],
            max_iterations=50,
        )
        assert result.evaluations == len(calls)

    def test_validation(self):
        with pytest.raises(CalibrationError):
            genetic_algorithm(self.sphere, [(0.0, 1.0)], make_rng(0), population_size=2)
        with pytest.raises(CalibrationError):
            genetic_algorithm(self.sphere, [(1.0, 0.0)], make_rng(0))


class TestMarketModel:
    def test_returns_shape_and_reproducibility(self):
        model = HerdingMarketModel(HerdingParameters(), num_traders=50)
        a = model.simulate_returns(200, make_rng(0))
        b = model.simulate_returns(200, make_rng(0))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (200,)

    def test_herding_fattens_tails(self):
        quiet = HerdingParameters(herding_rate=0.0, sentiment_impact=0.2)
        herding = HerdingParameters(herding_rate=0.12, sentiment_impact=0.2)
        kurt = {}
        for name, params in (("quiet", quiet), ("herding", herding)):
            model = HerdingMarketModel(params, num_traders=100)
            r = model.simulate_returns(4000, make_rng(1))
            moments = standard_market_moments(r)
            kurt[name] = moments[1]
        assert kurt["herding"] > kurt["quiet"]

    def test_moment_vector_shape(self):
        r = make_rng(2).normal(size=500)
        moments = standard_market_moments(r)
        assert moments.shape == (4,)
        assert moments[1] == pytest.approx(3.0, abs=0.6)  # normal kurtosis

    def test_validation(self):
        with pytest.raises(CalibrationError):
            HerdingParameters(idiosyncratic_rate=0.0)
        with pytest.raises(CalibrationError):
            HerdingMarketModel(HerdingParameters(), num_traders=1)
        with pytest.raises(CalibrationError):
            standard_market_moments(np.zeros(5))


class TestMSM:
    def _problem(self, seed=0):
        true = HerdingParameters(herding_rate=0.08)
        model = HerdingMarketModel(true, num_traders=80)
        observed = standard_market_moments(
            model.simulate_returns(1500, make_rng(seed))
        )
        simulator = make_msm_simulator(true, num_traders=80, steps=300)
        return MSMProblem(
            simulator, observed, simulations_per_theta=3, seed=seed
        ), true

    def test_objective_nonnegative_and_counted(self):
        problem, true = self._problem()
        value = problem.objective(true.as_vector())
        assert value >= 0.0
        assert problem.evaluations == 1
        assert problem.simulation_calls == 3

    def test_objective_smaller_near_truth(self):
        problem, true = self._problem(seed=1)
        problem.estimate_weight_matrix(true.as_vector(), replications=25)
        at_truth = problem.objective(true.as_vector())
        for far_theta in ((0.019, 0.29), (0.019, 0.0), (0.0001, 0.0)):
            assert at_truth < problem.objective(np.array(far_theta))

    def test_weight_matrix_is_inverse_covariance(self):
        problem, true = self._problem(seed=2)
        w = problem.estimate_weight_matrix(true.as_vector(), replications=25)
        assert w.shape == (4, 4)
        # W must be symmetric positive definite.
        np.testing.assert_allclose(w, w.T, rtol=1e-8)
        assert np.all(np.linalg.eigvalsh(w) > 0)

    def test_crn_makes_objective_deterministic(self):
        problem, true = self._problem(seed=3)
        theta = true.as_vector()
        assert problem.objective(theta) == problem.objective(theta)

    def test_regularized_objective_penalizes_distance(self):
        problem, true = self._problem(seed=4)
        reference = true.as_vector()
        regularized = problem.with_regularization(1000.0, reference)
        at_ref = regularized(reference)
        away = regularized(reference + 0.05)
        assert away > at_ref

    def test_simulator_shape_check(self):
        problem = MSMProblem(
            lambda theta, rng: np.zeros(3),
            np.zeros(4),
            simulations_per_theta=1,
        )
        with pytest.raises(CalibrationError):
            problem.objective(np.zeros(2))


class TestKrigingCalibration:
    def test_finds_minimum_of_smooth_function(self):
        objective = lambda x: float(
            (x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2
        )
        result = kriging_calibrate(
            objective,
            bounds=[(-1.0, 1.0), (-1.0, 1.0)],
            rng=make_rng(0),
            design_runs=15,
            refinement_rounds=4,
        )
        assert result.value < 0.02
        np.testing.assert_allclose(result.x, [0.3, -0.2], atol=0.15)

    def test_uses_few_expensive_evaluations(self):
        calls = []

        def objective(x):
            calls.append(1)
            return float(np.sum(np.asarray(x) ** 2))

        result = kriging_calibrate(
            objective, [(-1.0, 1.0)] * 2, make_rng(1),
            design_runs=12, refinement_rounds=3,
        )
        assert result.expensive_evaluations == len(calls)
        assert len(calls) <= 12 + 3

    def test_validation(self):
        with pytest.raises(CalibrationError):
            kriging_calibrate(
                lambda x: 0.0, [(-1.0, 1.0)], make_rng(0), design_runs=2
            )
