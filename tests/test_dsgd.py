"""Tests for SGD/DSGD solvers and DSGD matrix completion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.harmonize import (
    RatingsMatrix,
    SGDConfig,
    direct_solver_shuffle_cost,
    dsgd_factorize,
    dsgd_solve,
    sgd_factorize,
    sgd_solve,
    strata_indices,
)
from repro.stats import (
    make_rng,
    random_diagonally_dominant_system,
    thomas_solve,
)


class TestSGD:
    def test_loss_decreases(self):
        system = random_diagonally_dominant_system(200, make_rng(0))
        result = sgd_solve(system, make_rng(1), SGDConfig(epochs=60))
        assert result.final_loss < result.loss_history[0] * 0.2

    def test_converges_toward_exact(self):
        system = random_diagonally_dominant_system(150, make_rng(2))
        exact = thomas_solve(system)
        result = sgd_solve(
            system, make_rng(3), SGDConfig(epochs=250, step_exponent=0.6)
        )
        rel = np.linalg.norm(result.x - exact) / np.linalg.norm(exact)
        assert rel < 0.15

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            SGDConfig(step_exponent=0.3)
        with pytest.raises(SimulationError):
            SGDConfig(epochs=0)

    def test_gradient_step_count(self):
        system = random_diagonally_dominant_system(50, make_rng(4))
        result = sgd_solve(system, make_rng(5), SGDConfig(epochs=10))
        assert result.gradient_steps == 500
        assert result.records_shuffled == 500


class TestDSGD:
    def test_strata_partition_all_rows(self):
        strata = strata_indices(100, 3)
        combined = np.sort(np.concatenate(strata))
        np.testing.assert_array_equal(combined, np.arange(100))

    def test_strata_within_disjoint_updates(self):
        # Rows i, i+3 touch entry sets {i-1,i,i+1}, {i+2,i+3,i+4}: disjoint.
        strata = strata_indices(30, 3)
        for stratum in strata:
            touched = set()
            for i in stratum:
                entries = {max(i - 1, 0), i, min(i + 1, 29)}
                assert not (touched & entries)
                touched |= entries

    def test_needs_three_strata(self):
        with pytest.raises(SimulationError):
            strata_indices(10, 2)

    def test_dsgd_converges_like_sgd(self):
        system = random_diagonally_dominant_system(300, make_rng(6))
        config = SGDConfig(epochs=120, step_exponent=0.6)
        sgd = sgd_solve(system, make_rng(7), config)
        dsgd = dsgd_solve(system, make_rng(8), config, num_workers=4)
        assert dsgd.final_loss < system.rhs @ system.rhs  # made progress
        # Comparable quality to unstratified SGD (within 3x).
        assert dsgd.final_loss < max(sgd.final_loss * 3.0, 1e-8)

    def test_dsgd_shuffles_far_less(self):
        system = random_diagonally_dominant_system(600, make_rng(9))
        config = SGDConfig(epochs=20)
        sgd = sgd_solve(system, make_rng(10), config)
        dsgd = dsgd_solve(system, make_rng(11), config, num_workers=4)
        assert dsgd.records_shuffled < sgd.records_shuffled / 10
        # And both dwarfed by what a direct MapReduce solve would shuffle
        # over the same number of passes.
        assert dsgd.records_shuffled < direct_solver_shuffle_cost(600, 20)

    def test_worker_count_irrelevant_to_correctness(self):
        system = random_diagonally_dominant_system(120, make_rng(12))
        config = SGDConfig(epochs=150, step_exponent=0.6)
        exact = thomas_solve(system)
        for workers in (1, 3, 8):
            result = dsgd_solve(
                system, make_rng(13), config, num_workers=workers
            )
            rel = np.linalg.norm(result.x - exact) / np.linalg.norm(exact)
            assert rel < 0.25

    def test_validation(self):
        system = random_diagonally_dominant_system(10, make_rng(14))
        with pytest.raises(SimulationError):
            dsgd_solve(system, make_rng(15), num_workers=0)
        with pytest.raises(SimulationError):
            direct_solver_shuffle_cost(10, 0)


class TestMatrixCompletion:
    def _problem(self, seed=0):
        return RatingsMatrix.synthetic(
            num_rows=40, num_cols=30, rank=3, density=0.3, rng=make_rng(seed)
        )

    def test_synthetic_shapes(self):
        matrix, w, h = self._problem()
        assert w.shape == (40, 3)
        assert h.shape == (3, 30)
        assert matrix.num_observed > 0

    def test_sgd_reduces_loss(self):
        matrix, _, _ = self._problem(1)
        result = sgd_factorize(matrix, rank=3, rng=make_rng(2), epochs=25)
        assert result.final_loss < result.loss_history[0] * 0.3

    def test_dsgd_reduces_loss(self):
        matrix, _, _ = self._problem(3)
        result = dsgd_factorize(
            matrix, rank=3, rng=make_rng(4), num_blocks=4, epochs=25
        )
        assert result.final_loss < result.loss_history[0] * 0.3

    def test_dsgd_matches_sgd_quality(self):
        matrix, _, _ = self._problem(5)
        sgd = sgd_factorize(matrix, rank=3, rng=make_rng(6), epochs=30)
        dsgd = dsgd_factorize(
            matrix, rank=3, rng=make_rng(7), num_blocks=4, epochs=30
        )
        assert dsgd.final_loss < sgd.final_loss * 2.0 + 0.05

    def test_dsgd_shuffle_advantage(self):
        matrix, _, _ = self._problem(8)
        sgd = sgd_factorize(matrix, rank=3, rng=make_rng(9), epochs=10)
        dsgd = dsgd_factorize(
            matrix, rank=3, rng=make_rng(10), num_blocks=4, epochs=10
        )
        assert dsgd.records_shuffled < sgd.records_shuffled / 5

    def test_predict_shape(self):
        matrix, _, _ = self._problem(11)
        result = sgd_factorize(matrix, rank=3, rng=make_rng(12), epochs=5)
        pred = result.predict(matrix.rows[:5], matrix.cols[:5])
        assert pred.shape == (5,)

    def test_validation(self):
        with pytest.raises(SimulationError):
            RatingsMatrix(2, 2, np.array([5]), np.array([0]), np.array([1.0]))
        matrix, _, _ = self._problem(13)
        with pytest.raises(SimulationError):
            sgd_factorize(matrix, rank=0, rng=make_rng(14))
