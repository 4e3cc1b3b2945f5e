"""Tests for Splash-style experiment management."""

from __future__ import annotations

import pytest

from repro.composite import (
    ExperimentManager,
    InputFileTemplate,
    ParameterBinding,
)
from repro.doe import figure5_design
from repro.errors import SimulationError
from tests.test_simsql import answers_under_hash_seeds

ASSIGNMENT_CHILD = """
from repro.composite import ExperimentManager, ParameterBinding

class Model:
    rate = 1.0

model = Model()
manager = ExperimentManager(run_fn=lambda rng: model.rate * rng.normal(), seed=3)
manager.register_parameter(ParameterBinding("rate", model, "rate"))
print(repr(float(manager.run_assignment({"rate": 1.5}).response)))
"""


class _ToyModel:
    def __init__(self):
        self.rate = 1.0
        self.scale = 2.0


@pytest.fixture
def manager():
    model = _ToyModel()
    manager = ExperimentManager(
        run_fn=lambda rng: model.rate * model.scale + rng.normal(0, 1e-12),
        seed=0,
    )
    manager.register_parameter(
        ParameterBinding("rate", model, "rate", low=0.5, high=1.5)
    )
    manager.register_parameter(
        ParameterBinding("scale", model, "scale", low=1.0, high=3.0)
    )
    manager._model = model  # keep alive for assertions
    return manager


class TestParameterRegistry:
    def test_unified_view(self, manager):
        assert manager.parameter_names == ["rate", "scale"]
        assert manager.parameter_ranges()["rate"] == (0.5, 1.5)

    def test_duplicate_rejected(self, manager):
        with pytest.raises(SimulationError):
            manager.register_parameter(
                ParameterBinding("rate", manager._model, "rate")
            )

    def test_assignment_applies_to_component(self, manager):
        manager.run_assignment({"rate": 0.7, "scale": 2.5})
        assert manager._model.rate == 0.7
        assert manager._model.scale == 2.5

    def test_unknown_parameter_rejected(self, manager):
        with pytest.raises(SimulationError):
            manager.run_assignment({"bogus": 1.0})

    def test_unknown_attribute_rejected(self):
        manager = ExperimentManager(lambda rng: 0.0)
        manager.register_parameter(
            ParameterBinding("x", _ToyModel(), "missing_attr")
        )
        with pytest.raises(SimulationError):
            manager.run_assignment({"x": 1.0})


class TestDecoding:
    def test_decode_levels(self, manager):
        assignment = manager.decode_levels([-1.0, 1.0])
        assert assignment == {"rate": 0.5, "scale": 3.0}

    def test_decode_midpoint(self, manager):
        assignment = manager.decode_levels([0.0, 0.0])
        assert assignment == {"rate": 1.0, "scale": 2.0}

    def test_decode_requires_ranges(self):
        manager = ExperimentManager(lambda rng: 0.0)
        manager.register_parameter(ParameterBinding("x", _ToyModel(), "rate"))
        with pytest.raises(SimulationError):
            manager.decode_levels([0.0])

    def test_decode_arity(self, manager):
        with pytest.raises(SimulationError):
            manager.decode_levels([0.0])


class TestTemplates:
    def test_template_rendered_per_run(self, manager):
        manager.register_template(
            InputFileTemplate("config.txt", "rate=$rate\nscale=$scale\n")
        )
        run = manager.run_assignment({"rate": 0.9, "scale": 1.5})
        assert run.rendered_inputs["config.txt"] == "rate=0.9\nscale=1.5\n"

    def test_missing_placeholder_raises(self, manager):
        manager.register_template(
            InputFileTemplate("bad.txt", "value=$missing\n")
        )
        with pytest.raises(SimulationError):
            manager.run_assignment({"rate": 1.0, "scale": 2.0})


class TestDesignExecution:
    def test_run_coded_design(self, manager):
        runs = manager.run_design(figure5_design() / 4.0, coded=True)
        assert len(runs) == 9
        for run in runs:
            expected = run.assignment["rate"] * run.assignment["scale"]
            assert run.response == pytest.approx(expected, abs=1e-6)

    def test_run_natural_design(self, manager):
        runs = manager.run_design(
            [[1.0, 2.0], [0.5, 3.0]], coded=False
        )
        assert runs[0].response == pytest.approx(2.0, abs=1e-6)
        assert runs[1].response == pytest.approx(1.5, abs=1e-6)

    def test_replications(self, manager):
        runs = manager.run_design([[1.0, 2.0]], coded=False, replications=3)
        assert len(runs) == 3

    def test_reproducible_responses(self, manager):
        a = manager.run_assignment({"rate": 1.0, "scale": 2.0}).response
        b = manager.run_assignment({"rate": 1.0, "scale": 2.0}).response
        assert a == b

    def test_stream_follows_assignment_values_not_their_order(self):
        model = _ToyModel()
        manager = ExperimentManager(run_fn=lambda rng: rng.normal(), seed=3)
        manager.register_parameter(ParameterBinding("rate", model, "rate"))
        manager.register_parameter(ParameterBinding("scale", model, "scale"))
        forward = manager.run_assignment({"rate": 1.0, "scale": 2.0}).response
        backward = manager.run_assignment({"scale": 2.0, "rate": 1.0}).response
        other = manager.run_assignment({"rate": 1.0, "scale": 2.5}).response
        assert forward == backward
        assert other != forward

    def test_responses_survive_a_new_interpreter(self):
        # The assignment's names are strings, hashed differently in each
        # interpreter; the run's stream must not depend on that.
        first, second = answers_under_hash_seeds(ASSIGNMENT_CHILD)
        assert first == second
