"""Experiment management for composite models (Splash, Section 4.2).

Splash "uses metadata to provide an experimenter with a unified view of
composite model parameters ... as well as runtime support for setting
parameter values by automatically synthesizing, via a templating
mechanism, the input files that each component model expects".

:class:`ExperimentManager` exposes a flat parameter namespace over the
components of a pipeline, accepts a design matrix (e.g. from
:mod:`repro.doe`), synthesizes per-run input documents from string
templates, runs the composite at every design point, and collects the
responses.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.stats.rng import _stable_digest


@dataclass(frozen=True)
class ParameterBinding:
    """One entry of the unified parameter view.

    ``apply(target, value)`` pushes a value into the owning component —
    by default ``setattr(component, attribute, value)``.
    """

    name: str
    component: Any
    attribute: str
    low: Optional[float] = None
    high: Optional[float] = None

    def apply(self, value: Any) -> None:
        if not hasattr(self.component, self.attribute):
            raise SimulationError(
                f"component has no attribute {self.attribute!r} "
                f"for parameter {self.name!r}"
            )
        setattr(self.component, self.attribute, value)

    def current(self) -> Any:
        """The component's current value of this parameter."""
        return getattr(self.component, self.attribute)


class InputFileTemplate:
    """A component's input document synthesized from parameter values.

    Uses :class:`string.Template` ``$name`` placeholders — each run's
    parameter assignment is substituted to produce the text a component
    model would read.
    """

    def __init__(self, name: str, template: str) -> None:
        self.name = name
        self.template = string.Template(template)

    def render(self, assignment: Mapping[str, Any]) -> str:
        """Substitute an assignment; missing placeholders raise."""
        try:
            return self.template.substitute(
                {k: str(v) for k, v in assignment.items()}
            )
        except KeyError as exc:
            raise SimulationError(
                f"template {self.name!r} needs parameter {exc.args[0]!r}"
            ) from exc


@dataclass
class ExperimentRun:
    """One executed design point."""

    assignment: Dict[str, Any]
    response: float
    rendered_inputs: Dict[str, str] = field(default_factory=dict)


class ExperimentManager:
    """Parameter registry + design execution for a composite model."""

    def __init__(
        self,
        run_fn: Callable[[np.random.Generator], float],
        seed: int = 0,
    ) -> None:
        self._run_fn = run_fn
        self.seed = seed
        self._bindings: Dict[str, ParameterBinding] = {}
        self._templates: List[InputFileTemplate] = []

    # -- registration ------------------------------------------------------
    def register_parameter(self, binding: ParameterBinding) -> None:
        """Expose one component attribute under a unified name."""
        if binding.name in self._bindings:
            raise SimulationError(
                f"parameter {binding.name!r} already registered"
            )
        self._bindings[binding.name] = binding

    def register_template(self, template: InputFileTemplate) -> None:
        """Attach an input-file template rendered for every run."""
        self._templates.append(template)

    @property
    def parameter_names(self) -> List[str]:
        """The unified parameter namespace."""
        return sorted(self._bindings)

    def parameter_ranges(self) -> Dict[str, Any]:
        """Declared (low, high) ranges per parameter (None when absent)."""
        return {
            name: (b.low, b.high) for name, b in self._bindings.items()
        }

    # -- execution -------------------------------------------------------
    def _apply_assignment(self, assignment: Mapping[str, Any]) -> None:
        unknown = set(assignment) - set(self._bindings)
        if unknown:
            raise SimulationError(
                f"assignment has unknown parameters {sorted(unknown)}"
            )
        for name, value in assignment.items():
            self._bindings[name].apply(value)

    def decode_levels(
        self, coded_row: Sequence[float]
    ) -> Dict[str, float]:
        """Map a coded design row in [-1, 1] to natural parameter values.

        Requires every registered parameter to declare a (low, high)
        range; parameters are taken in sorted-name order.
        """
        names = self.parameter_names
        if len(coded_row) != len(names):
            raise SimulationError(
                f"design row has {len(coded_row)} levels for "
                f"{len(names)} parameters"
            )
        assignment = {}
        for name, coded in zip(names, coded_row):
            binding = self._bindings[name]
            if binding.low is None or binding.high is None:
                raise SimulationError(
                    f"parameter {name!r} has no declared range"
                )
            assignment[name] = (
                binding.low
                + (float(coded) + 1.0) / 2.0 * (binding.high - binding.low)
            )
        return assignment

    def run_assignment(
        self, assignment: Mapping[str, Any], replication: int = 0
    ) -> ExperimentRun:
        """Set parameters, render templates, and execute one run."""
        self._apply_assignment(assignment)
        rendered = {
            t.name: t.render(assignment) for t in self._templates
        }
        # A digest of the assignment, not builtin ``hash``: string
        # hashes change with each interpreter.
        key = _stable_digest(tuple(sorted(assignment.items())))
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed, spawn_key=(key, replication)
            )
        )
        response = float(self._run_fn(rng))
        return ExperimentRun(
            assignment=dict(assignment),
            response=response,
            rendered_inputs=rendered,
        )

    def run_design(
        self,
        design: Sequence[Sequence[float]],
        coded: bool = True,
        replications: int = 1,
    ) -> List[ExperimentRun]:
        """Execute every row of a design matrix.

        ``coded=True`` interprets rows as [-1, 1] levels decoded through
        the declared ranges; otherwise rows are natural values in
        sorted-parameter order.
        """
        if replications < 1:
            raise SimulationError("replications must be >= 1")
        runs: List[ExperimentRun] = []
        names = self.parameter_names
        for row in design:
            if coded:
                assignment = self.decode_levels(row)
            else:
                assignment = dict(zip(names, (float(v) for v in row)))
            for rep in range(replications):
                runs.append(self.run_assignment(assignment, replication=rep))
        return runs
