"""DOE + kriging metamodel calibration (Salle & Yildizoglu [45]).

Section 3.1's alternative to direct heuristic optimization: "carefully
uses design of experiment (DOE) techniques — in particular, a
nearly-orthogonal Latin hypercube design — to select representative
values of theta to simulate.  The method then uses a flexible
surface-fitting technique called 'kriging' to approximate the function
m_hat(theta), and hence J(theta).  This approximated function (also
called a simulation metamodel) is then minimized."

The expensive objective is evaluated only at the design points; the
kriging surrogate is minimized cheaply (multi-start Nelder-Mead on the
surrogate), optionally followed by a short refinement loop that adds the
surrogate's minimizer to the design and refits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.calibration.optimizers import nelder_mead
from repro.doe.latin import nearly_orthogonal_lh, scale_design
from repro.errors import CalibrationError
from repro.metamodel.gp import GaussianProcessMetamodel

Objective = Callable[[np.ndarray], float]
Bounds = Sequence[Tuple[float, float]]


@dataclass
class KrigingCalibrationResult:
    """Outcome of a surrogate-based calibration."""

    x: np.ndarray
    value: float
    expensive_evaluations: int
    design_points: np.ndarray
    design_values: np.ndarray
    surrogate: GaussianProcessMetamodel


def kriging_calibrate(
    objective: Objective,
    bounds: Bounds,
    rng: np.random.Generator,
    design_runs: int = 17,
    refinement_rounds: int = 3,
    surrogate_starts: int = 5,
) -> KrigingCalibrationResult:
    """Minimize an expensive objective via an NOLH design + kriging.

    1. Evaluate ``objective`` at a nearly orthogonal LH over ``bounds``.
    2. Fit a GP metamodel to the (theta, J) pairs.
    3. Minimize the *surrogate* from several random starts.
    4. Evaluate the true objective at the surrogate minimizer, add the
       point to the design, refit; repeat ``refinement_rounds`` times.
    """
    bounds = list(bounds)
    k = len(bounds)
    if k < 1:
        raise CalibrationError("need at least one parameter")
    if design_runs < max(k + 2, 4):
        raise CalibrationError(
            f"design_runs must be >= {max(k + 2, 4)} for {k} parameters"
        )
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])

    coded = nearly_orthogonal_lh(k, design_runs, rng, iterations=800)
    design = scale_design(coded, lows, highs)
    values = np.array([float(objective(theta)) for theta in design])
    expensive = design_runs

    x_all = design.copy()
    y_all = values.copy()
    surrogate = GaussianProcessMetamodel().fit(x_all, y_all)

    def minimize_surrogate() -> np.ndarray:
        best_x = x_all[int(np.argmin(y_all))]
        best_val = float(surrogate.predict(best_x[None, :])[0])
        starts = [best_x] + [
            lows + rng.uniform(size=k) * (highs - lows)
            for _ in range(surrogate_starts - 1)
        ]
        for start in starts:
            result = nelder_mead(
                lambda t: float(surrogate.predict(np.atleast_2d(t))[0]),
                start,
                bounds=bounds,
                max_iterations=150,
            )
            if result.value < best_val:
                best_val = result.value
                best_x = result.x
        return np.clip(best_x, lows, highs)

    for _ in range(refinement_rounds):
        candidate = minimize_surrogate()
        # Avoid exact duplicates (they would make the GP singular).
        if np.min(np.linalg.norm(x_all - candidate, axis=1)) < 1e-9:
            break
        candidate_value = float(objective(candidate))
        expensive += 1
        x_all = np.vstack([x_all, candidate])
        y_all = np.append(y_all, candidate_value)
        surrogate = GaussianProcessMetamodel().fit(x_all, y_all)

    best_index = int(np.argmin(y_all))
    return KrigingCalibrationResult(
        x=x_all[best_index].copy(),
        value=float(y_all[best_index]),
        expensive_evaluations=expensive,
        design_points=x_all,
        design_values=y_all,
        surrogate=surrogate,
    )
