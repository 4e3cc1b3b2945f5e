"""The full Section 4 workflow: screen, design, metamodel, optimize.

A composite "inventory policy" simulator with 8 parameters (only 3 of
which matter) is analyzed the way the paper prescribes:

1. **Factor screening** (sequential bifurcation) prunes the parameter
   space from 8 to the important 3 in a handful of runs;
2. an **experimental design** (nearly orthogonal Latin hypercube) covers
   the reduced space;
3. the Splash-style **experiment manager** runs the design through its
   unified parameter view (with templated input files);
4. a **stochastic-kriging metamodel** fits the noisy responses and gives
   "simulation on demand";
5. the metamodel is **optimized** to pick the policy.

Run:  python examples/metamodel_workflow.py
"""

from __future__ import annotations

import numpy as np

from repro.calibration import nelder_mead
from repro.composite import (
    ExperimentManager,
    InputFileTemplate,
    ParameterBinding,
)
from repro.doe import nearly_orthogonal_lh
from repro.metamodel import SequentialBifurcation, StochasticKrigingMetamodel
from repro.stats import make_rng

PARAMETER_NAMES = [
    "reorder_point", "order_size", "review_period",
    "clerk_count", "shelf_space", "truck_count",
    "forecast_window", "promo_budget",
]
# Only these drive the (synthetic) profit response:
ACTIVE = {"reorder_point": 0, "order_size": 1, "review_period": 2}


class InventorySimulator:
    """A stand-in stochastic simulation with a known response surface."""

    def __init__(self):
        for name in PARAMETER_NAMES:
            setattr(self, name, 0.5)

    def profit(self, rng: np.random.Generator) -> float:
        r = self.reorder_point
        q = self.order_size
        p = self.review_period
        response = (
            100.0
            - 40.0 * (r - 0.7) ** 2
            - 30.0 * (q - 0.4) ** 2
            - 20.0 * (p - 0.6) ** 2
            + 10.0 * r * q
        )
        return response + float(rng.normal(0, 1.0))


def main() -> None:
    simulator = InventorySimulator()

    # --- 1. screening: which of the 8 parameters matter? ---
    def screen_response(levels: np.ndarray, rng) -> float:
        for name, level in zip(PARAMETER_NAMES, levels):
            setattr(simulator, name, 0.5 + 0.25 * level)
        return simulator.profit(rng)

    screening = SequentialBifurcation(
        screen_response, len(PARAMETER_NAMES),
        threshold=1.5, replications=4, seed=0,
    ).run()
    found = [PARAMETER_NAMES[i] for i in screening.important]
    print(f"1. screening: {found} flagged in {screening.runs_used} runs")
    # (reorder_point has a near-zero *linear* effect at the center but a
    # strong curvature; SB flags the strongly monotone ones.)
    important = sorted(set(found) | set(ACTIVE))[:3]
    print(f"   carrying forward: {important}\n")

    # --- 2 & 3. design + experiment manager over the reduced space ---
    manager = ExperimentManager(
        run_fn=lambda rng: simulator.profit(rng), seed=1
    )
    for name in important:
        manager.register_parameter(
            ParameterBinding(name, simulator, name, low=0.0, high=1.0)
        )
    manager.register_template(
        InputFileTemplate(
            "policy.cfg",
            "\n".join(f"{name}=${name}" for name in important) + "\n",
        )
    )
    coded = nearly_orthogonal_lh(len(important), 33, make_rng(2))
    replications = 6
    runs = manager.run_design(
        coded / np.abs(coded).max(), coded=True, replications=replications
    )
    print(f"2. design: NOLH with {coded.shape[0]} points x "
          f"{replications} replications = {len(runs)} runs")
    print("   sample rendered input file:")
    for line in runs[0].rendered_inputs["policy.cfg"].splitlines():
        print(f"     {line}")
    print()

    # --- 4. stochastic kriging on the replicated responses ---
    names = manager.parameter_names
    points = {}
    for run in runs:
        key = tuple(run.assignment[n] for n in names)
        points.setdefault(key, []).append(run.response)
    design = np.array(list(points))
    means = np.array([np.mean(v) for v in points.values()])
    noise = np.array(
        [np.var(v, ddof=1) / len(v) for v in points.values()]
    )
    metamodel = StochasticKrigingMetamodel().fit_noisy(design, means, noise)
    print(f"3. metamodel: stochastic kriging on {design.shape[0]} design "
          f"points (theta = {np.round(metamodel.theta, 2)})\n")

    # --- 5. optimize the metamodel (simulation on demand) ---
    result = nelder_mead(
        lambda x: -float(metamodel.predict(np.atleast_2d(x))[0]),
        design[int(np.argmax(means))],
        bounds=[(0.0, 1.0)] * len(names),
        max_iterations=300,
    )
    best = dict(zip(names, np.round(result.x, 3)))
    print(f"4. optimized policy (via metamodel): {best}")
    print(f"   metamodel profit prediction: {-result.value:.2f}")

    # Validate against the true simulator at the recommended point.
    for name, value in zip(names, result.x):
        setattr(simulator, name, float(value))
    check = np.mean(
        [simulator.profit(make_rng(100 + i)) for i in range(50)]
    )
    print(f"   simulated profit at that point: {check:.2f} "
          f"(true optimum ~103.4 at r=0.77, q=0.53, p=0.60)")


if __name__ == "__main__":
    main()
