"""Result caching for composite models (Figure 2 / Section 2.3).

The composite model: a demand model M1 generating customer arrival times,
feeding a queueing model M2 that reports mean waiting time.  Estimating
E[Y2] under a computing budget, the result-caching strategy reuses M1
outputs with replication fraction alpha; the optimal alpha* follows from
the statistics S = (c1, c2, V1, V2), estimated by pilot runs and stored
as model metadata.

Run:  python examples/composite_caching.py
"""

from __future__ import annotations


from repro.composite import (
    ArrivalProcessModel,
    MetadataRegistry,
    ModelMetadata,
    QueueModel,
    estimate_statistics,
    g_exact,
    measure_estimator_variance,
    optimal_alpha,
)
from repro.stats import make_rng

BUDGET = 800.0
REPLICATIONS = 120


def main() -> None:
    m1 = ArrivalProcessModel(cost=5.0)   # expensive upstream demand model
    m2 = QueueModel(cost=0.5)            # cheap downstream queue

    # Pilot runs estimate S = (c1, c2, V1, V2); in Splash these live in
    # the model-pair metadata and amortize across future executions.
    stats = estimate_statistics(
        m1, m2, make_rng(0), pilot_m1_runs=150, m2_runs_per_m1=6
    )
    registry = MetadataRegistry()
    registry.register(ModelMetadata("demand", declared_cost=m1.cost))
    registry.register(ModelMetadata("queue", declared_cost=m2.cost))
    registry.store_pair_statistics("demand", "queue", stats)

    alpha_star = optimal_alpha(stats)
    print(
        f"estimated statistics: c1={stats.c1} c2={stats.c2} "
        f"V1={stats.v1:.3f} V2={stats.v2:.3f} (V1/V2={stats.v1 / stats.v2:.2f})"
    )
    print(f"optimal replication fraction alpha* = {alpha_star:.3f}\n")

    print(f"{'alpha':>8} {'g(alpha) analytic':>18} {'c*Var[U(c)] measured':>22}")
    for alpha in (0.02, 0.05, 0.1, alpha_star, 0.7, 1.0):
        analytic = g_exact(alpha, stats)
        mean, measured = measure_estimator_variance(
            m1, m2, budget=BUDGET, alpha=alpha,
            replications=REPLICATIONS, seed=1,
        )
        marker = "  <- alpha*" if abs(alpha - alpha_star) < 1e-9 else ""
        print(f"{alpha:8.3f} {analytic:18.2f} {measured:22.2f}{marker}")

    never_cache = g_exact(1.0, stats)
    at_optimum = g_exact(alpha_star, stats)
    print(
        f"\nefficiency gain of alpha* over alpha=1 (no caching): "
        f"{never_cache / at_optimum:.2f}x"
    )


if __name__ == "__main__":
    main()
