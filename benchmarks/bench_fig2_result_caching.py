"""FIG2 — result caching for the Figure 2 composite model (Section 2.3).

Sweep the replication fraction alpha for the demand→queue composite,
comparing the analytic work-variance product g(alpha) against the
measured c * Var[U(c)] from replicated budget-constrained runs.  Shape
checks: an interior optimum near the alpha* formula, measured curve
tracking the analytic one, and caching beating both extremes.
"""

from __future__ import annotations


from benchmarks._util import format_table, save_report
from repro.composite import (
    ArrivalProcessModel,
    QueueModel,
    estimate_statistics,
    g_approx,
    g_exact,
    measure_estimator_variance,
    optimal_alpha,
)
from repro.stats import make_rng

BUDGET = 600.0
REPLICATIONS = 80


def run_experiment():
    m1 = ArrivalProcessModel(cost=5.0)
    m2 = QueueModel(cost=0.5)
    stats = estimate_statistics(
        m1, m2, make_rng(0), pilot_m1_runs=120, m2_runs_per_m1=6
    )
    alpha_star = optimal_alpha(stats)
    alphas = [0.02, 0.05, 0.1, 0.2, alpha_star, 0.6, 1.0]
    rows = []
    measured = {}
    for alpha in alphas:
        mean, g_measured = measure_estimator_variance(
            m1, m2, budget=BUDGET, alpha=alpha,
            replications=REPLICATIONS, seed=1,
        )
        measured[alpha] = g_measured
        rows.append(
            (
                round(alpha, 4),
                g_exact(alpha, stats),
                g_approx(alpha, stats),
                g_measured,
                mean,
            )
        )
    return stats, alpha_star, alphas, rows, measured


def test_fig2_result_caching(benchmark):
    stats, alpha_star, alphas, rows, measured = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    table = format_table(
        ["alpha", "g exact", "g approx", "c*Var[U(c)] measured", "mean"],
        rows,
    )
    table += (
        f"\n\nS = (c1={stats.c1}, c2={stats.c2}, "
        f"V1={stats.v1:.3f}, V2={stats.v2:.3f})"
        f"\nalpha* = sqrt((c2/c1)/(V1/V2 - 1)) = {alpha_star:.4f}"
    )
    save_report("FIG2_result_caching", table)

    # Interior optimum: alpha* strictly inside (0, 1) …
    assert 0.0 < alpha_star < 1.0
    # … analytic curve is minimized near alpha* over the sweep …
    g_values = {a: g_exact(a, stats) for a in alphas}
    assert g_values[alpha_star] == min(g_values.values())
    # … and the measured curve agrees: alpha* beats the tiny-alpha
    # extreme decisively and is never worse than alpha=1 by much.
    assert measured[alpha_star] < measured[0.02]
    assert measured[alpha_star] < measured[1.0] * 1.25
