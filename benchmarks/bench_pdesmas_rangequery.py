"""AN-RQ — range queries in distributed agent simulations (§2.4).

PDES-MAS ALPs progress through simulated time at different rates, so
"answering range queries correctly becomes extremely challenging".  The
scenario sweeps the clock-rate skew and compares the timestamped
(consistent) and latest-value (cheap) query algorithms, then measures the
effect of SSV migration on communication for a skewed access pattern.
Shape checks: result discrepancy between algorithms grows with the LVT
spread; migration cuts query hop counts substantially.
"""

from __future__ import annotations


from benchmarks._util import format_table, save_report
from repro.pdesmas import PdesMasScenario

CYCLES = 15


def run_experiment():
    skew_rows = []
    discrepancies = {}
    for skew in (1.0, 4.0, 16.0):
        scenario = PdesMasScenario(
            num_alps=8, agents_per_alp=8, rate_skew=skew, seed=3
        )
        report = scenario.run(cycles=CYCLES, queries_per_cycle=3)
        discrepancies[skew] = report.mean_discrepancy
        skew_rows.append(
            (
                skew,
                report.mean_lvt_spread,
                report.mean_discrepancy,
                report.timestamped_hops,
                report.latest_hops,
            )
        )

    migration_rows = []
    hops = {}
    for migrate in (None, 5):
        scenario = PdesMasScenario(
            num_alps=8, agents_per_alp=8, rate_skew=4.0, seed=4
        )
        report = scenario.run(
            cycles=CYCLES, queries_per_cycle=3,
            migrate_every=migrate, query_from_leaf=0,
        )
        query_hops = report.timestamped_hops + report.latest_hops
        hops[migrate] = (query_hops, report.publish_hops)
        migration_rows.append(
            (
                "every 5 cycles" if migrate else "never",
                query_hops,
                report.publish_hops,
                query_hops + report.publish_hops,
                report.migrations,
            )
        )
    return skew_rows, discrepancies, migration_rows, hops


def test_pdesmas_rangequery(benchmark):
    skew_rows, discrepancies, migration_rows, hops = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    table = "clock-rate skew vs query consistency:\n"
    table += format_table(
        [
            "rate skew",
            "mean LVT spread",
            "mean result discrepancy",
            "hops (timestamped)",
            "hops (latest)",
        ],
        skew_rows,
    )
    table += "\n\nSSV migration under a pinned query origin (leaf 0):\n"
    table += format_table(
        [
            "migration",
            "query hops",
            "publish hops",
            "total hops",
            "migrations",
        ],
        migration_rows,
    )
    save_report("AN-RQ_pdesmas_rangequery", table)

    # More clock skew -> the cheap algorithm diverges more from the
    # consistent one.
    assert discrepancies[16.0] > discrepancies[1.0]
    # Migration pays for itself: total communication drops.
    no_mig_total = sum(hops[None])
    mig_total = sum(hops[5])
    assert mig_total < no_mig_total
