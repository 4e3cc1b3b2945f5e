"""FIG1 — the dangers of extrapolation (paper Figure 1).

Fit a simple time-series model to synthetic median housing prices
1970-2006 and extrapolate to 2011; the prediction "fails spectacularly"
because the 2006 regime change is invisible to the trend.  Shape checks:
the extrapolation over-predicts every post-collapse year, massively so by
2011, while the same procedure on a collapse-free series stays accurate.
"""

from __future__ import annotations

import numpy as np

from benchmarks._util import format_table, save_report
from repro.stats import (
    extrapolate_and_score,
    synthetic_housing_prices,
)


def run_experiment():
    years, prices = synthetic_housing_prices()
    report = extrapolate_and_score(years, prices, fit_through=2006, degree=2)

    # Control: no regime change -> extrapolation fine.
    smooth_years = years.astype(float)
    smooth_prices = prices[0] * np.exp(
        0.055 * (smooth_years - smooth_years[0])
    )
    control = extrapolate_and_score(
        smooth_years, smooth_prices, fit_through=2006, degree=2
    )
    return years, prices, report, control


def test_fig1_extrapolation(benchmark):
    years, prices, report, control = benchmark.pedantic(
        run_experiment, rounds=3, iterations=1
    )
    rows = []
    for t, predicted, actual in zip(
        report.horizon_times, report.predicted, report.actual
    ):
        rows.append(
            (int(t), actual, predicted, (predicted - actual) / actual)
        )
    table = format_table(
        ["year", "actual", "trend forecast", "rel. error"], rows
    )
    table += (
        f"\n\nterminal over-prediction (2011): "
        f"{report.terminal_gap:+.1%}"
        f"\ncontrol series (no collapse) max |rel err|: "
        f"{control.max_relative_error:.1%}"
    )
    save_report("FIG1_extrapolation", table)

    # Shape assertions (the Figure 1 phenomenon):
    assert np.all(report.errors > 0), "forecast should overshoot post-2006"
    assert report.terminal_gap > 0.4, "2011 overshoot should be dramatic"
    assert control.max_relative_error < 0.1, "no-collapse control stays sane"
