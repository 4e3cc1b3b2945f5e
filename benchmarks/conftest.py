"""Pytest knobs for the benchmark harness.

``pytest benchmarks/ --quick`` runs every size-aware benchmark at small
problem sizes (CI exercises the harness in seconds instead of minutes).
Parallelized hot paths take the library-wide backend from
``REPRO_BACKEND``.
"""

from __future__ import annotations

import pytest

from benchmarks._util import BenchConfig


def pytest_addoption(parser):
    group = parser.getgroup("repro-benchmarks")
    group.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run benchmarks at small problem sizes (CI smoke mode)",
    )


@pytest.fixture
def bench_config(request) -> BenchConfig:
    """Benchmark knobs from the pytest flags."""
    return BenchConfig(quick=request.config.getoption("--quick"))
