"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.engine import Database, Schema

#: The larger-budget run of ``tests/test_sql_differential.py``:
#: ``pytest --hypothesis-profile=sql-differential``.  Tier-1 keeps
#: hypothesis's default budget.
settings.register_profile("sql-differential", max_examples=1500)
#: The larger-budget run of the per-node reference for what-if cycles
#: (``tests/test_delta.py::TestConeSizedCycles``):
#: ``pytest --hypothesis-profile=delta-reference``.
settings.register_profile("delta-reference", max_examples=1000)
#: The larger-budget run of the codec properties (``tests/test_codec.py``):
#: ``pytest --hypothesis-profile=codec``.
settings.register_profile("codec", max_examples=2000)
#: The larger-budget run of the table model (``tests/test_table_model.py``):
#: ``pytest --hypothesis-profile=table-model``.
settings.register_profile("table-model", max_examples=1000)


@pytest.fixture
def rng() -> np.random.Generator:
    """A reproducible numpy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def people_db() -> Database:
    """A small demographic database used across engine/mcdb tests."""
    db = Database()
    db.create_table(
        "person", Schema.of(pid=int, age=int, region=str, income=float)
    )
    regions = ["east", "west"]
    for i in range(20):
        db.table("person").insert(
            {
                "pid": i,
                "age": (i * 7) % 80,
                "region": regions[i % 2],
                "income": 20000.0 + 1000.0 * i,
            }
        )
    return db
