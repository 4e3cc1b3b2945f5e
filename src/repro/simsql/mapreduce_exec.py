"""Executing SimSQL chain transitions on the MapReduce substrate.

SimSQL "executes queries using the Hadoop MapReduce implementation in
order to scale to massive data".  This module runs a row-wise table
transition as a MapReduce job: each map task evolves its split of tuples
independently (with a per-tuple derived random stream so results match the
sequential path regardless of how rows are split across workers), and the
reduce phase reassembles the table.

Group-interacting transitions — the ABS-as-self-join pattern of Wang et
al. [55] — route each tuple to a *group key* in the map phase; the reducer
then applies the interaction function to each group locally, which is how
"the join can be parallelized among groups of agents".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.engine.catalog import Database
from repro.engine.table import Table
from repro.errors import SimulationError
from repro.mapreduce.counters import JobCounters
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import Cluster
from repro.stats.rng import _stable_digest

Row = Dict[str, Any]


def _row_rng(seed: int, tick: int, row_index: int) -> np.random.Generator:
    """A dedicated stream per (tick, tuple) — split-order independent."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(tick, row_index))
    )


def run_transition_on_cluster(
    cluster: Cluster,
    table: Table,
    update: Callable[[Row, np.random.Generator], Row],
    seed: int = 0,
    tick: int = 0,
) -> Tuple[Table, JobCounters]:
    """Evolve each row of ``table`` independently, distributed over maps.

    Returns the next-state table (row order preserved) and the job's
    counters.  Equivalent to the sequential
    :func:`repro.simsql.markov.row_wise_transition` but executed split-
    by-split — the determinism test in ``tests/test_simsql.py`` checks
    the two paths produce identical realizations.
    """

    def mapper(index: int, row: Row) -> Iterable[Tuple[int, Row]]:
        rng = _row_rng(seed, tick, index)
        yield index, update(dict(row), rng)

    def reducer(index: int, rows: Iterable[Row]) -> Iterable[Tuple[int, Row]]:
        for row in rows:
            yield index, row

    job = MapReduceJob(f"{table.name}-transition", mapper, reducer)
    counters = JobCounters()
    inputs = list(enumerate(dict(r) for r in table))
    output = cluster.run(job, inputs, counters)
    output.sort(key=lambda kv: kv[0])
    rows = [row for _, row in output]
    if not rows:
        raise SimulationError(f"transition over empty table {table.name!r}")
    return Table.from_rows(table.name, rows), counters


def run_grouped_interaction_on_cluster(
    cluster: Cluster,
    table: Table,
    group_key: Callable[[Row], Any],
    interact: Callable[[List[Row], np.random.Generator], List[Row]],
    seed: int = 0,
    tick: int = 0,
) -> Tuple[Table, JobCounters]:
    """One agent-interaction step as a grouped self-join on MapReduce.

    ``group_key(row)`` assigns each agent to an interaction group (e.g. a
    spatial cell); ``interact(group_rows, rng)`` returns the updated rows
    for one group.  Because "agents typically interact only with a
    relatively small group of nearby agents", this parallelizes the
    self-join across groups with only per-group shuffling.
    """

    def mapper(index: int, row: Row) -> Iterable[Tuple[Any, Tuple[int, Row]]]:
        yield group_key(row), (index, dict(row))

    def reducer(
        key: Any, members: Iterable[Tuple[int, Row]]
    ) -> Iterable[Tuple[int, Row]]:
        members = sorted(members, key=lambda item: item[0])
        # A digest of the group key, not builtin ``hash``: string hashes
        # change with each interpreter (and each pool worker).
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=seed, spawn_key=(tick, _stable_digest(key))
            )
        )
        rows = [row for _, row in members]
        updated = interact(rows, rng)
        if len(updated) != len(rows):
            raise SimulationError(
                "interaction function must preserve group size "
                f"({len(rows)} in, {len(updated)} out)"
            )
        for (index, _), row in zip(members, updated):
            yield index, row

    job = MapReduceJob(f"{table.name}-interaction", mapper, reducer)
    counters = JobCounters()
    inputs = list(enumerate(dict(r) for r in table))
    output = cluster.run(job, inputs, counters)
    output.sort(key=lambda kv: kv[0])
    rows = [row for _, row in output]
    if not rows:
        raise SimulationError(f"interaction over empty table {table.name!r}")
    return Table.from_rows(table.name, rows), counters
