"""Database-valued Markov chains (SimSQL, Section 2.1).

Where MCDB generates realizations of a *static* database-valued random
variable, SimSQL generates realizations of a database-valued Markov chain
``D[0], D[1], D[2], ...``: "the stochastic mechanism that generates a
realization of the i-th database state D[i] may explicitly depend on the
prior state D[i-1]".

A chain is specified by a set of :class:`TableTransition` objects — one per
stochastic table — each a function from the previous database state to the
table's next realization.  Transitions within a tick run in declaration
order and may read tables already realized *in the same tick* (SimSQL's
recursive definitions: A[i] feeds B[i] feeds A[i+1]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.engine.catalog import Database
from repro.engine.table import Table
from repro.errors import SimulationError
from repro.simsql.versioning import VersionStore

#: A transition receives (previous-state database, rng) and returns the
#: next realization of one table.  The database passed in contains the
#: deterministic tables, every table from tick i-1, and any same-tick
#: tables realized by earlier transitions.
TransitionFn = Callable[[Database, np.random.Generator], Table]


@dataclass(frozen=True)
class TableTransition:
    """Transition rule for one stochastic table of the chain."""

    name: str
    transition: TransitionFn
    #: Builds the tick-0 realization; falls back to ``transition`` when
    #: ``None`` (with an initial database containing only deterministic
    #: tables).
    initial: Optional[TransitionFn] = None


class DatabaseMarkovChain:
    """A database-valued Markov chain simulator.

    Parameters
    ----------
    base:
        The deterministic database (shared, never copied).
    transitions:
        One :class:`TableTransition` per stochastic table, in the order
        they should be realized within each tick.
    retain:
        Version-retention window forwarded to :class:`VersionStore`.
    """

    def __init__(
        self,
        base: Database,
        transitions: Sequence[TableTransition],
        retain: Optional[int] = None,
    ) -> None:
        if not transitions:
            raise SimulationError("chain needs at least one transition")
        names = [t.name for t in transitions]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate transition names in {names}")
        self.base = base
        self.transitions = list(transitions)
        self.retain = retain

    def _state_database(
        self, store: VersionStore, tick: int, realized: Dict[str, Table]
    ) -> Database:
        """Assemble the database visible to a transition at ``tick``."""
        state = Database()
        for name in self.base.table_names():
            state.register(self.base.table(name))
        # Previous-tick realizations, under their plain names.
        if tick > 0:
            for transition in self.transitions:
                prev = store.get(transition.name, tick - 1)
                snapshot = prev.copy(transition.name)
                state.register(snapshot)
        # Same-tick tables realized so far, under `name__next`.
        for name, table in realized.items():
            snapshot = table.copy(f"{name}__next")
            state.register(snapshot, replace=True)
        return state

    def run(
        self,
        steps: int,
        rng: np.random.Generator,
        observer: Optional[Callable[[int, Database], None]] = None,
    ) -> VersionStore:
        """Simulate one sample path of ``steps + 1`` states (ticks 0..steps).

        ``observer(tick, state_db)`` is invoked after each tick with a
        database containing that tick's realizations — this is the hook
        used to run SQL queries against the evolving chain.
        """
        if steps < 0:
            raise SimulationError("steps must be >= 0")
        store = VersionStore(retain=self.retain)
        for tick in range(steps + 1):
            realized: Dict[str, Table] = {}
            for transition in self.transitions:
                state = self._state_database(store, tick, realized)
                if tick == 0 and transition.initial is not None:
                    table = transition.initial(state, rng)
                else:
                    table = transition.transition(state, rng)
                if table.name != transition.name:
                    table = table.copy(transition.name)
                realized[transition.name] = table
            for name, table in realized.items():
                store.put(name, tick, table)
            if observer is not None:
                tick_db = Database()
                for name in self.base.table_names():
                    tick_db.register(self.base.table(name))
                for name, table in realized.items():
                    tick_db.register(table.copy(name))
                observer(tick, tick_db)
        return store

    def monte_carlo(
        self,
        steps: int,
        n_chains: int,
        functional: Callable[[VersionStore], float],
        seed: int = 0,
    ) -> np.ndarray:
        """Run ``n_chains`` independent sample paths; apply ``functional``.

        Returns one functional value per chain — samples of the
        distribution of a path statistic (SimSQL's Monte Carlo use case).
        """
        if n_chains < 1:
            raise SimulationError("n_chains must be >= 1")
        out = np.empty(n_chains)
        for i in range(n_chains):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(i,))
            )
            store = self.run(steps, rng)
            out[i] = float(functional(store))
        return out


def row_wise_transition(
    source_table: str,
    update: Callable[[dict, Database, np.random.Generator], dict],
) -> TransitionFn:
    """Build a transition that maps each row of the prior realization.

    ``update(row, state_db, rng)`` returns the row's next-state dict.  This
    is the most common SimSQL pattern (each tuple evolves independently
    given the previous database state) and is exactly the shape that
    parallelizes embarrassingly on MapReduce — see
    :func:`repro.simsql.mapreduce_exec.run_transition_on_cluster`.
    """

    def transition(state: Database, rng: np.random.Generator) -> Table:
        source = state.table(source_table)
        rows = [update(dict(row), state, rng) for row in source]
        if not rows:
            raise SimulationError(
                f"row-wise transition over empty table {source_table!r}"
            )
        return Table.from_rows(source_table, rows)

    return transition
