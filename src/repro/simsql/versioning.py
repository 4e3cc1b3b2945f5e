"""Versioned storage for stochastic database tables.

SimSQL "allows both versioning and recursive definitions of stochastic
database tables": table ``A``'s realization at tick ``i`` may parametrize
table ``B`` at tick ``i``, which in turn parametrizes ``A`` at tick
``i + 1``.  The :class:`VersionStore` keeps the realized snapshots,
indexed by ``(table, version)``, with an optional retention window so long
chains do not hold every state in memory.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.table import Table
from repro.errors import SimulationError


class VersionStore:
    """Snapshot storage for database-valued Markov chains.

    Parameters
    ----------
    retain:
        How many most-recent versions of each table to keep; ``None``
        keeps everything (needed when a query inspects the full history).
    """

    def __init__(self, retain: Optional[int] = None) -> None:
        if retain is not None and retain < 1:
            raise SimulationError("retain must be >= 1 or None")
        self.retain = retain
        self._snapshots: Dict[str, Dict[int, Table]] = {}
        self._latest: Dict[str, int] = {}

    def put(self, name: str, version: int, table: Table) -> None:
        """Store the realization of ``name`` at ``version``."""
        if version < 0:
            raise SimulationError(f"version must be >= 0, got {version}")
        versions = self._snapshots.setdefault(name, {})
        if version in versions:
            raise SimulationError(
                f"version {version} of table {name!r} already stored"
            )
        versions[version] = table.copy(f"{name}@{version}")
        self._latest[name] = max(self._latest.get(name, -1), version)
        if self.retain is not None:
            cutoff = self._latest[name] - self.retain + 1
            for old in [v for v in versions if v < cutoff]:
                del versions[old]

    def get(self, name: str, version: int) -> Table:
        """Fetch the realization of ``name`` at ``version``."""
        try:
            return self._snapshots[name][version]
        except KeyError:
            available = sorted(self._snapshots.get(name, {}))
            raise SimulationError(
                f"no snapshot of {name!r} at version {version}; "
                f"available versions: {available}"
            ) from None

    def latest(self, name: str) -> Table:
        """Fetch the most recent realization of ``name``."""
        if name not in self._latest:
            raise SimulationError(f"no snapshots stored for {name!r}")
        return self.get(name, self._latest[name])

    def latest_version(self, name: str) -> int:
        """The most recent stored version number of ``name``."""
        if name not in self._latest:
            raise SimulationError(f"no snapshots stored for {name!r}")
        return self._latest[name]

    def versions(self, name: str) -> List[int]:
        """All retained version numbers of ``name``, ascending."""
        return sorted(self._snapshots.get(name, {}))

    def table_names(self) -> List[str]:
        """Names of all tables with at least one snapshot."""
        return sorted(self._snapshots)

    def total_rows(self) -> int:
        """Total rows currently retained (memory diagnostic)."""
        return sum(
            len(t)
            for versions in self._snapshots.values()
            for t in versions.values()
        )
