"""End-to-end PDES-MAS scenarios: skewed ALPs issuing range queries.

Drives the pieces together: a CLP tree, a set of ALPs with skewed clock
rates, periodic range queries evaluated with both algorithms, optional
SSV migration passes — producing the accuracy/communication trade-off
data the AN-RQ benchmark reports.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.pdesmas.alp import make_alps
from repro.pdesmas.clp import CLPTree
from repro.pdesmas.rangequery import (
    RangeQuery,
    range_query_latest,
    range_query_timestamped,
    result_discrepancy,
)


@dataclass
class ScenarioReport:
    """Aggregated metrics of one scenario run."""

    cycles: int
    queries_issued: int
    mean_discrepancy: float
    timestamped_hops: int
    latest_hops: int
    publish_hops: int
    migrations: int
    mean_lvt_spread: float


class PdesMasScenario:
    """A configurable PDES-MAS workload."""

    def __init__(
        self,
        num_alps: int = 8,
        agents_per_alp: int = 10,
        extent: float = 100.0,
        rate_skew: float = 4.0,
        seed: int = 0,
    ) -> None:
        self.extent = extent
        # Repo-wide seeding convention (see mcdb/simsql/parallel): a
        # SeedSequence keyed by a stable subsystem tag, so pdesmas
        # streams cannot collide with other subsystems sharing ``seed``.
        self.rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=seed,
                spawn_key=(zlib.crc32(b"pdesmas.scenario"),),
            )
        )
        self.tree = CLPTree(num_leaves=num_alps)
        self.alps = make_alps(
            num_alps,
            agents_per_alp,
            self.tree,
            self.rng,
            extent=extent,
            rate_skew=rate_skew,
        )

    def global_virtual_time(self) -> float:
        """GVT: the minimum local virtual time over ALPs."""
        return min(alp.lvt for alp in self.alps)

    def lvt_spread(self) -> float:
        """Max minus min local virtual time (the skew the queries face)."""
        times = [alp.lvt for alp in self.alps]
        return max(times) - min(times)

    def run(
        self,
        cycles: int,
        queries_per_cycle: int = 2,
        migrate_every: Optional[int] = None,
        query_radius: float = 20.0,
        min_age: Optional[int] = 25,
        query_from_leaf: Optional[int] = None,
        fossil_collect: bool = False,
    ) -> ScenarioReport:
        """Run the scenario and collect accuracy/cost metrics.

        Each cycle advances every ALP once, then issues range queries at
        the current GVT (the "right now" that is safely answerable),
        comparing the timestamped and latest-value algorithms.  Queries
        originate at random leaves unless ``query_from_leaf`` pins them
        to one ALP — the skewed access pattern under which SSV migration
        pays off.
        """
        if cycles < 1:
            raise SimulationError("cycles must be >= 1")
        discrepancies: List[float] = []
        ts_hops = 0
        latest_hops = 0
        spreads: List[float] = []
        queries = 0
        hops_before_publish = self.tree.hops
        for cycle in range(cycles):
            for alp in self.alps:
                alp.cycle(self.rng)
            spreads.append(self.lvt_spread())
            gvt = self.global_virtual_time()
            for _ in range(queries_per_cycle):
                query = RangeQuery(
                    center_x=float(self.rng.uniform(0, self.extent)),
                    center_y=float(self.rng.uniform(0, self.extent)),
                    radius=query_radius,
                    min_age=min_age,
                    time=gvt,
                )
                if query_from_leaf is not None:
                    leaf = query_from_leaf
                else:
                    leaf = int(self.rng.integers(0, len(self.tree.leaves)))
                before = self.tree.hops
                exact = range_query_timestamped(self.tree, query, leaf)
                ts_hops += self.tree.hops - before
                before = self.tree.hops
                approx = range_query_latest(self.tree, query, leaf)
                latest_hops += self.tree.hops - before
                discrepancies.append(result_discrepancy(exact, approx))
                queries += 1
            if migrate_every and (cycle + 1) % migrate_every == 0:
                self.tree.migrate()
                self.tree.reset_access_counts()
            if fossil_collect:
                # GVT-based fossil collection: history strictly older
                # than the global virtual time can never be queried
                # again (queries are issued at or above GVT).
                horizon = self.global_virtual_time()
                for ssv in self.tree.all_ssvs():
                    ssv.prune_before(horizon)
        publish_hops = self.tree.hops - hops_before_publish - ts_hops - latest_hops
        return ScenarioReport(
            cycles=cycles,
            queries_issued=queries,
            mean_discrepancy=(
                float(np.mean(discrepancies)) if discrepancies else 0.0
            ),
            timestamped_hops=ts_hops,
            latest_hops=latest_hops,
            publish_hops=publish_hops,
            migrations=self.tree.migrations,
            mean_lvt_spread=float(np.mean(spreads)),
        )
