"""Instantaneous range queries over distributed agent state.

The paper's example: "find all agents who are, right now, within one mile
and who are over 25 years old".  Because ALPs sit at different local
virtual times, "right now" is ambiguous; [52] provides initial
algorithms and tests them empirically.  We implement two:

* :func:`range_query_timestamped` — the *consistent* algorithm: evaluate
  every SSV's history at the query's logical time ``t``.  Exact whenever
  ``t`` is at or below the global virtual time (every ALP has advanced
  past ``t``); for SSVs whose owner lags behind ``t`` the latest value is
  used and the staleness is reported.
* :func:`range_query_latest` — the cheap algorithm: read each SSV's most
  recent value regardless of timestamp.  No waiting, maximal staleness.

Both route through the CLP tree (hop counting included), so benchmarks
can weigh accuracy against communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set


from repro.pdesmas.clp import CLPTree


@dataclass(frozen=True)
class RangeQuery:
    """A spatial + attribute range query issued at a logical time."""

    center_x: float
    center_y: float
    radius: float
    min_age: Optional[int] = None
    time: float = 0.0

    def matches(self, state: Dict[str, Any]) -> bool:
        """Whether an agent-state dict satisfies the query."""
        dx = state["x"] - self.center_x
        dy = state["y"] - self.center_y
        if dx * dx + dy * dy > self.radius * self.radius:
            return False
        if self.min_age is not None and state["age"] <= self.min_age:
            return False
        return True


@dataclass
class QueryResult:
    """Outcome of a distributed range query."""

    matching_agents: Set[int]
    hops: int
    stale_reads: int
    max_staleness: float


def _agent_ids(tree: CLPTree) -> List[Any]:
    return [ssv.ssv_id for ssv in tree.all_ssvs() if ssv.ssv_id[0] == "agent"]


def range_query_timestamped(
    tree: CLPTree, query: RangeQuery, from_leaf: int = 0
) -> QueryResult:
    """Evaluate the query against SSV histories at ``query.time``.

    Reads each SSV at the query timestamp; when an SSV's last write is
    older than the timestamp (its ALP lags), the read is *stale* and
    counted, with the lag reported as staleness.
    """
    matching: Set[int] = set()
    hops = 0
    stale = 0
    max_staleness = 0.0
    for ssv_id in _agent_ids(tree):
        ssv, cost = tree.access(ssv_id, from_leaf)
        hops += cost
        if ssv.last_write_time < query.time:
            stale += 1
            max_staleness = max(
                max_staleness, query.time - ssv.last_write_time
            )
        state = ssv.read(min(query.time, ssv.last_write_time))
        if query.matches(state):
            matching.add(ssv_id[1])
    return QueryResult(matching, hops, stale, max_staleness)


def range_query_latest(
    tree: CLPTree, query: RangeQuery, from_leaf: int = 0
) -> QueryResult:
    """Evaluate the query against each SSV's most recent value.

    Fast and wait-free but inconsistent: values may come from logical
    times far from ``query.time`` in *either* direction.
    """
    matching: Set[int] = set()
    hops = 0
    stale = 0
    max_staleness = 0.0
    for ssv_id in _agent_ids(tree):
        ssv, cost = tree.access(ssv_id, from_leaf)
        hops += cost
        ts, state = ssv.read_latest()
        gap = abs(ts - query.time)
        if gap > 0:
            stale += 1
            max_staleness = max(max_staleness, gap)
        if query.matches(state):
            matching.add(ssv_id[1])
    return QueryResult(matching, hops, stale, max_staleness)


def result_discrepancy(a: QueryResult, b: QueryResult) -> float:
    """Jaccard distance between two query results' agent sets."""
    union = a.matching_agents | b.matching_agents
    if not union:
        return 0.0
    intersection = a.matching_agents & b.matching_agents
    return 1.0 - len(intersection) / len(union)
