"""The CLP tree: distributed storage of SSVs with port-based routing.

"In the PDES-MAS system, LPs communicate through ports; the CLPs are
arranged in a treelike structure with leaves corresponding to ALPs ...
The tree of CLPs is dynamic, with possible reconfiguration ... and
migration of SSVs ... in a continual attempt to move SSVs closer to the
ALPs that are accessing them."

We implement a binary CLP tree.  Each CLP stores a set of SSVs; an ALP's
access to an SSV is routed up from the ALP's leaf CLP toward the owner,
and every tree hop is counted (the communication-cost metric).  A
migration pass moves each SSV to the CLP minimizing its access-weighted
hop count — the paper's locality heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.pdesmas.ssv import SSV


@dataclass
class CLPNode:
    """One communication logical process in the tree."""

    node_id: int
    parent: Optional["CLPNode"] = None
    left: Optional["CLPNode"] = None
    right: Optional["CLPNode"] = None
    ssvs: Dict[Any, SSV] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


class CLPTree:
    """A balanced binary tree of CLPs with hop-counted SSV access."""

    def __init__(self, num_leaves: int) -> None:
        if num_leaves < 1:
            raise SimulationError("need at least one leaf CLP")
        self._next_id = 0
        self.leaves: List[CLPNode] = []
        self.root = self._build(num_leaves)
        self._owner: Dict[Any, CLPNode] = {}
        self.hops = 0
        self.migrations = 0
        #: access counts per (ssv_id, leaf_index)
        self._access: Dict[Tuple[Any, int], int] = {}

    def _new_node(self, parent: Optional[CLPNode]) -> CLPNode:
        node = CLPNode(node_id=self._next_id, parent=parent)
        self._next_id += 1
        return node

    def _build(self, num_leaves: int) -> CLPNode:
        root = self._new_node(None)
        frontier = [root]
        while len(frontier) < num_leaves:
            node = frontier.pop(0)
            node.left = self._new_node(node)
            node.right = self._new_node(node)
            frontier.extend([node.left, node.right])
        self.leaves = frontier
        return root

    # -- placement -------------------------------------------------------
    def register_ssv(self, ssv: SSV, leaf_index: int = 0) -> None:
        """Place a new SSV at the given leaf CLP."""
        if ssv.ssv_id in self._owner:
            raise SimulationError(f"SSV {ssv.ssv_id!r} already registered")
        node = self._leaf(leaf_index)
        node.ssvs[ssv.ssv_id] = ssv
        self._owner[ssv.ssv_id] = node

    def _leaf(self, index: int) -> CLPNode:
        if not 0 <= index < len(self.leaves):
            raise SimulationError(
                f"leaf index {index} out of range [0, {len(self.leaves)})"
            )
        return self.leaves[index]

    def owner_of(self, ssv_id: Any) -> CLPNode:
        """The CLP currently storing ``ssv_id``."""
        try:
            return self._owner[ssv_id]
        except KeyError:
            raise SimulationError(f"unknown SSV {ssv_id!r}") from None

    # -- routing -----------------------------------------------------------
    def _distance(self, a: CLPNode, b: CLPNode) -> int:
        """Tree distance (number of port traversals) between two CLPs."""
        ancestors_a = []
        node = a
        while node is not None:
            ancestors_a.append(node)
            node = node.parent
        index = {id(n): i for i, n in enumerate(ancestors_a)}
        steps_b = 0
        node = b
        while id(node) not in index:
            node = node.parent
            steps_b += 1
            if node is None:
                raise SimulationError("nodes are in different trees")
        return steps_b + index[id(node)]

    def access(
        self, ssv_id: Any, from_leaf: int
    ) -> Tuple[SSV, int]:
        """Access an SSV from a leaf; returns (ssv, hops) and records both."""
        leaf = self._leaf(from_leaf)
        owner = self.owner_of(ssv_id)
        hops = self._distance(leaf, owner)
        self.hops += hops
        key = (ssv_id, from_leaf)
        self._access[key] = self._access.get(key, 0) + 1
        return owner.ssvs[ssv_id], hops

    def all_ssvs(self) -> List[SSV]:
        """Every registered SSV."""
        return [self.owner_of(sid).ssvs[sid] for sid in self._owner]

    # -- migration ---------------------------------------------------------
    def migrate(self) -> int:
        """Move each SSV to its access-weighted optimal leaf.

        For each SSV, choose the leaf minimizing
        ``sum_leaf accesses(leaf) * distance(leaf, candidate)`` and move
        the SSV there.  Returns the number of SSVs moved — the tree's
        "continual attempt to move SSVs closer to the ALPs accessing
        them".
        """
        moved = 0
        for ssv_id in list(self._owner):
            weights = {
                leaf_index: count
                for (sid, leaf_index), count in self._access.items()
                if sid == ssv_id
            }
            if not weights:
                continue
            current = self._owner[ssv_id]

            def total_cost(candidate: CLPNode) -> int:
                return sum(
                    count * self._distance(self._leaf(leaf_index), candidate)
                    for leaf_index, count in weights.items()
                )

            best = min(self.leaves, key=total_cost)
            if total_cost(best) < total_cost(current):
                ssv = current.ssvs.pop(ssv_id)
                best.ssvs[ssv_id] = ssv
                self._owner[ssv_id] = best
                self.migrations += 1
                moved += 1
        return moved

    def reset_access_counts(self) -> None:
        """Forget the access profile (e.g. after a migration pass)."""
        self._access.clear()
