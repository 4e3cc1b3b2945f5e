"""Rule- and cost-based logical plan optimization.

Two classical rewrites are implemented:

* **Predicate pushdown** — filters migrate below projections and into the
  matching side of joins, shrinking intermediate results.  This is the same
  algebraic commutation that :mod:`repro.gridfields` exploits for the
  restrict/regrid rewrite of Section 2.2.
* **Join reordering** — a greedy cost-based ordering of an inner-join chain
  using catalog statistics (:mod:`repro.engine.statistics`), the database
  analogue of choosing replication fractions from component-model metadata
  in Section 2.3.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.engine import plan as lp
from repro.engine.expressions import (
    Expression,
    combine_and,
    conjuncts,
)
from repro.engine.statistics import TableStatistics, predicate_selectivity

StatsLookup = Callable[[str], Optional[TableStatistics]]


def _available_columns(
    node: lp.PlanNode, schema_lookup: Callable[[str], Sequence[str]]
) -> Set[str]:
    """Column names a predicate evaluated above ``node`` could reference."""
    if isinstance(node, lp.Scan):
        names = schema_lookup(node.table)
        if node.alias:
            qualified = {f"{node.alias}.{n}" for n in names}
        else:
            qualified = set(names)
        return qualified
    if isinstance(node, lp.Values):
        return set(node.rows[0]) if node.rows else set()
    if isinstance(node, lp.Project):
        return set(node.aliases)
    if isinstance(node, lp.Aggregate):
        return set(node.group_aliases) | {a.alias for a in node.aggregates}
    if isinstance(node, lp.Union):
        return _available_columns(node.left, schema_lookup)
    cols: Set[str] = set()
    for child in node.children():
        cols |= _available_columns(child, schema_lookup)
    return cols


def _references_resolvable(
    predicate: Expression, columns: Set[str]
) -> bool:
    """True when every column in ``predicate`` resolves within ``columns``."""
    for name in predicate.columns():
        if name in columns:
            continue
        suffix = "." + name
        matches = [c for c in columns if c.endswith(suffix)]
        if len(matches) != 1:
            return False
    return True


def push_down_filters(
    node: lp.PlanNode, schema_lookup: Callable[[str], Sequence[str]]
) -> lp.PlanNode:
    """Push filter predicates as close to the scans as possible."""
    node = node.with_children(
        [push_down_filters(c, schema_lookup) for c in node.children()]
    )
    if not isinstance(node, lp.Filter):
        return node
    child = node.child
    parts = list(conjuncts(node.predicate))

    if isinstance(child, lp.Filter):
        merged = lp.Filter(
            child.child, combine_and(parts + list(conjuncts(child.predicate)))
        )
        return push_down_filters(merged, schema_lookup)

    if isinstance(child, lp.Join) and child.how == "inner":
        left_cols = _available_columns(child.left, schema_lookup)
        right_cols = _available_columns(child.right, schema_lookup)
        to_left: List[Expression] = []
        to_right: List[Expression] = []
        keep: List[Expression] = []
        for part in parts:
            if _references_resolvable(part, left_cols):
                to_left.append(part)
            elif _references_resolvable(part, right_cols):
                to_right.append(part)
            else:
                keep.append(part)
        new_left = child.left
        new_right = child.right
        if to_left:
            new_left = push_down_filters(
                lp.Filter(new_left, combine_and(to_left)), schema_lookup
            )
        if to_right:
            new_right = push_down_filters(
                lp.Filter(new_right, combine_and(to_right)), schema_lookup
            )
        new_join = lp.Join(new_left, new_right, child.condition, child.how)
        if keep:
            return lp.Filter(new_join, combine_and(keep))
        return new_join

    if isinstance(child, (lp.OrderBy, lp.Distinct)):
        # Filter commutes with sorting and duplicate elimination.
        pushed = push_down_filters(
            lp.Filter(child.children()[0], node.predicate), schema_lookup
        )
        return child.with_children([pushed])

    return node


def _collect_join_chain(
    node: lp.PlanNode,
) -> Optional[Tuple[List[lp.PlanNode], List[Expression]]]:
    """Flatten a left-deep chain of inner joins into relations+conditions."""
    if not isinstance(node, lp.Join) or node.how != "inner":
        return None
    relations: List[lp.PlanNode] = []
    conditions: List[Expression] = []

    def visit(n: lp.PlanNode) -> None:
        if isinstance(n, lp.Join) and n.how == "inner":
            visit(n.left)
            visit(n.right)
            if n.condition is not None:
                conditions.extend(conjuncts(n.condition))
        else:
            relations.append(n)

    visit(node)
    return relations, conditions


def _estimate_rows(
    node: lp.PlanNode, stats_lookup: StatsLookup
) -> float:
    """Rough cardinality estimate for a leaf-ish plan node."""
    if isinstance(node, lp.Scan):
        stats = stats_lookup(node.table)
        return float(stats.row_count) if stats else 1000.0
    if isinstance(node, lp.Values):
        return float(len(node.rows))
    if isinstance(node, lp.Filter):
        base = _estimate_rows(node.child, stats_lookup)
        table_stats = _scan_stats(node.child, stats_lookup)
        if table_stats is not None:
            return base * predicate_selectivity(node.predicate, table_stats)
        return base * 0.3
    if isinstance(node, lp.Limit):
        return min(
            float(node.count), _estimate_rows(node.child, stats_lookup)
        )
    children = node.children()
    if children:
        return max(_estimate_rows(c, stats_lookup) for c in children)
    return 1000.0


def _scan_stats(
    node: lp.PlanNode, stats_lookup: StatsLookup
) -> Optional[TableStatistics]:
    if isinstance(node, lp.Scan):
        return stats_lookup(node.table)
    children = node.children()
    if len(children) == 1:
        return _scan_stats(children[0], stats_lookup)
    return None


def reorder_joins(
    node: lp.PlanNode, stats_lookup: StatsLookup
) -> lp.PlanNode:
    """Greedily reorder inner-join chains by estimated cardinality.

    Starts from the smallest estimated relation and repeatedly joins the
    relation that minimizes the estimated size of the next intermediate
    result, preferring relations connected by a join predicate (avoiding
    cross products when possible).
    """
    node = node.with_children(
        [reorder_joins(c, stats_lookup) for c in node.children()]
    )
    chain = _collect_join_chain(node)
    if chain is None or len(chain[0]) < 3:
        return node
    relations, conditions = chain

    def touches(cond: Expression, cols: Set[str]) -> bool:
        return _references_resolvable(cond, cols)

    # Columns each relation exposes: approximate via scan aliases.
    def rel_cols(rel: lp.PlanNode) -> Set[str]:
        cols: Set[str] = set()
        for n in lp.walk(rel):
            if isinstance(n, lp.Scan):
                stats = stats_lookup(n.table)
                names = list(stats.columns) if stats else []
                if n.alias:
                    cols |= {f"{n.alias}.{c}" for c in names}
                else:
                    cols |= set(names)
        return cols

    remaining = list(range(len(relations)))
    sizes = [_estimate_rows(r, stats_lookup) for r in relations]
    start = min(remaining, key=lambda i: sizes[i])
    remaining.remove(start)
    current = relations[start]
    current_cols = rel_cols(relations[start])
    current_size = sizes[start]
    unused_conditions = list(conditions)

    while remaining:

        def applicable(idx: int) -> List[Expression]:
            cols = current_cols | rel_cols(relations[idx])
            return [c for c in unused_conditions if touches(c, cols)]

        # Prefer connected relations; fall back to smallest.
        connected = [i for i in remaining if applicable(i)]
        candidates = connected or remaining

        def result_size(idx: int) -> float:
            conds = applicable(idx)
            size = current_size * sizes[idx]
            if conds:
                size *= 0.1 ** len(conds)
            return size

        best = min(candidates, key=result_size)
        conds = applicable(best)
        # Expressions overload ``==`` to build predicates, so membership
        # tests must use identity, never ``list.remove``.
        unused_conditions = [
            u for u in unused_conditions if not any(u is c for c in conds)
        ]
        current = lp.Join(
            current,
            relations[best],
            combine_and(conds) if conds else None,
            "inner",
        )
        current_cols |= rel_cols(relations[best])
        current_size = result_size(best)
        remaining.remove(best)

    if unused_conditions:
        current = lp.Filter(current, combine_and(unused_conditions))
    return current


def optimize(
    node: lp.PlanNode,
    schema_lookup: Callable[[str], Sequence[str]],
    stats_lookup: StatsLookup,
) -> lp.PlanNode:
    """Apply all rewrites: pushdown, reorder, then pushdown again."""
    node = push_down_filters(node, schema_lookup)
    node = reorder_joins(node, stats_lookup)
    return push_down_filters(node, schema_lookup)

