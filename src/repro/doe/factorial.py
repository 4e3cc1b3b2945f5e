"""Full and fractional two-level factorial designs (Section 4.2).

Designs are coded matrices with entries ±1 ("low"/"high" factor levels).
The resolution-III design of the paper's Figure 3 — seven parameters in
eight runs — is generated here exactly: three base factors in standard
order plus the interaction columns ``4=12, 5=13, 6=23, 7=123``.

Resolution semantics (Box–Hunter):

* III — main effects unconfounded with each other (but confounded with
  two-factor interactions);
* IV — main effects clear of two-factor interactions (fold-over of III);
* V — main effects and two-factor interactions all clear.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import DesignError


def full_factorial(num_factors: int) -> np.ndarray:
    """The ``2^k`` full factorial design in standard (Yates) order.

    Column 0 alternates fastest: row ``i``'s level for factor ``j`` is
    ``+1`` iff bit ``j`` of ``i`` is set.
    """
    if num_factors < 1:
        raise DesignError("need at least one factor")
    runs = 2**num_factors
    design = np.empty((runs, num_factors))
    for i in range(runs):
        for j in range(num_factors):
            design[i, j] = 1.0 if (i >> j) & 1 else -1.0
    return design


def _interaction_column(
    base: np.ndarray, factors: Sequence[int]
) -> np.ndarray:
    column = np.ones(base.shape[0])
    for f in factors:
        column = column * base[:, f]
    return column


def fractional_factorial(
    num_base: int, generators: Sequence[Sequence[int]]
) -> np.ndarray:
    """A ``2^(k-p)`` design: full factorial in the base factors plus
    generator columns.

    ``generators`` lists, for each added factor, the base-factor indices
    whose interaction defines it — e.g. ``[(0, 1), (0, 2), (1, 2),
    (0, 1, 2)]`` yields the paper's seven-factor resolution III design.
    """
    base = full_factorial(num_base)
    columns = [base]
    for gen in generators:
        if not gen or any(not 0 <= g < num_base for g in gen):
            raise DesignError(f"bad generator {tuple(gen)}")
        columns.append(_interaction_column(base, gen)[:, None])
    return np.hstack(columns)


def resolution_iii(num_factors: int) -> np.ndarray:
    """A saturated-or-smaller resolution III design for ``num_factors``.

    Uses the smallest base ``p`` with ``2^p - 1 >= num_factors``; the
    extra factors take the interaction columns in order of increasing
    interaction size.  For seven factors this reproduces the paper's
    Figure 3 exactly (8 runs).
    """
    if num_factors < 2:
        raise DesignError("need at least two factors")
    p = 2
    while 2**p - 1 < num_factors:
        p += 1
    interactions: List[Tuple[int, ...]] = []
    for size in range(2, p + 1):
        interactions.extend(itertools.combinations(range(p), size))
    needed = num_factors - p
    return fractional_factorial(p, interactions[:needed])


def fold_over(design: np.ndarray) -> np.ndarray:
    """The fold-over: append the sign-reversed runs.

    Folding a resolution III design yields resolution IV — main effects
    become clear of two-factor interactions at the price of doubling the
    run count (the paper's "resolution IV design that requires 16 runs"
    for seven factors).
    """
    return np.vstack([design, -design])


def resolution_iv(num_factors: int) -> np.ndarray:
    """Fold-over resolution IV design (2x the resolution III runs)."""
    return fold_over(resolution_iii(num_factors))


#: Known minimal resolution V generator sets, keyed by factor count:
#: (base factor count, generators over base-factor indices).
_RES_V_GENERATORS: Dict[int, Tuple[int, List[Tuple[int, ...]]]] = {
    5: (4, [(0, 1, 2, 3)]),
    6: (5, [(0, 1, 2, 3, 4)]),
    7: (5, [(0, 1, 2, 3), (0, 1, 2, 4)]),  # 2^(7-2) = 32 runs
    8: (6, [(0, 1, 2, 3), (0, 1, 4, 5)]),
}


def resolution_v(num_factors: int) -> np.ndarray:
    """A resolution V design from the standard minimal generator tables.

    For seven factors this is the 32-run ``2^(7-2)_V`` design the paper
    cites for estimating all main effects and two-factor interactions.
    """
    if num_factors <= 4:
        return full_factorial(max(num_factors, 1))
    if num_factors not in _RES_V_GENERATORS:
        raise DesignError(
            f"no resolution V generator table for {num_factors} factors; "
            f"supported: {sorted(_RES_V_GENERATORS)} (or <= 4 full factorial)"
        )
    num_base, generators = _RES_V_GENERATORS[num_factors]
    return fractional_factorial(num_base, generators)


def is_orthogonal(design: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether all column pairs are orthogonal (zero dot product)."""
    gram = design.T @ design
    off = gram - np.diag(np.diag(gram))
    return bool(np.all(np.abs(off) <= tol))


def confounded_pairs(
    design: np.ndarray, tol: float = 1e-9
) -> List[Tuple[int, Tuple[int, int]]]:
    """Main effects aliased with two-factor interactions.

    Returns ``(factor, (a, b))`` tuples where the column of ``factor``
    equals (±) the elementwise product of columns ``a`` and ``b`` — the
    aliasing structure that distinguishes resolution III from IV.
    """
    n, k = design.shape
    out = []
    for j in range(k):
        for a in range(k):
            for b in range(a + 1, k):
                if j in (a, b):
                    continue
                interaction = design[:, a] * design[:, b]
                if np.all(np.abs(design[:, j] - interaction) <= tol) or np.all(
                    np.abs(design[:, j] + interaction) <= tol
                ):
                    out.append((j, (a, b)))
    return out
