"""Latin hypercube designs: randomized, orthogonal, and nearly orthogonal.

Section 4.2: "Determine r equally-spaced levels for each parameter and
generate an n x r design matrix where each column is a random permutation
of {1, 2, ..., r} ... The chief characteristic of an LH design is that
each possible x1 value appears once, as does each possible x2 value."
Randomized LHs "may not work well unless r >> n", so "nearly orthogonal
LH (NOLH) designs have been developed that provide good space-filling and
orthogonality properties" (Cioppa & Lucas [12]).

Levels are centered: for ``r`` runs the levels are
``-(r-1)/2 ... (r-1)/2`` (the paper's Figure 5 uses ``-4 .. 4`` for
``r = 9``).
"""

from __future__ import annotations


import numpy as np

from repro.errors import DesignError


def centered_levels(runs: int) -> np.ndarray:
    """The centered level values ``-(r-1)/2 .. (r-1)/2``."""
    if runs < 2:
        raise DesignError("need at least two runs")
    return np.arange(runs, dtype=float) - (runs - 1) / 2.0


def randomized_lh(
    num_factors: int, runs: int, rng: np.random.Generator
) -> np.ndarray:
    """A randomized Latin hypercube: each column a random permutation."""
    if num_factors < 1:
        raise DesignError("need at least one factor")
    levels = centered_levels(runs)
    return np.column_stack(
        [rng.permutation(levels) for _ in range(num_factors)]
    )


def is_latin(design: np.ndarray) -> bool:
    """Whether every column uses each centered level exactly once."""
    runs = design.shape[0]
    expected = np.sort(centered_levels(runs))
    return all(
        np.allclose(np.sort(design[:, j]), expected)
        for j in range(design.shape[1])
    )


def max_abs_correlation(design: np.ndarray) -> float:
    """Largest absolute pairwise column correlation (orthogonality score)."""
    k = design.shape[1]
    if k < 2:
        return 0.0
    corr = np.corrcoef(design, rowvar=False)
    off = np.abs(corr - np.eye(k))
    return float(off.max())


def figure5_design() -> np.ndarray:
    """The orthogonal 2-factor, 9-run LH of the paper's Figure 5.

    Both columns are permutations of ``-4..4`` with exactly zero
    correlation.
    """
    x1 = np.array([-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    x2 = np.array([-4.0, -2.0, 4.0, 3.0, 0.0, 2.0, 1.0, -1.0, -3.0])
    return np.column_stack([x1, x2])


def maximin_distance(design: np.ndarray) -> float:
    """The minimum pairwise Euclidean distance (space-filling score)."""
    n = design.shape[0]
    best = np.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(design[i] - design[j]))
            best = min(best, d)
    return best


def nearly_orthogonal_lh(
    num_factors: int,
    runs: int,
    rng: np.random.Generator,
    iterations: int = 2000,
) -> np.ndarray:
    """A nearly orthogonal LH by simulated-annealing column improvement.

    Starts from a randomized LH and repeatedly swaps two entries within a
    random column, accepting swaps that reduce the maximum absolute
    pairwise correlation (with occasional uphill acceptance early on).
    This is a practical stand-in for the Cioppa–Lucas construction: it
    preserves the Latin property exactly and typically drives the maximum
    correlation well under 0.05.
    """
    if num_factors < 2:
        return randomized_lh(num_factors, runs, rng)
    design = randomized_lh(num_factors, runs, rng)
    score = max_abs_correlation(design)
    best_design = design.copy()
    best_score = score
    for step in range(iterations):
        temperature = max(0.05 * (1.0 - step / iterations), 0.0)
        column = int(rng.integers(0, num_factors))
        i, j = rng.choice(runs, size=2, replace=False)
        design[[i, j], column] = design[[j, i], column]
        new_score = max_abs_correlation(design)
        if new_score <= score or rng.uniform() < temperature:
            score = new_score
            if score < best_score:
                best_score = score
                best_design = design.copy()
        else:
            design[[i, j], column] = design[[j, i], column]  # revert
    return best_design


def scale_design(
    design: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
) -> np.ndarray:
    """Map centered levels onto natural parameter ranges.

    Level ``-(r-1)/2`` maps to ``low`` and ``(r-1)/2`` to ``high``,
    linearly in between.
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    if lows.shape != (design.shape[1],) or highs.shape != (design.shape[1],):
        raise DesignError("lows/highs must have one entry per factor")
    if np.any(highs <= lows):
        raise DesignError("need low < high for every factor")
    runs = design.shape[0]
    half = (runs - 1) / 2.0
    unit = (design + half) / (runs - 1)  # in [0, 1]
    return lows + unit * (highs - lows)
