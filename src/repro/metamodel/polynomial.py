"""Polynomial metamodels (Equation 3 of the paper).

The classic polynomial metamodel relates a model response to its inputs
through main effects, pairwise interactions, and higher-order terms,

``Y(x) = b0 + sum_i b_i x_i + sum_{i<j} b_ij x_i x_j + ... + eps``.

:class:`PolynomialMetamodel` builds the design matrix up to a chosen
interaction order, fits the coefficients by least squares, and predicts —
the "simulation on demand" use: once fit, responses at new inputs cost a
dot product.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DesignError


def _terms(num_factors: int, order: int) -> List[Tuple[int, ...]]:
    """All interaction index tuples up to ``order`` (excluding intercept)."""
    terms: List[Tuple[int, ...]] = []
    for size in range(1, order + 1):
        terms.extend(itertools.combinations(range(num_factors), size))
    return terms


class PolynomialMetamodel:
    """A least-squares polynomial response surface.

    Parameters
    ----------
    num_factors:
        Input dimensionality.
    order:
        Highest interaction order: 1 fits a linear (main-effects) model,
        2 adds pairwise products, etc.
    """

    def __init__(self, num_factors: int, order: int = 1) -> None:
        if num_factors < 1:
            raise DesignError("need at least one factor")
        if not 1 <= order <= num_factors:
            raise DesignError(
                f"order must be in [1, {num_factors}], got {order}"
            )
        self.num_factors = num_factors
        self.order = order
        self.terms = _terms(num_factors, order)
        self.coefficients: Optional[np.ndarray] = None
        self.residual_sd: float = 0.0

    def design_matrix(self, inputs: np.ndarray) -> np.ndarray:
        """Expand raw inputs into the polynomial design matrix."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        if x.shape[1] != self.num_factors:
            raise DesignError(
                f"inputs have {x.shape[1]} columns; expected "
                f"{self.num_factors}"
            )
        columns = [np.ones(x.shape[0])]
        for term in self.terms:
            columns.append(np.prod(x[:, term], axis=1))
        return np.column_stack(columns)

    def fit(
        self, inputs: np.ndarray, responses: Sequence[float]
    ) -> "PolynomialMetamodel":
        """Least-squares fit; returns self."""
        design = self.design_matrix(inputs)
        y = np.asarray(responses, dtype=float)
        if y.shape != (design.shape[0],):
            raise DesignError(
                f"{design.shape[0]} design rows but {y.shape[0]} responses"
            )
        if design.shape[0] < design.shape[1]:
            raise DesignError(
                f"underdetermined fit: {design.shape[0]} runs for "
                f"{design.shape[1]} coefficients"
            )
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        self.coefficients = coef
        residuals = y - design @ coef
        dof = design.shape[0] - design.shape[1]
        self.residual_sd = (
            float(np.sqrt(residuals @ residuals / dof)) if dof > 0 else 0.0
        )
        return self

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Evaluate the fitted surface."""
        if self.coefficients is None:
            raise DesignError("fit() has not been called")
        return self.design_matrix(inputs) @ self.coefficients

    @property
    def intercept(self) -> float:
        """The fitted ``b0``."""
        if self.coefficients is None:
            raise DesignError("fit() has not been called")
        return float(self.coefficients[0])

    def coefficient(self, term: Tuple[int, ...]) -> float:
        """The fitted coefficient for an interaction term (1-tuples = main)."""
        if self.coefficients is None:
            raise DesignError("fit() has not been called")
        try:
            index = self.terms.index(tuple(term))
        except ValueError:
            raise DesignError(
                f"term {term} not in model (order {self.order})"
            ) from None
        return float(self.coefficients[index + 1])

    def main_effects(self) -> np.ndarray:
        """The main-effect coefficients ``b_1 .. b_k``."""
        if self.coefficients is None:
            raise DesignError("fit() has not been called")
        return self.coefficients[1 : 1 + self.num_factors].copy()
