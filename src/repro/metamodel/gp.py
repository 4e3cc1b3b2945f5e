"""Gaussian-process (kriging) metamodels — Equations (4)-(6) of the paper.

The metamodel is ``Y(x) = b0 + M(x)`` with ``M`` a stationary Gaussian
process whose covariance is the product-exponential of Equation (5),

``Cov[M(x_i), M(x_j)] = tau^2 prod_k exp(-theta_k (x_ik - x_jk)^2)``.

Given responses at design points, the mean-square-optimal predictor at a
new point ``x0`` is Equation (6),

``Yhat(x0) = b0 + Sigma_M(x0, .)^T Sigma_M^{-1} (Ybar - b0 1)``,

which *interpolates* the design points exactly for deterministic
simulations.  Hyperparameters ``(b0, tau^2, theta)`` are fit by profile
maximum likelihood.  The per-dimension ``theta_k`` double as factor
importances (Section 4.3): a near-zero ``theta_k`` means the response is
flat in dimension ``k``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from repro.errors import DesignError

_NUGGET = 1e-10


def gaussian_correlation(
    a: np.ndarray, b: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """The product-exponential correlation matrix between point sets."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    diff = a[:, None, :] - b[None, :, :]
    return np.exp(-np.sum(theta[None, None, :] * diff**2, axis=2))


class GaussianProcessMetamodel:
    """Kriging for deterministic simulation responses."""

    def __init__(self, theta: Optional[np.ndarray] = None) -> None:
        self.theta = None if theta is None else np.asarray(theta, dtype=float)
        self.beta0: float = 0.0
        self.tau_sq: float = 1.0
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None  # R^{-1}(y - b0)
        self._r_inv: Optional[np.ndarray] = None
        self.log_likelihood: float = -math.inf

    # -- likelihood --------------------------------------------------------
    @staticmethod
    def _profile_nll(
        log_theta: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> float:
        theta = np.exp(log_theta)
        n = x.shape[0]
        r = gaussian_correlation(x, x, theta) + _NUGGET * np.eye(n)
        try:
            chol = np.linalg.cholesky(r)
        except np.linalg.LinAlgError:
            return 1e12
        ones = np.ones(n)
        r_inv_y = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
        r_inv_1 = np.linalg.solve(chol.T, np.linalg.solve(chol, ones))
        beta0 = float(ones @ r_inv_y) / float(ones @ r_inv_1)
        centered = y - beta0
        r_inv_c = np.linalg.solve(chol.T, np.linalg.solve(chol, centered))
        tau_sq = float(centered @ r_inv_c) / n
        if tau_sq <= 0:
            return 1e12
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return 0.5 * (n * math.log(tau_sq) + log_det)

    def fit(
        self,
        inputs: np.ndarray,
        responses: Sequence[float],
        optimize_theta: bool = True,
        restarts: int = 3,
        seed: int = 0,
    ) -> "GaussianProcessMetamodel":
        """Fit hyperparameters by profile MLE and cache the predictor."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        y = np.asarray(responses, dtype=float)
        n, k = x.shape
        if y.shape != (n,):
            raise DesignError("inputs/responses length mismatch")
        if n < 2:
            raise DesignError("kriging needs at least two design points")

        if self.theta is not None and not optimize_theta:
            theta = self.theta
        else:
            rng = np.random.default_rng(seed)
            spans = np.maximum(x.max(axis=0) - x.min(axis=0), 1e-6)
            base = np.log(1.0 / spans**2)
            best_value = math.inf
            best_log_theta = base
            starts = [base] + [
                base + rng.normal(0, 1.5, size=k) for _ in range(restarts - 1)
            ]
            for start in starts:
                result = minimize(
                    self._profile_nll,
                    start,
                    args=(x, y),
                    method="Nelder-Mead",
                    options={"maxiter": 400 * k, "xatol": 1e-4, "fatol": 1e-8},
                )
                if result.fun < best_value:
                    best_value = result.fun
                    best_log_theta = result.x
            theta = np.exp(best_log_theta)

        self.theta = theta
        r = gaussian_correlation(x, x, theta) + _NUGGET * np.eye(n)
        r_inv = np.linalg.inv(r)
        ones = np.ones(n)
        self.beta0 = float(ones @ r_inv @ y) / float(ones @ r_inv @ ones)
        centered = y - self.beta0
        self.tau_sq = max(float(centered @ r_inv @ centered) / n, 1e-12)
        self._x = x
        self._r_inv = r_inv
        self._alpha = r_inv @ centered
        log_det = float(np.linalg.slogdet(r)[1])
        self.log_likelihood = -0.5 * (
            n * math.log(self.tau_sq) + log_det + n
        )
        return self

    def predict(
        self, inputs: np.ndarray, return_mse: bool = False
    ):
        """The Equation (6) predictor (optionally with kriging MSE)."""
        if self._x is None or self._alpha is None or self.theta is None:
            raise DesignError("fit() has not been called")
        x0 = np.atleast_2d(np.asarray(inputs, dtype=float))
        r0 = gaussian_correlation(x0, self._x, self.theta)
        mean = self.beta0 + r0 @ self._alpha
        if not return_mse:
            return mean
        mse = self.tau_sq * np.maximum(
            1.0 - np.einsum("ij,jk,ik->i", r0, self._r_inv, r0), 0.0
        )
        return mean, mse

    def factor_importances(self) -> np.ndarray:
        """The fitted ``theta_k`` — the Section 4.3 screening measure."""
        if self.theta is None:
            raise DesignError("fit() has not been called")
        return self.theta.copy()


class StochasticKrigingMetamodel(GaussianProcessMetamodel):
    """Stochastic kriging (Ankenman, Nelson & Staum [3]).

    For noisy simulations the ``i``-th design point carries the average
    of ``n_i`` replications with intrinsic variance ``V(x_i)``; the
    predictor replaces ``Sigma_M^{-1}`` with ``[Sigma_M + Sigma_eps]^{-1}``
    where ``Sigma_eps = diag(V(x_i) / n_i)``.  The fitted surface smooths
    rather than interpolates.
    """

    def fit_noisy(
        self,
        inputs: np.ndarray,
        mean_responses: Sequence[float],
        noise_variances: Sequence[float],
        optimize_theta: bool = True,
        restarts: int = 3,
        seed: int = 0,
    ) -> "StochasticKrigingMetamodel":
        """Fit with known per-point intrinsic variances.

        ``noise_variances[i]`` is ``V(x_i) / n_i`` — the variance of the
        *averaged* response at design point ``i``.
        """
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        y = np.asarray(mean_responses, dtype=float)
        noise = np.asarray(noise_variances, dtype=float)
        n, k = x.shape
        if y.shape != (n,) or noise.shape != (n,):
            raise DesignError("inputs/responses/noise length mismatch")
        if np.any(noise < 0):
            raise DesignError("noise variances must be nonnegative")

        def nll(params: np.ndarray) -> float:
            log_theta = params[:k]
            log_tau_sq = params[k]
            theta = np.exp(log_theta)
            tau_sq = math.exp(log_tau_sq)
            cov = tau_sq * gaussian_correlation(x, x, theta)
            cov += np.diag(noise) + _NUGGET * np.eye(n)
            try:
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                return 1e12
            ones = np.ones(n)
            c_inv_y = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
            c_inv_1 = np.linalg.solve(chol.T, np.linalg.solve(chol, ones))
            beta0 = float(ones @ c_inv_y) / float(ones @ c_inv_1)
            centered = y - beta0
            c_inv_c = np.linalg.solve(
                chol.T, np.linalg.solve(chol, centered)
            )
            log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
            return 0.5 * (float(centered @ c_inv_c) + log_det)

        rng = np.random.default_rng(seed)
        spans = np.maximum(x.max(axis=0) - x.min(axis=0), 1e-6)
        base = np.concatenate(
            [np.log(1.0 / spans**2), [math.log(max(float(y.var()), 1e-6))]]
        )
        best_value = math.inf
        best_params = base
        starts = [base] + [
            base + rng.normal(0, 1.0, size=k + 1)
            for _ in range(restarts - 1)
        ]
        if optimize_theta:
            for start in starts:
                result = minimize(
                    nll,
                    start,
                    method="Nelder-Mead",
                    options={"maxiter": 500 * (k + 1)},
                )
                if result.fun < best_value:
                    best_value = result.fun
                    best_params = result.x
        theta = np.exp(best_params[:k])
        tau_sq = math.exp(best_params[k])

        cov = tau_sq * gaussian_correlation(x, x, theta)
        cov += np.diag(noise) + _NUGGET * np.eye(n)
        cov_inv = np.linalg.inv(cov)
        ones = np.ones(n)
        beta0 = float(ones @ cov_inv @ y) / float(ones @ cov_inv @ ones)
        centered = y - beta0

        self.theta = theta
        self.tau_sq = tau_sq
        self.beta0 = beta0
        self._x = x
        # Predictor uses tau^2 r0 against the full covariance inverse.
        self._alpha = cov_inv @ centered
        self._r_inv = cov_inv
        self.log_likelihood = -best_value
        return self

    def predict(self, inputs: np.ndarray, return_mse: bool = False):
        """Stochastic-kriging predictor (covariances, not correlations)."""
        if self._x is None or self._alpha is None or self.theta is None:
            raise DesignError("fit_noisy() has not been called")
        x0 = np.atleast_2d(np.asarray(inputs, dtype=float))
        cov0 = self.tau_sq * gaussian_correlation(x0, self._x, self.theta)
        mean = self.beta0 + cov0 @ self._alpha
        if not return_mse:
            return mean
        mse = np.maximum(
            self.tau_sq
            - np.einsum("ij,jk,ik->i", cov0, self._r_inv, cov0),
            0.0,
        )
        return mean, mse
