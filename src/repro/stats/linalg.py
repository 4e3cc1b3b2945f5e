"""Dense and tridiagonal linear algebra used by the harmonization stack.

The natural-cubic-spline time alignment of Section 2.2 reduces to solving a
symmetric tridiagonal system ``A sigma = b``.  The exact sequential method is
the Thomas algorithm implemented here; the distributed alternative (DSGD over
the least-squares reformulation) lives in :mod:`repro.harmonize.dsgd` and is
validated against these routines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class TridiagonalSystem:
    """A tridiagonal linear system ``A x = b``.

    ``lower``, ``diag`` and ``upper`` hold the sub-, main- and
    super-diagonal of ``A``; ``lower[0]`` and ``upper[-1]`` are unused
    padding kept so all bands share the same length as ``diag``.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        n = self.diag.shape[0]
        for name in ("lower", "upper", "rhs"):
            band = getattr(self, name)
            if band.shape != (n,):
                raise SimulationError(
                    f"band {name!r} has shape {band.shape}, expected ({n},)"
                )

    @property
    def size(self) -> int:
        """Number of unknowns."""
        return int(self.diag.shape[0])

    def dense(self) -> np.ndarray:
        """Materialize ``A`` as a dense matrix (for tests and small systems)."""
        n = self.size
        a = np.zeros((n, n))
        idx = np.arange(n)
        a[idx, idx] = self.diag
        a[idx[1:], idx[:-1]] = self.lower[1:]
        a[idx[:-1], idx[1:]] = self.upper[:-1]
        return a

    def row(self, i: int) -> np.ndarray:
        """Return dense row ``i`` of ``A`` (used by SGD loss components)."""
        n = self.size
        r = np.zeros(n)
        r[i] = self.diag[i]
        if i > 0:
            r[i - 1] = self.lower[i]
        if i < n - 1:
            r[i + 1] = self.upper[i]
        return r

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` in O(n) using the bands."""
        n = self.size
        y = self.diag * x
        y[1:] += self.lower[1:] * x[:-1]
        y[:-1] += self.upper[:-1] * x[1:]
        return y

    def residual_norm(self, x: np.ndarray) -> float:
        """Euclidean norm of ``A x - b``."""
        return float(np.linalg.norm(self.matvec(x) - self.rhs))


def thomas_solve(system: TridiagonalSystem) -> np.ndarray:
    """Solve a tridiagonal system by the Thomas algorithm in O(n).

    This is the exact sequential baseline that, per the paper, "does not
    translate well to a MapReduce environment" because its forward/backward
    sweeps are inherently serial.

    Raises
    ------
    SimulationError
        If elimination encounters a zero pivot (singular or
        non-diagonally-dominant system).
    """
    n = system.size
    if n == 0:
        return np.zeros(0)
    c_prime = np.zeros(n)
    d_prime = np.zeros(n)
    if system.diag[0] == 0:
        raise SimulationError("zero pivot at row 0")
    c_prime[0] = system.upper[0] / system.diag[0]
    d_prime[0] = system.rhs[0] / system.diag[0]
    for i in range(1, n):
        denom = system.diag[i] - system.lower[i] * c_prime[i - 1]
        if denom == 0:
            raise SimulationError(f"zero pivot at row {i}")
        if i < n - 1:
            c_prime[i] = system.upper[i] / denom
        d_prime[i] = (system.rhs[i] - system.lower[i] * d_prime[i - 1]) / denom
    x = np.zeros(n)
    x[-1] = d_prime[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d_prime[i] - c_prime[i] * x[i + 1]
    return x


def spline_system(
    knots: np.ndarray, values: np.ndarray
) -> TridiagonalSystem:
    """Build the tridiagonal system for natural-cubic-spline constants.

    Given knots ``s_0 < s_1 < ... < s_m`` with data ``d_i``, the interior
    spline constants ``sigma_1 .. sigma_{m-1}`` solve the classic
    ``(m-1) x (m-1)`` system with rows

    ``h_{i-1} sigma_{i-1} + 2 (h_{i-1} + h_i) sigma_i + h_i sigma_{i+1}
    = 6 [ (d_{i+1}-d_i)/h_i - (d_i - d_{i-1})/h_{i-1} ]``

    and the natural boundary conditions ``sigma_0 = sigma_m = 0``.
    """
    s = np.asarray(knots, dtype=float)
    d = np.asarray(values, dtype=float)
    if s.ndim != 1 or s.shape != d.shape:
        raise SimulationError("knots/values must be equal-length 1-D arrays")
    if s.size < 3:
        raise SimulationError("cubic spline needs at least 3 knots")
    h = np.diff(s)
    if np.any(h <= 0):
        raise SimulationError("knots must be strictly increasing")
    m = s.size - 1
    slopes = np.diff(d) / h
    diag = 2.0 * (h[:-1] + h[1:])
    lower = np.zeros(m - 1)
    upper = np.zeros(m - 1)
    lower[1:] = h[1:-1]
    upper[:-1] = h[1:-1]
    rhs = 6.0 * (slopes[1:] - slopes[:-1])
    return TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)


def random_diagonally_dominant_system(
    size: int, rng: np.random.Generator
) -> TridiagonalSystem:
    """Generate a random strictly diagonally dominant tridiagonal system.

    Used by tests and benchmarks as a well-conditioned target for comparing
    the Thomas solver against (D)SGD.
    """
    if size < 1:
        raise SimulationError("system size must be >= 1")
    lower = np.zeros(size)
    upper = np.zeros(size)
    lower[1:] = rng.uniform(-1.0, 1.0, size=size - 1)
    upper[:-1] = rng.uniform(-1.0, 1.0, size=size - 1)
    slack = rng.uniform(0.5, 1.5, size=size)
    diag = np.abs(lower) + np.abs(upper) + slack
    rhs = rng.uniform(-1.0, 1.0, size=size)
    return TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)


def least_squares_loss(system: TridiagonalSystem, x: np.ndarray) -> float:
    """The objective ``L(x) = ||A x - b||^2`` minimized by (D)SGD."""
    r = system.matvec(x) - system.rhs
    return float(r @ r)
