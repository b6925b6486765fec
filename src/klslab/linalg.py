"""Covariance containers and the small matrix analysis used throughout.

CovMatrix caches the quantities the estimators keep re-reading: trace,
trace of the square (the localization potential), the eigenvalues and
the operator norm.  The operator norm is the top cached eigenvalue, so it
costs nothing beyond the eigvalsh call that tr(A^q) and the barrier value
already need.  power_opnorm, a deterministic power iteration, remains as
a standalone routine.
"""

from __future__ import annotations

import numpy as np

_POWER_TOL = 1e-8
_POWER_MAX_ITERS = 20000


class SingularCovarianceError(ValueError):
    """Raised when a covariance is numerically singular; the message names
    the offending null direction."""


def power_opnorm(A, tol=_POWER_TOL):
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Deterministic: the start vector is fixed (graded ones), so the same
    matrix always yields the same iterate sequence.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    v = np.ones(n) + np.arange(n) / (7.0 * n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_MAX_ITERS):
        w = A @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam_new = float(v @ A @ v)
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


class CovMatrix:
    """Symmetric PSD matrix with cached trace, tr(A^2) and eigenvalues;
    the operator norm is the largest cached eigenvalue."""

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("covariance must be a square matrix")
        self.matrix = 0.5 * (M + M.T)
        self.n = M.shape[0]
        self.trace = float(np.trace(self.matrix))
        self.trace_sq = float(np.sum(self.matrix * self.matrix))
        self._eigvals = None

    @property
    def opnorm(self) -> float:
        return float(self.eigvals[-1])

    @property
    def eigvals(self) -> np.ndarray:
        if self._eigvals is None:
            self._eigvals = np.linalg.eigvalsh(self.matrix)
        return self._eigvals

    def trace_power(self, q: int) -> float:
        """tr(A^q) through the eigenvalues."""
        return float(np.sum(self.eigvals ** q))

    def __repr__(self):
        return f"CovMatrix(n={self.n}, trace={self.trace:.6g}, opnorm={self.opnorm:.6g})"


def identity_multiple(B):
    """t when the square matrix B is exactly t I, else None."""
    B = np.asarray(B, dtype=float)
    t = float(B[0, 0])
    return t if np.array_equal(B, t * np.eye(len(B))) else None


def quad_rows(X, B):
    """x_i.B x_i for every row x_i of X, as one GEMM and one row-wise dot."""
    return np.einsum("ij,ij->i", X @ B, X)


def sym_inv_sqrt(A):
    """A^{-1/2} via symmetric eigendecomposition.

    Raises SingularCovarianceError naming the null direction when the
    smallest eigenvalue falls below 1e-10 times the largest.
    """
    A = np.asarray(A, dtype=float)
    evals, evecs = np.linalg.eigh(0.5 * (A + A.T))
    top = float(evals[-1])
    if top <= 0 or evals[0] <= 1e-10 * top:
        direction = np.array2string(evecs[:, 0], precision=4, suppress_small=True)
        raise SingularCovarianceError(
            f"covariance nearly singular: min eigenvalue {evals[0]:.3e} "
            f"vs max {top:.3e}; null direction ~ {direction}"
        )
    return (evecs * (1.0 / np.sqrt(evals))) @ evecs.T


def stieltjes_u(A):
    """The barrier value u with tr((uI - A)^{-2}) = n and A <= uI.

    g(u) = sum_i (u - lambda_i)^{-2} - n is convex and decreasing on
    (lambda_max, inf), so the root is unique and Newton's method started
    left of it climbs to it monotonically: each tangent step lands at or
    below the root.  The start u0 = max(lambda_max + n^{-1/2},
    mean(lambda) + 1) has g(u0) >= 0: at the first bound the top term
    alone is n, at the second Jensen's inequality gives
    sum (u0 - lambda_i)^{-2} >= n / (u0 - mean(lambda))^2 = n.  Iteration
    stops when an iterate no longer increases, which in floating point
    is the root to rounding.
    """
    if isinstance(A, CovMatrix):
        lam = A.eigvals
    else:
        A = np.asarray(A, dtype=float)
        if A.ndim == 1:
            lam = np.sort(A)
        else:
            lam = np.linalg.eigvalsh(0.5 * (A + A.T))
    n = lam.shape[0]
    u = max(float(lam[-1]) + n ** -0.5, float(np.mean(lam)) + 1.0)
    for _ in range(100):
        r = 1.0 / (u - lam)
        r2 = r * r
        u_new = u + (float(np.sum(r2)) - n) / (2.0 * float(r2 @ r))
        if not u_new > u:
            break
        u = u_new
    return u
