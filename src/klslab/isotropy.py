"""Covariance estimation and isotropic rounding.

The rounding pipeline follows the iterated scheme: sample the standard
Gaussian restricted to the current body, estimate the covariance, and
whiten with its inverse square root until every eigenvalue sits inside
[1/2, 2].  Restricting a standard Gaussian to a convex set can only
shrink directional variances, so the upper edge of the window is safe
and the loop terminates once the lower edge is reached.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bodies import transform_body
from .densities import Gaussian
from .linalg import CovMatrix, sym_inv_sqrt
from .rng import as_generator
from .walks import run_chain

EIG_WINDOW = (0.5, 2.0)


def estimate_mean_cov(samples):
    """Sample mean and covariance (1/m normalization about the mean).

    Warns when m <= n, where the covariance cannot be trusted at all.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2:
        raise ValueError("samples must be a 2-D array")
    m, n = X.shape
    if m <= n:
        warnings.warn(f"covariance from m={m} <= n={n} samples is rank "
                      "deficient or nearly so")
    mean = X.mean(axis=0)
    xc = X - mean
    cov = xc.T @ xc / m
    return mean, CovMatrix(cov)


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ (x - center)."""

    matrix: np.ndarray
    center: np.ndarray

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.matrix @ (x - self.center)
        return (x - self.center) @ self.matrix.T

    def inverse(self) -> "AffineMap":
        Minv = np.linalg.inv(self.matrix)
        return AffineMap(Minv, -self.matrix @ self.center)

    def compose_after(self, first: "AffineMap") -> "AffineMap":
        """The map x -> self(first(x))."""
        M = self.matrix @ first.matrix
        # self(first(x)) = self.matrix @ (first.matrix (x - first.center) - self.center)
        center = first.center + np.linalg.solve(first.matrix, self.center)
        return AffineMap(M, center)

    def as_matrix_shift(self):
        """(M, s) with apply(x) = M x + s."""
        return self.matrix, -self.matrix @ self.center


def rounding_transform(mean, cov) -> AffineMap:
    """T(x) = cov^{-1/2} (x - mean); raises on singular covariance."""
    mat = cov.matrix if isinstance(cov, CovMatrix) else np.asarray(cov, dtype=float)
    return AffineMap(sym_inv_sqrt(mat), np.asarray(mean, dtype=float).copy())


def apply_to_body(body, T: AffineMap):
    M, s = T.as_matrix_shift()
    return transform_body(body, M, s)


def iterated_gaussian_isotropy(body, rng, max_iters=20, k=None):
    """Round a body by repeated Gaussian-restricted covariance estimation.

    Each iteration samples exp(-|x|^2/2) restricted to the current body
    with the Metropolis ball walk (k = 64 n samples by default, n steps
    apart, from a fresh warm start), estimates the covariance, and whitens
    when the smallest eigenvalue falls below EIG_WINDOW.  Returns the
    accumulated map, the final body, and the per-iteration log.
    """
    n = body.n
    # normalize once so successive iterations advance one shared stream
    rng = as_generator(rng)
    k = 64 * n if k is None else int(k)
    lo, hi = EIG_WINDOW
    total = AffineMap(np.eye(n), np.zeros(n))
    log = []
    current = body
    for it in range(int(max_iters)):
        density = Gaussian(current, a=1.0)
        X = run_chain(density, None, k, walk="metropolis", rng=rng)
        mean, cov = estimate_mean_cov(X)
        evals = cov.eigvals
        log.append({"iteration": it, "min_eig": float(evals[0]),
                    "max_eig": float(evals[-1]), "samples_used": k})
        if lo <= evals[0] and evals[-1] <= hi:
            return total, current, log
        if evals[0] < lo:
            T = rounding_transform(mean, cov)
            total = T.compose_after(total)
            current = apply_to_body(current, T)
        else:
            # upper edge alone cannot block: gaussian restriction keeps
            # directional variances <= 1, so treat as converged
            return total, current, log
    warnings.warn(f"isotropy loop hit max_iters={max_iters} without "
                  "entering the eigenvalue window")
    return total, current, log
