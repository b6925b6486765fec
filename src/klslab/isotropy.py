"""Covariance estimation and isotropic rounding.

The rounding pipeline follows the iterated scheme: sample the standard
Gaussian restricted to the current body, estimate the covariance, and
whiten with its inverse square root until every eigenvalue sits inside
[1/2, 2].  Restricting a standard Gaussian to a convex set can only
shrink directional variances (Brascamp-Lieb), so the upper edge of the
window is safe and the loop terminates once the lower edge is reached.
That holds for the estimates only when the samples follow the
restricted law, so each iteration draws them exact first
(walks.exact_or_chain).

The accumulated rounding map is returned as the pair (M, shift) with
x -> M x + shift, the form bodies.transform_body takes.
"""

from __future__ import annotations

import warnings

import numpy as np

from .bodies import transform_body
from .densities import Gaussian
from .linalg import CovMatrix, sym_inv_sqrt
from .rng import as_generator
from .walks import exact_or_chain

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


def iterated_gaussian_isotropy(body, rng, max_iters=20, k=None):
    """Round a body by repeated Gaussian-restricted covariance estimation.

    Each iteration draws k = 64 n samples (by default) of exp(-|x|^2/2)
    restricted to the current body, estimates the covariance, and whitens
    with W = cov^{-1/2}, x -> W (x - mean), when the smallest eigenvalue
    falls below EIG_WINDOW.  The draws are one exact_or_chain call whose
    fallback chain takes k samples n steps apart.  Returns
    ((M, shift), final_body, log): the composed map x -> M x + shift,
    which carries the input body onto final_body as
    transform_body(body, M, shift) does, the final body, and the
    per-iteration log.  Raises SingularCovarianceError when a
    covariance estimate is singular.
    """
    n = body.n
    # normalize once so successive iterations advance one shared stream
    rng = as_generator(rng)
    k = 64 * n if k is None else int(k)
    # the map so far is x -> M (x - center)
    M, center = np.eye(n), np.zeros(n)
    log = []
    current = body
    for it in range(int(max_iters)):
        X, _ = exact_or_chain(Gaussian(current, a=1.0), k, rng, thin=n)
        mean, cov = estimate_mean_cov(X)
        evals = cov.eigvals
        log.append({"iteration": it, "min_eig": float(evals[0]),
                    "max_eig": float(evals[-1]), "samples_used": k})
        # the upper edge alone cannot block: gaussian restriction keeps
        # directional variances <= 1, so the lower edge decides
        if evals[0] >= EIG_WINDOW[0]:
            break
        W = sym_inv_sqrt(cov.matrix)
        # W (M (x - center) - mean) = W M (x - (center + M^{-1} mean))
        center = center + np.linalg.solve(M, mean)
        M = W @ M
        current = transform_body(current, W, -W @ mean)
    else:
        warnings.warn(f"isotropy loop hit max_iters={max_iters} without "
                      "entering the eigenvalue window")
    return (M, -M @ center), current, log
