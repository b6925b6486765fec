"""Empirical isoperimetry and mixing diagnostics.

Everything here consumes a cloud of samples assumed to come from the
target density (exact or well-mixed MCMC) and reports Estimate values
with standard errors.  The headline quantity is the halfspace
isoperimetric coefficient: for each direction u the 1-D marginal density
f and CDF F of u.x give the profile f(s) / min(F(s), 1 - F(s)), whose
minimum over thresholds s and directions u estimates the best halfspace
cut.  Marginal densities use a binned Gaussian KDE with the Silverman
bandwidth; CDFs are empirical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import ndimage

from .estimates import Estimate, bootstrap_se
from .rng import as_generator

_CDF_FLOOR = 0.01
_KDE_GRID = 1024
_N_BOOT = 16


def silverman_bandwidth(z):
    """0.9 min(std, IQR/1.34) N^(-1/5), the rule-of-thumb width."""
    z = np.asarray(z, dtype=float)
    return _silverman(z, np.sort(z))


def _silverman(z, zs):
    """silverman_bandwidth(z), with the quantiles read from zs = sorted z."""
    n = z.size
    std = z.std()
    q75, q25 = _sorted_quantile(zs, 0.75), _sorted_quantile(zs, 0.25)
    spread = min(std, (q75 - q25) / 1.34) if q75 > q25 else std
    if spread <= 0:
        spread = max(abs(z).max(), 1.0) * 1e-6
    return 0.9 * spread * n ** (-0.2)


def _sorted_quantile(zs, q):
    """np.quantile(zs, q) for a sorted 1-D zs, without its partition pass.

    The same linear interpolation, operation for operation: index
    v = (N - 1) q, gamma = v - floor(v), then a + (b - a) gamma, or
    b - (b - a)(1 - gamma) when gamma >= 1/2.  Python's float arithmetic
    is numpy's float64 arithmetic, so the bits are the same.
    """
    v = (zs.size - 1) * q
    i = math.floor(v)
    if i >= zs.size - 1:
        return float(zs[-1])
    a, b = float(zs[i]), float(zs[i + 1])
    gamma = v - i
    d = b - a
    return b - d * (1.0 - gamma) if gamma >= 0.5 else a + d * gamma


def _kde_1d(z, grid_size=_KDE_GRID):
    """Binned Gaussian KDE; returns (centers, density, empirical cdf).

    One sort of z feeds the bandwidth's quantiles, the grid's range, the
    bin counts and the empirical CDF; only the std reads z in its own
    order.  The counts equal np.histogram(z, edges)'s, closed last bin
    included: each edge is searched from the left, the last from the right.
    """
    z = np.asarray(z, dtype=float)
    zs = np.sort(z)
    h = _silverman(z, zs)
    lo, hi = zs[0] - 4 * h, zs[-1] + 4 * h
    edges = np.linspace(lo, hi, grid_size + 1)
    dx = edges[1] - edges[0]
    cum = np.searchsorted(zs, edges, side="left")
    cum[-1] = np.searchsorted(zs, edges[-1], side="right")
    counts = np.diff(cum)
    smooth = ndimage.gaussian_filter1d(counts.astype(float), sigma=h / dx,
                                       mode="constant", truncate=6.0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = smooth / (z.size * dx)
    cdf = np.searchsorted(zs, centers, side="right") / z.size
    return centers, density, cdf


def _profile_min(z, weight, floor=_CDF_FLOOR):
    """min over thresholds of f(s)/weight(m(s)), m = min(F(s), 1-F(s)),
    and its argmin; thresholds with m below floor are skipped."""
    centers, density, cdf = _kde_1d(z)
    m = np.minimum(cdf, 1.0 - cdf)
    ok = m >= floor
    if not np.any(ok):
        raise ValueError("all thresholds below the CDF floor; too few samples")
    ratio = density[ok] / weight(m[ok])
    i = int(np.argmin(ratio))  # first minimum = smallest threshold
    return float(ratio[i]), float(centers[ok][i])


def direction_family(samples, rng, n_random=None, n_eig=3):
    """Default scan directions: coordinate axes, random unit vectors, and
    the top covariance eigenvectors."""
    X = np.asarray(samples, dtype=float)
    rng = as_generator(rng)
    n = X.shape[1]
    n_random = n if n_random is None else n_random
    dirs = [np.eye(n)]
    if n_random > 0:
        g = rng.standard_normal((n_random, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        dirs.append(g)
    if n_eig > 0 and X.shape[0] > n:
        xc = X - X.mean(axis=0)
        cov = xc.T @ xc / X.shape[0]
        _, vecs = np.linalg.eigh(cov)
        dirs.append(vecs[:, -min(n_eig, n):].T)
    return np.vstack(dirs)


def _halfspace_scan(X, directions, rng, n_boot, weight, floor=_CDF_FLOOR):
    """Profile minima of every scan direction plus a bootstrap standard
    error of their minimum over the directions.

    Returns (directions, per-direction minima, their thresholds, se).
    """
    rng = as_generator(rng)
    if directions is None:
        directions = direction_family(X, rng)
    directions = np.asarray(directions, dtype=float)
    # one contiguous row of projections per direction
    Z = np.ascontiguousarray((X @ directions.T).T)
    per_dir = np.empty(len(Z))
    thresholds = np.empty(len(Z))
    for j, row in enumerate(Z):
        per_dir[j], thresholds[j] = _profile_min(row, weight, floor)
    boots = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, X.shape[0], size=X.shape[0])
        boots[b] = min(_profile_min(row[idx], weight, floor)[0] for row in Z)
    return directions, per_dir, thresholds, float(boots.std(ddof=1))


def halfspace_isoperimetry(samples, directions=None, rng=None,
                           n_boot=_N_BOOT, full_output=False):
    """Best halfspace cut coefficient over a family of directions.

    Returns the minimum of the per-direction profiles as an Estimate with
    a bootstrap standard error.  Ties break toward the first (smallest)
    threshold on the scan grid.
    """
    X = np.asarray(samples, dtype=float)
    directions, per_dir, thresholds, se = _halfspace_scan(
        X, directions, rng, n_boot, lambda m: m)
    best = int(np.argmin(per_dir))
    est = Estimate(float(per_dir[best]), se, X.shape[0], "halfspace_kde_min")
    if full_output:
        return est, {"per_direction": per_dir, "thresholds": thresholds,
                     "direction_index": best, "direction": directions[best]}
    return est


def log_cheeger_halfspace(samples, directions=None, rng=None, floor=_CDF_FLOOR,
                          n_boot=8):
    """Halfspace scan with the Gaussian-isoperimetry weight:
    min f(s) / (m(s) sqrt(ln(e/m(s)))), m = min(F, 1-F)."""
    X = np.asarray(samples, dtype=float)
    _, per_dir, _, se = _halfspace_scan(
        X, directions, rng, n_boot,
        lambda m: m * np.sqrt(1.0 + np.log(1.0 / m)), floor)
    return Estimate(float(per_dir.min()), se, X.shape[0], "log_cheeger_halfspace")


# ---------------------------------------------------------------------------
# explicit test-set isoperimetry via boundary shells


class HalfspaceSet:
    """{x : u.x <= s} with unit u; signed distance is exact."""

    def __init__(self, u, s):
        u = np.asarray(u, dtype=float)
        self.u = u / np.linalg.norm(u)
        self.s = float(s)
        self.label = "halfspace"

    def signed_distance(self, X):
        # positive inside
        return self.s - X @ self.u


class SlabSet:
    """{x : s1 <= u.x <= s2}."""

    def __init__(self, u, s1, s2):
        u = np.asarray(u, dtype=float)
        if s2 <= s1:
            raise ValueError("slab needs s1 < s2")
        self.u = u / np.linalg.norm(u)
        self.s1, self.s2 = float(s1), float(s2)
        self.label = "slab"

    def signed_distance(self, X):
        z = X @ self.u
        return np.minimum(z - self.s1, self.s2 - z)


class BallSet:
    """{x : |x - center| <= rho}."""

    def __init__(self, center, rho):
        self.center = np.asarray(center, dtype=float)
        self.rho = float(rho)
        self.label = "ball"

    def signed_distance(self, X):
        return self.rho - np.linalg.norm(X - self.center, axis=1)


def default_shell_width(n):
    """Default boundary-shell half width, 0.05 sqrt(n)."""
    return 0.05 * np.sqrt(n)


def subset_isoperimetry(samples, test_sets, eps=None, full_output=False):
    """Boundary-measure-to-measure ratio over explicit test sets.

    The boundary measure of S is estimated by the fraction of samples
    within distance eps of the boundary, divided by the shell width 2 eps.
    An empty shell triggers a widened retry (eps doubles, with a warning).
    Returns the minimum ratio over the sets.
    """
    X = np.asarray(samples, dtype=float)
    N, n = X.shape
    eps0 = default_shell_width(n) if eps is None else float(eps)
    rows = []
    for S in test_sets:
        d = S.signed_distance(X)
        inside = float(np.mean(d >= 0))
        m = min(inside, 1.0 - inside)
        if m == 0.0:
            raise ValueError(f"test set {S.label} has empty or full measure; "
                             "ratio undefined")
        eps = eps0
        for _ in range(6):
            shell = float(np.mean(np.abs(d) <= eps))
            if shell > 0:
                break
            warnings.warn(f"empty boundary shell for {S.label}; widening eps "
                          f"to {2 * eps:.4g}")
            eps *= 2.0
        boundary = shell / (2.0 * eps)
        ratio = boundary / m
        se_b = np.sqrt(max(shell * (1 - shell), 1.0 / N) / N) / (2.0 * eps)
        se_m = np.sqrt(m * (1 - m) / N)
        se = ratio * np.sqrt((se_b / max(boundary, 1e-300)) ** 2
                             + (se_m / m) ** 2)
        rows.append({"label": S.label, "ratio": ratio, "se": se,
                     "measure": inside, "eps": eps, "boundary": boundary})
    best = min(range(len(rows)), key=lambda i: rows[i]["ratio"])
    est = Estimate(rows[best]["ratio"], rows[best]["se"], N, "shell_subsets_min")
    if full_output:
        return est, rows
    return est


# ---------------------------------------------------------------------------
# scalar functionals


def thin_shell(samples, full_output=False):
    """sqrt(Var |x|) for near-isotropic samples; the raw variance rides
    along because downstream comparisons sometimes want it unrooted."""
    X = np.asarray(samples, dtype=float)
    r = np.linalg.norm(X, axis=1)
    N = r.size
    v = float(r.var(ddof=1))
    if v <= 0:
        raise ValueError("degenerate radius distribution")
    centered = r - r.mean()
    m4 = float(np.mean(centered**4))
    se_v = np.sqrt(max(m4 - v * v, 0.0) / N)
    est = Estimate(float(np.sqrt(v)), float(se_v / (2 * np.sqrt(v))), N,
                   "sqrt_var_norm")
    var_est = Estimate(v, float(se_v), N, "var_norm")
    if full_output:
        return est, var_est
    return est


def slicing_constant(samples, rng=None, n_boot=_N_BOOT, isotropy_tol=0.2):
    """(density at the mean)^(1/n) via a product-Gaussian KDE.

    The kernel inflates each marginal variance by h^2; the reported value
    multiplies by sqrt(1 + h^2) to undo that inflation (exact for Gaussian
    data, a controlled approximation otherwise).  Warns when the input is
    visibly non-isotropic.
    """
    X = np.asarray(samples, dtype=float)
    rng = as_generator(rng)
    N, n = X.shape
    mu = X.mean(axis=0)
    xc = X - mu
    cov = xc.T @ xc / N
    dev = np.abs(np.linalg.eigvalsh(cov) - 1.0).max()
    if dev > isotropy_tol:
        warnings.warn(f"samples deviate from isotropic position by {dev:.3f} "
                      "in operator norm; slicing estimate may be biased")
    sd = np.sqrt(np.maximum(np.diag(cov), 1e-300))
    Z = xc / sd
    h = (4.0 / (n + 2.0)) ** (1.0 / (n + 4.0)) * N ** (-1.0 / (n + 4.0))

    def point_log_density(Zm):
        sq = np.einsum("ij,ij->i", Zm, Zm)
        log_kernel = -0.5 * sq / (h * h)
        peak = log_kernel.max()
        s = np.exp(log_kernel - peak).sum()
        return (peak + np.log(s) - np.log(Zm.shape[0])
                - 0.5 * n * np.log(2 * np.pi) - n * np.log(h))

    def value_of(Zm):
        logp = point_log_density(Zm) - np.log(sd).sum()
        return np.exp(logp / n) * np.sqrt(1.0 + h * h)

    return Estimate(float(value_of(Z)), bootstrap_se(Z, value_of, rng, n_boot), N,
                    "kde_at_mean_root")


@dataclass
class TestFunction:
    """Scalar test function with an analytic gradient, both vectorized."""
    name: str
    value: callable
    grad: callable


def linear_test(u, name=None):
    u = np.asarray(u, dtype=float)
    return TestFunction(name or "linear",
                        lambda X: X @ u,
                        lambda X: np.broadcast_to(u, X.shape).copy())


def quadratic_test(Q, name=None):
    Q = 0.5 * (np.asarray(Q, dtype=float) + np.asarray(Q, dtype=float).T)
    return TestFunction(name or "quadratic",
                        lambda X: np.einsum("ij,jk,ik->i", X, Q, X),
                        lambda X: 2.0 * X @ Q)


def default_test_functions(n, rng):
    fns = [linear_test(np.eye(n)[i], f"e{i}") for i in range(min(n, 4))]
    g = rng.standard_normal(n)
    fns.append(linear_test(g / np.linalg.norm(g), "random_linear"))
    for i in range(min(n, 2)):
        Q = np.zeros((n, n))
        Q[i, i] = 1.0
        fns.append(quadratic_test(Q, f"x{i}^2"))
    fns.append(quadratic_test(np.eye(n), "norm^2"))
    if n >= 2:
        Q = np.zeros((n, n))
        Q[0, 1] = Q[1, 0] = 0.5
        fns.append(quadratic_test(Q, "x0*x1"))
    return fns


def poincare_ratio(samples, test_fn: TestFunction):
    """E |grad g|^2 / Var g for one test function."""
    X = np.asarray(samples, dtype=float)
    N = X.shape[0]
    vals = test_fn.value(X)
    var = float(vals.var(ddof=1))
    if var <= 0:
        raise ValueError(f"test function {test_fn.name} is constant on the "
                         "samples; Poincare ratio undefined")
    grads = test_fn.grad(X)
    gsq = np.einsum("ij,ij->i", grads, grads)
    num = float(gsq.mean())
    # first-order error propagation for the ratio of two sample means
    se_num = gsq.std(ddof=1) / np.sqrt(N)
    centered = vals - vals.mean()
    se_var = np.sqrt(max(np.mean(centered**4) - var * var, 0.0) / N)
    ratio = num / var
    se = ratio * np.sqrt((se_num / num) ** 2 + (se_var / var) ** 2)
    return Estimate(ratio, float(se), N, f"poincare[{test_fn.name}]")


def poincare_family_min(samples, test_fns):
    ests = [poincare_ratio(samples, f) for f in test_fns]
    i = min(range(len(ests)), key=lambda k: ests[k].value)
    best = ests[i]
    return Estimate(best.value, best.std_error, best.n_samples,
                    f"poincare_min[{test_fns[i].name}]"), ests


# ---------------------------------------------------------------------------
# theory plug-ins


def conductance_tv_bound(phi, M, t):
    """sqrt(M) (1 - phi^2/2)^t, the warm-start total-variation envelope."""
    if not (0.0 <= phi <= 1.0):
        raise ValueError("conductance phi must lie in [0, 1]")
    if M < 1.0:
        raise ValueError("warm-start parameter M must be >= 1")
    if t < 0:
        raise ValueError("step count t must be >= 0")
    return float(np.sqrt(M) * (1.0 - 0.5 * phi * phi) ** t)


def mixing_bounds(phi, M):
    """(lower, upper) mixing-time estimates 1/phi and log(M)/phi^2,
    reported with unit constants."""
    if not (0.0 < phi <= 1.0):
        raise ValueError("conductance phi must lie in (0, 1]")
    if M < 1.0:
        raise ValueError("warm-start parameter M must be >= 1")
    return (1.0 / phi, float(np.log(M)) / (phi * phi))


def ball_walk_mixing_estimate(n, psi):
    """Plug-in n^2 / psi^2 step estimate for the ball walk from a warm
    start (constants suppressed)."""
    if psi <= 0:
        raise ValueError("psi must be positive")
    return float(n * n / (psi * psi))


def lipschitz_tail_check(samples, test_fn: TestFunction, ts=None):
    """Tail table for a 1-Lipschitz statistic against exp(-t^2/(t+sqrt(n))).

    Returns rows (t, empirical tail, envelope, flag); flag marks an
    empirical tail exceeding the envelope by more than 3 binomial se.
    The envelope carries no leading constant, so flags are advisory.
    """
    X = np.asarray(samples, dtype=float)
    N, n = X.shape
    vals = test_fn.value(X)
    dev = np.abs(vals - np.median(vals))
    if ts is None:
        ts = np.linspace(0.0, 3.0 * np.sqrt(n), 13)
    rows = []
    for t in ts:
        tail = float(np.mean(dev >= t))
        env = float(np.exp(-t * t / (t + np.sqrt(n))))
        se = np.sqrt(max(tail * (1 - tail), 1.0 / N) / N)
        rows.append({"t": float(t), "tail": tail, "envelope": env,
                     "flag": bool(tail > env + 3 * se)})
    return rows


# ---------------------------------------------------------------------------
# bundled report


@dataclass
class ConstantsReport:
    psi_halfspace: Estimate
    sigma_thin_shell: Estimate
    sigma_thin_shell_variance: Estimate
    slicing_l: Estimate
    poincare_zeta: Estimate
    kappa_log_cheeger: Estimate
    psi_subsets: Optional[Estimate] = None
    n_dim: int = 0
    n_samples: int = 0
    notes: dict = field(default_factory=dict)

    def to_json_dict(self):
        out = {
            "n_dim": self.n_dim,
            "n_samples": self.n_samples,
            "psi_halfspace": self.psi_halfspace.to_json_dict(),
            "sigma_thin_shell": self.sigma_thin_shell.to_json_dict(),
            "sigma_thin_shell_variance": self.sigma_thin_shell_variance.to_json_dict(),
            "slicing_l": self.slicing_l.to_json_dict(),
            "poincare_zeta": self.poincare_zeta.to_json_dict(),
            "kappa_log_cheeger": self.kappa_log_cheeger.to_json_dict(),
        }
        if self.psi_subsets is not None:
            out["psi_subsets"] = self.psi_subsets.to_json_dict()
        if self.notes:
            out["notes"] = {k: (float(v) if np.isscalar(v) else v)
                            for k, v in self.notes.items()}
        return out


def compute_constants(samples, rng, test_sets=None) -> ConstantsReport:
    """All scalar diagnostics on one sample cloud."""
    X = np.asarray(samples, dtype=float)
    # one shared generator: sub-estimators must not replay the same stream
    rng = as_generator(rng)
    N, n = X.shape
    psi, detail = halfspace_isoperimetry(X, rng=rng, full_output=True)
    sigma, sigma_var = thin_shell(X, full_output=True)
    lhat = slicing_constant(X, rng=rng)
    zeta, _ = poincare_family_min(X, default_test_functions(n, rng))
    kappa = log_cheeger_halfspace(X, rng=rng)
    psi_sub = None
    if test_sets:
        psi_sub = subset_isoperimetry(X, test_sets)
    return ConstantsReport(
        psi_halfspace=psi,
        sigma_thin_shell=sigma,
        sigma_thin_shell_variance=sigma_var,
        slicing_l=lhat,
        poincare_zeta=zeta,
        kappa_log_cheeger=kappa,
        psi_subsets=psi_sub,
        n_dim=n,
        n_samples=N,
        notes={
            "psi_direction_index": int(detail["direction_index"]),
            "psi_threshold": float(detail["thresholds"][detail["direction_index"]]),
            "sigma_psi_product": float(sigma.value * psi.value),
        },
    )
