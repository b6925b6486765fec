"""Empirical isoperimetry and mixing diagnostics.

Everything here consumes a cloud of samples assumed to come from the
target density (exact or well-mixed MCMC) and reports Estimate values
with standard errors.  The headline quantity is the halfspace
isoperimetric coefficient: for each direction u the 1-D marginal density
f and CDF F of u.x give the profile f(s) / min(F(s), 1 - F(s)), whose
minimum over thresholds s and directions u estimates the best halfspace
cut.  Marginal densities use a binned Gaussian KDE with the Silverman
bandwidth; CDFs are empirical.  The scan's bootstrap resamples keep the
full sample's bandwidth and grid for each direction and redraw only the
bin counts, so a resample measures the spread of the counts, not of the
bandwidth rule.  One scan scores two weights of the smaller side's mass
m: m itself for the Cheeger coefficient psi, and m sqrt(1 + ln(1/m)),
the Gaussian-isoperimetry shape, for kappa.  Both come from one direction
family, one KDE per direction and 16 shared resamples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import ndimage

from .estimates import Estimate, bootstrap_se
from .linalg import quad_rows
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


def _kde_1d(z):
    """Binned Gaussian KDE on _KDE_GRID bins; returns (edges, sigma,
    centers, density, empirical cdf), sigma = h / dx the kernel width in
    bins.

    One sort of z feeds the bandwidth's quantiles, the grid's range, the
    bin counts and the empirical CDF; only the std reads z in its own
    order.  The counts equal np.histogram(z, edges)'s, closed last bin
    included: each edge is searched from the left, the last from the right.
    """
    z = np.asarray(z, dtype=float)
    zs = np.sort(z)
    h = _silverman(z, zs)
    lo, hi = zs[0] - 4 * h, zs[-1] + 4 * h
    edges = np.linspace(lo, hi, _KDE_GRID + 1)
    dx = edges[1] - edges[0]
    sigma = h / dx
    cum = np.searchsorted(zs, edges, side="left")
    cum[-1] = np.searchsorted(zs, edges[-1], side="right")
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = _smooth(np.diff(cum), sigma, z.size, dx)
    cdf = np.searchsorted(zs, centers, side="right") / z.size
    return edges, sigma, centers, density, cdf


def _smooth(counts, sigma, n, dx):
    """Density of n points from their bin counts along the last axis: a
    Gaussian filter sigma bins wide, over n dx."""
    smooth = ndimage.gaussian_filter1d(counts.astype(float), sigma=sigma,
                                       mode="constant", truncate=6.0, axis=-1)
    return smooth / (n * dx)


def _half_bin_keys(z, edges, centers):
    """2 b + (z > centers[b]) for each z's bin b of edges.

    Bins follow np.histogram: left-closed, the last one closed on both
    sides.  b starts as floor((z - lo) / dx) and is corrected by one step
    against edges[b] and edges[b + 1], so a value on an edge lands where
    np.histogram puts it.  The center belongs to the left half.
    """
    last = len(centers) - 1
    b = np.floor((z - edges[0]) / (edges[1] - edges[0])).astype(np.intp)
    np.clip(b, 0, last, out=b)
    b -= z < edges[b]
    b += (z >= edges[b + 1]) & (b < last)
    return 2 * b + (z > centers[b])


def _cheeger_weight(m):
    """psi's weight: the smaller side's mass m."""
    return m


def _log_cheeger_weight(m):
    """kappa's weight, the shape of Gaussian isoperimetry:
    m sqrt(1 + ln(1/m)) = m sqrt(ln(e/m))."""
    return m * np.sqrt(1.0 + np.log(1.0 / m))


# the scan's weights, psi's first
_WEIGHTS = (_cheeger_weight, _log_cheeger_weight)


def _profile_min(centers, density, cdf, weight):
    """min over thresholds of f(s)/weight(m(s)), m = min(F(s), 1-F(s)),
    and its argmin; thresholds with m below _CDF_FLOOR are skipped."""
    m = np.minimum(cdf, 1.0 - cdf)
    ok = m >= _CDF_FLOOR
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


def _halfspace_scan(X, rng):
    """Profile minima of every direction_family direction under each of
    _WEIGHTS, plus a bootstrap standard error of each weight's minimum
    over the directions.

    One KDE, grid and half-bin key set per direction and one set of
    _N_BOOT resamples serve every weight.  A resample keeps each
    direction's bandwidth and grid from the full sample and redraws only
    the counts.  Every point gets its half-bin key once; a resample's
    multiplicities (one bincount of its indices, shared by all directions)
    weight one bincount of each direction's keys.  Bin counts are left +
    right halves, and the CDF at center k is the cumulative count through
    bin k minus its right half, all exact integers.  Each weight's
    resample minima are taken over a direction's whole block of
    resamples at once; they are the entries _profile_min would compare,
    so they have its bits.

    Returns (directions, minima, thresholds, se): minima and thresholds
    are (len(_WEIGHTS), directions) arrays and se has one entry per weight.
    """
    rng = as_generator(rng)
    N = X.shape[0]
    directions = direction_family(X, rng)
    # one contiguous row of projections per direction
    Z = np.ascontiguousarray((X @ directions.T).T)
    per_dir = np.empty((len(_WEIGHTS), len(Z)))
    thresholds = np.empty((len(_WEIGHTS), len(Z)))
    grids = []
    keys = np.empty(Z.shape, dtype=np.intp)
    for j, row in enumerate(Z):
        edges, sigma, centers, density, cdf = _kde_1d(row)
        for w, weight in enumerate(_WEIGHTS):
            per_dir[w, j], thresholds[w, j] = _profile_min(
                centers, density, cdf, weight)
        grids.append((edges, sigma))
        keys[j] = _half_bin_keys(row, edges, centers)
    half = np.empty((len(Z), _N_BOOT, 2 * _KDE_GRID))
    for b in range(_N_BOOT):
        idx = rng.integers(0, N, size=N)
        mult = np.bincount(idx, minlength=N).astype(float)
        for j, key in enumerate(keys):
            half[j, b] = np.bincount(key, weights=mult, minlength=2 * _KDE_GRID)
    boots = np.full((len(_WEIGHTS), _N_BOOT), np.inf)
    for (edges, sigma), halves in zip(grids, half):
        right = halves[:, 1::2]
        counts = halves[:, 0::2] + right
        cdf = (np.cumsum(counts, axis=-1) - right) / N
        density = _smooth(counts, sigma, N, edges[1] - edges[0])
        m = np.minimum(cdf, 1.0 - cdf)
        ok = m >= _CDF_FLOOR
        if not ok.any(axis=1).all():
            raise ValueError("a resample has all thresholds below the CDF "
                             "floor; too few samples")
        # the floor keeps the masked-out thresholds finite
        m = np.maximum(m, _CDF_FLOOR)
        for w, weight in enumerate(_WEIGHTS):
            ratio = np.where(ok, density / weight(m), np.inf)
            np.minimum(boots[w], ratio.min(axis=1), out=boots[w])
    return directions, per_dir, thresholds, [float(b.std(ddof=1)) for b in boots]


def halfspace_isoperimetry(samples, rng=None, full_output=False):
    """Best halfspace cut coefficient over a family of directions.

    Returns the minimum of the per-direction profiles as an Estimate with
    a bootstrap standard error.  Ties break toward the first (smallest)
    threshold on the scan grid.  The same scan, with the same directions,
    KDEs and 16 resamples, scores the Gaussian-isoperimetry weight too:
    full_output's detail carries that minimum as "log_cheeger".
    """
    X = np.asarray(samples, dtype=float)
    N = X.shape[0]
    directions, per_dir, thresholds, se = _halfspace_scan(X, rng)
    best = int(np.argmin(per_dir[0]))
    est = Estimate(float(per_dir[0, best]), se[0], N, "halfspace_kde_min")
    if full_output:
        kappa = Estimate(float(per_dir[1].min()), se[1], N,
                         "log_cheeger_halfspace")
        return est, {"per_direction": per_dir[0], "thresholds": thresholds[0],
                     "direction_index": best, "direction": directions[best],
                     "log_cheeger": kappa}
    return est


def log_cheeger_halfspace(samples, rng=None):
    """Halfspace scan with the Gaussian-isoperimetry weight:
    min f(s) / (m(s) sqrt(ln(e/m(s)))), m = min(F, 1-F).  It is
    halfspace_isoperimetry's "log_cheeger" detail: one scan gives psi and
    this from one direction family and 16 shared resamples."""
    return halfspace_isoperimetry(samples, rng, full_output=True)[1]["log_cheeger"]


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


def slicing_constant(samples, rng=None):
    """(density at the mean)^(1/n) via a product-Gaussian KDE.

    The kernel inflates each marginal variance by h^2; the reported value
    multiplies by sqrt(1 + h^2) to undo that inflation (exact for Gaussian
    data, a controlled approximation otherwise).  Warns when the input is
    visibly non-isotropic: a covariance eigenvalue more than 0.2 from 1.
    """
    X = np.asarray(samples, dtype=float)
    rng = as_generator(rng)
    N, n = X.shape
    mu = X.mean(axis=0)
    xc = X - mu
    cov = xc.T @ xc / N
    dev = np.abs(np.linalg.eigvalsh(cov) - 1.0).max()
    if dev > 0.2:
        warnings.warn(f"samples deviate from isotropic position by {dev:.3f} "
                      "in operator norm; slicing estimate may be biased")
    sd = np.sqrt(np.maximum(np.diag(cov), 1e-300))
    Z = xc / sd
    h = (4.0 / (n + 2.0)) ** (1.0 / (n + 4.0)) * N ** (-1.0 / (n + 4.0))

    # the kernel at the mean reads only the squared norms |Z_i|^2, so the
    # bootstrap resamples those instead of the rows
    sq = np.einsum("ij,ij->i", Z, Z)

    def value_of(sqm):
        log_kernel = -0.5 * sqm / (h * h)
        peak = log_kernel.max()
        s = np.exp(log_kernel - peak).sum()
        logp = (peak + np.log(s) - np.log(sqm.size)
                - 0.5 * n * np.log(2 * np.pi) - n * np.log(h)) - np.log(sd).sum()
        return np.exp(logp / n) * np.sqrt(1.0 + h * h)

    return Estimate(float(value_of(sq)), bootstrap_se(sq, value_of, rng, _N_BOOT), N,
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
                        lambda X: quad_rows(X, Q),
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
    psi_sub = None
    if test_sets:
        psi_sub = subset_isoperimetry(X, test_sets)
    return ConstantsReport(
        psi_halfspace=psi,
        sigma_thin_shell=sigma,
        sigma_thin_shell_variance=sigma_var,
        slicing_l=lhat,
        poincare_zeta=zeta,
        kappa_log_cheeger=detail["log_cheeger"],
        psi_subsets=psi_sub,
        n_dim=n,
        n_samples=N,
        notes={
            "psi_direction_index": int(detail["direction_index"]),
            "psi_threshold": float(detail["thresholds"][detail["direction_index"]]),
            "sigma_psi_product": float(sigma.value * psi.value),
        },
    )
