"""Discrete-time simulator of the stochastic localization process.

The time-t density is the base density tilted by exp(c.x - x.Bx/2).  The
tilt evolves by an Euler-Maruyama step dc = C^{1/2} dW + C mu dt whose
drift needs the current mean, so every step re-estimates the mean and
covariance of the tilted density and tracks scalar observables of the
covariance (tr A^2, tr A^q, the operator norm, and the barrier value u).

Estimation runs on an ensemble of k inner Metropolis chains advanced a
few steps per time step; recent ensemble snapshots are pooled with
importance reweighting to the current tilt, which cuts the observable
noise well below what one snapshot of size k could give.

At t=0 the tilt is zero and the target is the base itself.  Where the
base has an exact law (walks.exact_sample) one exact call, on the
proposal budget of the Metropolis refreshes it replaces, fills the t=0
pool with independent snapshots and the chains start from the last one.
When that budget runs out the chains start from k exact draws, and when
the base has no exact law from one warm-start point; the refreshes then
fill the pool.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtr, chndtr, gammaincc, ndtr

from .bodies import BallIntersection
from .densities import Density, Gaussian, Tilted
from .diagnostics import BallSet, HalfspaceSet
from .linalg import (CovMatrix, SingularCovarianceError, quad_rows, stieltjes_u,
                     sym_inv_sqrt)
from .parallel import parallel_map
from .rng import as_generator, as_stream
from .walks import (NoExactSampler, WalkError, advance_ensemble, default_delta,
                    exact_sample, warm_start)

__all__ = [
    "SlocError", "LocalizationState", "TrajectoryRecord", "ObservablePool",
    "sloc_init", "sloc_step", "sloc_run", "sloc_closed_form",
    "moment_inequality_check",
    "default_q", "default_h",
]

TRUNCATION_FACTOR = 10.0
MEASURE_WINDOW = (0.25, 0.75)
BALANCE_WINDOW = (0.25, 0.75)


class SlocError(RuntimeError):
    """Runtime failure inside the localization simulator."""


def default_q(n):
    """Exponent for the heavier potential tr(A^q): 2*ceil(log n), >= 2."""
    return max(2, 2 * math.ceil(math.log(max(n, 2))))


def default_h(phi0):
    """Step size min(0.01, 0.1/sqrt(phi_0))."""
    return min(0.01, 0.1 / math.sqrt(max(phi0, 1e-12)))


# ---------------------------------------------------------------------------
# pooled observable estimation


class ObservablePool:
    """Sliding window of ensemble snapshots reweighted to the current tilt.

    A snapshot drawn under tilt (c_s, B_s) is reused under (c, B) with
    weights exp((c - c_s).x - x.(B - B_s)x/2), self-normalized within the
    snapshot.  push() keeps each snapshot's own log-tilt c_s.x - x.B_s x/2;
    estimate() evaluates the current tilt on every pooled row at once and
    reduces per snapshot (max shift, normalization, ESS).  The snapshots
    then enter one weighted mean and second moment, each weighted by its
    effective sample size; a snapshot whose ESS falls under min_ess_frac of
    its size is skipped.  The freshest snapshot has unit weights and is the
    fallback when every snapshot is skipped.
    """

    def __init__(self, window=16, min_ess_frac=0.05):
        if int(window) < 1:
            raise ValueError(f"pool window must be >= 1, got {window}")
        if not 0.0 <= float(min_ess_frac) <= 1.0:
            raise ValueError(f"min_ess_frac must be in [0, 1], got {min_ess_frac}")
        self.window = int(window)
        self.min_ess_frac = float(min_ess_frac)
        self.groups = []        # (X_s, log-tilt of each row under (c_s, B_s))

    def push(self, c, B, X):
        X = np.array(X, dtype=float)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("a pool snapshot must be a nonempty (m, n) array")
        self.groups.append((X, X @ np.asarray(c, dtype=float)
                            - 0.5 * quad_rows(X, np.asarray(B, dtype=float))))
        if len(self.groups) > self.window:
            self.groups.pop(0)

    def estimate(self, c, B, tracked=()):
        """Pooled mean, covariance and tracked-set measures at tilt (c, B)."""
        if not self.groups:
            raise ValueError("estimate on an empty pool: push a snapshot first")
        X = np.concatenate([X_s for X_s, _ in self.groups])
        sizes = np.array([len(X_s) for X_s, _ in self.groups])
        starts = np.cumsum(sizes) - sizes
        logw = X @ c - 0.5 * quad_rows(X, B)
        logw -= np.concatenate([lt for _, lt in self.groups])
        logw -= np.repeat(np.maximum.reduceat(logw, starts), sizes)
        w = np.exp(logw)
        w /= np.repeat(np.add.reduceat(w, starts), sizes)
        ess = 1.0 / np.add.reduceat(w * w, starts)
        keep = ess >= self.min_ess_frac * sizes
        if not keep.any():
            keep[-1] = True
        ess = np.where(keep, ess, 0.0)
        total = float(ess.sum())
        W = w * np.repeat(ess / total, sizes)
        mu = W @ X
        cov = CovMatrix(X.T @ (X * W[:, None]) - np.outer(mu, mu))
        g = {}
        for name, E in tracked:
            val = float(W @ (E.signed_distance(X) >= 0.0))
            g[name] = (val, math.sqrt(max(val * (1.0 - val), 0.0) / total))
        return mu, cov, g, total


def _tune_inner_delta(state, gen):
    """Grow or shrink the inner proposal radius, for at most 12 rounds of
    4 steps, until the Metropolis acceptance rate lies in [1/4, 1/2];
    returns the last round's acceptance rate.

    The conservative chain default 1/sqrt(n) mixes far too slowly on
    smooth targets: successive pool snapshots stay nearly identical and
    the pooled covariance never beats single-ensemble noise.
    """
    for _ in range(12):
        rate = advance_ensemble(state.density, state.ensemble,
                                state.log_ensemble, 4, state.delta, gen)
        if rate > 0.5:
            state.delta *= 1.5
        elif rate < 0.25:
            state.delta *= 0.7
        else:
            break
    return rate


# ---------------------------------------------------------------------------
# state


@dataclass
class LocalizationState:
    base: Density            # working base density (support may be truncated)
    control: str
    q: int
    k: int
    c: np.ndarray
    B: np.ndarray
    tracked: list
    density: Density         # current tilted density
    # observables at time t, written by the refresh functions
    t: float = 0.0
    mean: np.ndarray = None
    cov: CovMatrix = None
    phi: float = math.nan
    phi_q: float = math.nan
    u: float = math.nan
    g: dict = field(default_factory=dict)
    g_se: dict = field(default_factory=dict)
    accept_rate: float = math.nan
    closed_form: bool = False
    pool: ObservablePool = None
    ensemble: np.ndarray = None
    log_ensemble: np.ndarray = None
    inner_steps: int = 8
    delta: float = 0.0
    truncation: dict = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.base.n

    def check_invariants(self):
        """Barrier and potential consistency checks; raises on violation."""
        lam = self.cov.eigvals
        if abs(self.phi - float(np.sum(lam ** 2))) > 1e-10 * max(1.0, self.phi):
            raise SlocError("cached phi disagrees with eigenvalues")
        if self.u <= self.cov.opnorm:
            raise SlocError("barrier value u is not above the operator norm")
        resid = float(np.sum((self.u - lam) ** -2.0)) - self.n
        if abs(resid) > 1e-8 * self.n:
            raise SlocError(f"barrier equation residual {resid:g}")
        if self.control == "identity":
            if np.max(np.abs(self.B - self.t * np.eye(self.n))) > 1e-12 * max(1.0, self.t):
                raise SlocError("identity control requires B = t*I")


def _normalize_tracked(tracked_sets):
    if not tracked_sets:
        return []
    if isinstance(tracked_sets, dict):
        pairs = list(tracked_sets.items())
    else:
        # a lone set, or a list of unnamed sets, is refused below
        pairs = (list(tracked_sets) if isinstance(tracked_sets, (list, tuple))
                 else [tracked_sets])
        for item in pairs:
            if not (isinstance(item, tuple) and len(item) == 2
                    and isinstance(item[0], str)):
                raise ValueError(f"tracked sets must be (name, set) pairs or a "
                                 f"dict of them, got {type(item).__name__}")
    for name, E in pairs:
        if not isinstance(E, (HalfspaceSet, BallSet)):
            raise ValueError(f"tracked set {name!r} must be a halfspace or a ball")
    return pairs


def _gaussian_set_measure(mean, var, E):
    """Measure of a halfspace or ball under N(mean, var*I)."""
    sd = math.sqrt(var)
    if isinstance(E, HalfspaceSet):
        return float(ndtr((E.s - float(E.u @ mean)) / sd))
    if isinstance(E, BallSet):
        nc = float(np.sum((mean - E.center) ** 2)) / var
        x = E.rho ** 2 / var
        # the two calls scipy.stats.ncx2.cdf makes, without importing
        # scipy.stats (about half of klslab's import time)
        if nc == 0:
            return float(chdtr(len(mean), x))
        with np.errstate(over="ignore"):
            return float(chndtr(x, len(mean), nc))
    raise ValueError("closed-form measures support halfspaces and balls only")


def _truncate_support(density, radius):
    """Intersect the support with a centered ball; returns (density, info).

    The tail mass bound is exact-family only for Gaussian bases; other
    kinds record None and rely on the radius being generous.
    """
    body = density.body
    if body.R <= radius:
        return density, None
    center = body.x0
    new_body = BallIntersection(body, radius, center=center)
    bound = None
    if isinstance(density, Gaussian):
        # |x - center|^2 is chi-square_n / a under N(center, I/a)
        gap = radius - float(np.linalg.norm(density.center - center))
        if gap > 0:
            bound = float(gammaincc(body.n / 2.0, 0.5 * density.a * gap * gap))
    return density.restricted_to(new_body), {"radius": radius, "mass_bound": bound}


def _refresh_estimates(state, gen):
    # proposal radius tracks the shrinking target so acceptance stays useful
    delta = state.delta * math.sqrt(min(1.0, max(state.cov.opnorm, 1e-12)))
    rate = advance_ensemble(state.density, state.ensemble, state.log_ensemble,
                            state.inner_steps, delta, gen)
    state.pool.push(state.c, state.B, state.ensemble)
    _assign_estimates(state, rate)


def _assign_estimates(state, rate):
    """Read the pooled observables at the current tilt into the state."""
    mu, cov, g, ess = state.pool.estimate(state.c, state.B, state.tracked)
    state.mean = mu
    state.cov = cov
    state.phi = cov.trace_sq
    state.phi_q = cov.trace_power(state.q)
    state.u = stieltjes_u(cov)
    state.g = {name: val for name, (val, _) in g.items()}
    state.g_se = {name: se for name, (_, se) in g.items()}
    state.accept_rate = rate
    state.meta["pool_ess"] = ess


def _refresh_closed_form(state):
    n = state.n
    state.mean, cov = sloc_closed_form(state.t, state.c)
    var = float(cov[0, 0])
    state.cov = CovMatrix(cov)
    state.phi = n * var * var
    state.phi_q = n * var ** state.q
    state.u = var + 1.0
    state.g = {name: _gaussian_set_measure(state.mean, var, E)
               for name, E in state.tracked}
    state.g_se = dict.fromkeys(state.g, 0.0)
    state.accept_rate = 1.0


def sloc_init(density, control="identity", tracked_sets=None, q=None, k=None,
              rng=None, inner_steps=8, window=16, init_refreshes=8,
              closed_form=False):
    """State at t=0: zero tilt, observables estimated from the base density.

    The t=0 pool holds init_refreshes snapshots of k points.  Where the
    base has an exact law, one exact_sample call draws all
    init_refreshes * k points on a budget of inner_steps rejection
    batches, which is the init_refreshes * inner_steps * k proposals the
    Metropolis refreshes it replaces would spend whenever the pool holds
    at least 256 points; the draws are split into the snapshots, the
    chains continue from the last one and only tune their proposal
    radius.  When that call raises, the k chains start from k exact
    draws, or all at one warm-start point when the base has no exact
    law, and every snapshot comes from inner_steps Metropolis steps of
    the chains.  meta["t0_pool"] records which path ran ("exact" or
    "chain").

    closed_form=True requires a standard-Gaussian base with identity
    control; mean and covariance are then supplied analytically and no
    inner sampler runs (this mode is the discretization oracle).
    """
    if control not in ("identity", "inverse_sqrt_cov"):
        raise ValueError(f"unknown control kind {control!r}")
    tracked = _normalize_tracked(tracked_sets)
    n = density.n
    q = default_q(n) if q is None else int(q)
    if q < 2:
        raise ValueError("potential exponent q must be >= 2")
    k = 64 * n if k is None else int(k)

    if closed_form:
        if not (isinstance(density, Gaussian) and density.a == 1.0
                and not np.any(density.center)):
            raise ValueError("closed-form mode needs a standard-Gaussian base")
        if control != "identity":
            raise ValueError("closed-form mode needs the identity control")
        state = LocalizationState(
            base=density, control=control, q=q, k=k,
            c=np.zeros(n), B=np.zeros((n, n)), tracked=tracked,
            density=density, closed_form=True, meta={"t0_pool": "closed_form"})
        _refresh_closed_form(state)
        _validate_measures(state)
        return state

    gen = as_generator(rng)
    work, truncation = _truncate_support(density, TRUNCATION_FACTOR * math.sqrt(n))
    refreshes = max(1, int(init_refreshes))
    inner_steps = int(inner_steps)

    try:
        snapshots = np.split(exact_sample(work, refreshes * k, gen,
                                          max_batches=inner_steps), refreshes)
    except (NoExactSampler, WalkError):
        snapshots = []
        try:
            X = exact_sample(work, k, gen)
        except (NoExactSampler, WalkError):
            X = np.tile(warm_start(work, gen), (k, 1))
    else:
        X = snapshots[-1]
    X = np.array(X, dtype=float)
    logf = work.log_density_many(X)
    if not np.all(np.isfinite(logf)):
        raise SlocError("initial ensemble contains points outside the support")

    state = LocalizationState(
        base=work, control=control, q=q, k=k,
        c=np.zeros(n), B=np.zeros((n, n)), tracked=tracked,
        density=work, pool=ObservablePool(window=window),
        ensemble=X, log_ensemble=logf,
        inner_steps=inner_steps,
        delta=default_delta(n), truncation=truncation,
        meta={"t0_pool": "exact" if snapshots else "chain"})
    for S in snapshots:
        state.pool.push(state.c, state.B, S)
    rate = _tune_inner_delta(state, gen)
    if not snapshots:
        for _ in range(refreshes):
            rate = advance_ensemble(state.density, state.ensemble,
                                    state.log_ensemble, inner_steps,
                                    state.delta, gen)
            state.pool.push(state.c, state.B, state.ensemble)
    _assign_estimates(state, rate)
    _validate_measures(state)
    return state


def _validate_measures(state):
    lo, hi = MEASURE_WINDOW
    for name, _ in state.tracked:
        val = state.g[name]
        if not (lo <= val <= hi):
            raise ValueError(
                f"tracked set {name!r} has initial measure {val:.3f}, "
                f"outside [{lo}, {hi}]")


def sloc_step(state, h, rng, noise=None):
    """One Euler-Maruyama step; mutates and returns the state.

    noise overrides the Gaussian increment (zero vector isolates the
    deterministic drift for tests).
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    gen = as_generator(rng)
    n = state.n
    if noise is None:
        gvec = gen.standard_normal(n)
    else:
        gvec = np.asarray(noise, dtype=float).reshape(n)
    sqh = math.sqrt(h)
    if state.control == "identity":
        state.c = state.c + sqh * gvec + h * state.mean
        state.B = state.B + h * np.eye(n)
    else:
        try:
            inv_sqrt = sym_inv_sqrt(state.cov.matrix)
        except SingularCovarianceError as exc:
            raise SlocError(
                f"covariance estimate is singular under inverse_sqrt_cov "
                f"control ({exc}); increase k") from exc
        inv = inv_sqrt @ inv_sqrt
        state.c = state.c + sqh * (inv_sqrt @ gvec) + h * (inv @ state.mean)
        state.B = state.B + h * inv
    state.t += h
    if state.closed_form:
        _refresh_closed_form(state)
    else:
        state.density = Tilted(state.base, state.c, state.B)
        _refresh_estimates(state, gen)
    return state


def sloc_closed_form(t, c):
    """Mean and covariance of p_t for a standard-Gaussian base.

    Completing the square in exp(c.x - t|x|^2/2 - |x|^2/2) gives
    p_t = N(c/(1+t), I/(1+t)).
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError("tilt c must be a vector")
    if t < 0:
        raise ValueError("time must be nonnegative")
    var = 1.0 / (1.0 + t)
    return c * var, var * np.eye(len(c))


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class TrajectoryRecord:
    run: int
    set_names: list
    t: np.ndarray
    phi: np.ndarray
    phi_q: np.ndarray
    opnorm: np.ndarray
    u: np.ndarray
    g: dict
    accept_rate: np.ndarray
    g_se: dict = None
    cov_list: list = None
    t0_pool: str = None

    def columns(self):
        return (["run", "t", "phi", "phi_q", "opnorm", "u"]
                + [f"g_{name}" for name in self.set_names]
                + ["accept_rate"])

    def rows(self):
        for i in range(len(self.t)):
            yield ([self.run, self.t[i], self.phi[i], self.phi_q[i],
                    self.opnorm[i], self.u[i]]
                   + [self.g[name][i] for name in self.set_names]
                   + [self.accept_rate[i]])


def _single_run(density, run_idx, stream, T, h, n_steps, record_every,
                init_kwargs, keep_cov):
    gen = stream.generator()
    state = sloc_init(density, rng=gen, **init_kwargs)
    names = [name for name, _ in state.tracked]
    recs = []
    covs = [] if keep_cov else None

    def record():
        recs.append((state.t, state.phi, state.phi_q, state.cov.opnorm, state.u,
                     state.accept_rate, *(state.g[name] for name in names),
                     *(state.g_se[name] for name in names)))
        if keep_cov:
            covs.append(state.cov.matrix.copy())

    record()
    for step in range(1, n_steps + 1):
        sloc_step(state, h, gen)
        if step % record_every == 0 or step == n_steps:
            record()
    t, phi, phi_q, opnorm, u, acc, *gs = np.array(recs, dtype=float).T
    m = len(names)
    return TrajectoryRecord(
        run=run_idx, set_names=names, t=t, phi=phi, phi_q=phi_q,
        opnorm=opnorm, u=u, g=dict(zip(names, gs[:m])), accept_rate=acc,
        g_se=dict(zip(names, gs[m:])), cov_list=covs,
        t0_pool=state.meta["t0_pool"])


def sloc_run(density, T, h=None, k=None, n_runs=1, tracked_sets=None,
             control="identity", q=None, rng=None, record_every=None,
             inner_steps=8, window=16, init_refreshes=8, closed_form=False,
             threads=1, keep_cov=False):
    """n_runs independent trajectories plus an across-run summary.

    The summary reports the t=0 pool path of the runs (see sloc_init;
    "mixed" when runs differ), per tracked set the martingale check
    (mean g_T vs g_0 in combined-se units) and the balance frequency
    (fraction of runs with g in [1/4, 3/4] at every recorded time),
    and the empirical quantiles of the potential ratios.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    stream = as_stream(rng)
    init_kwargs = dict(control=control, tracked_sets=tracked_sets, q=q, k=k,
                       inner_steps=inner_steps, window=window,
                       init_refreshes=init_refreshes, closed_form=closed_form)

    if h is None:
        probe = sloc_init(density, rng=stream.substream(n_runs).generator(),
                          **init_kwargs)
        h = default_h(probe.phi)
    if h > T:
        h = T
    n_steps = max(1, int(math.ceil(T / h - 1e-9)))
    h_eff = T / n_steps
    if record_every is None:
        record_every = max(1, int(T / (100.0 * h_eff)))

    def one(args):
        idx, sub = args
        return _single_run(density, idx, sub, T, h_eff, n_steps,
                           record_every, init_kwargs, keep_cov)

    jobs = [(i, stream.substream(i)) for i in range(n_runs)]
    records = parallel_map(one, jobs, threads=threads)
    summary = _summarize_runs(records, T, h_eff, record_every, control)
    return records, summary


def _summarize_runs(records, T, h, record_every, control):
    n_runs = len(records)
    names = records[0].set_names
    pools = {r.t0_pool for r in records}
    summary = {
        "n_runs": n_runs, "T": T, "h": h, "record_every": record_every,
        "control": control,
        "t0_pool": pools.pop() if len(pools) == 1 else "mixed",
        "phi0_mean": float(np.mean([r.phi[0] for r in records])),
        "phiT_mean": float(np.mean([r.phi[-1] for r in records])),
        "sets": {},
    }
    for key, attr in (("phi_ratio_quantiles", "phi"),
                      ("phi_q_ratio_quantiles", "phi_q")):
        ratios = np.array([getattr(r, attr)[-1] / getattr(r, attr)[0]
                           for r in records])
        summary[key] = {"q10": float(np.quantile(ratios, 0.10)),
                        "q50": float(np.quantile(ratios, 0.50)),
                        "q90": float(np.quantile(ratios, 0.90))}
    lo, hi = BALANCE_WINDOW
    all_balanced = np.ones(n_runs, dtype=bool)
    for name in names:
        G = np.stack([r.g[name] for r in records])        # runs x times
        g0 = G[:, 0]
        gT = G[:, -1]
        if n_runs > 1:
            se0 = float(np.std(g0, ddof=1) / math.sqrt(n_runs))
            seT = float(np.std(gT, ddof=1) / math.sqrt(n_runs))
            diff = G - g0[:, None]
            dev_se = np.std(diff, axis=0, ddof=1) / math.sqrt(n_runs)
            with np.errstate(invalid="ignore", divide="ignore"):
                dev_sigma = np.abs(diff.mean(axis=0)) / dev_se
            max_dev = float(np.nanmax(dev_sigma[1:])) if G.shape[1] > 1 else 0.0
        else:
            se0 = float(records[0].g_se[name][0])
            seT = float(records[0].g_se[name][-1])
            max_dev = None      # no across-run spread to scale by
        combined = math.sqrt(se0 ** 2 + seT ** 2)
        balanced = np.array([np.all((r.g[name] >= lo) & (r.g[name] <= hi))
                             for r in records])
        all_balanced &= balanced
        dev = abs(float(np.mean(gT)) - float(np.mean(g0)))
        summary["sets"][name] = {
            "g0_mean": float(np.mean(g0)), "g0_se": se0,
            "gT_mean": float(np.mean(gT)), "gT_se": seT,
            "combined_se": combined,
            "martingale_dev": dev,
            "martingale_ok": bool(dev <= 3.0 * combined) if combined > 0 else True,
            "max_dev_sigma": max_dev,
            "balance_frequency": float(np.mean(balanced)),
        }
    summary["balance_frequency_all"] = float(np.mean(all_balanced))
    return summary


# ---------------------------------------------------------------------------
# moment inequality checks


def moment_inequality_check(samples, k=3):
    """Empirical audit of three logconcave moment inequalities.

    (i)   E|x|^k <= (2k)^k (E|x|^2)^{k/2}            (pass/fail ratio)
    (ii)  E|<x~,y~>|^3 <= C tr(A^2)^{3/2}            (smallest empirical C)
    (iii) |E x~ (x~.A x~)| <= C' |A|_op^{1/2} tr(A^2) (conservative C')

    x~ denotes centered samples and A their empirical covariance.  (iii)
    reports (|v| + 5 se)/denominator: for symmetric targets the vector is
    pure noise and the se term keeps the constant stable across seeds.
    """
    if k not in (3, 4):
        raise ValueError("moment order k must be 3 or 4")
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2:
        raise ValueError("samples must be an (m, n) array")
    m, n = X.shape
    if m < 8:
        raise ValueError("need at least 8 samples")

    norms_sq = np.sum(X * X, axis=1)
    lhs = float(np.mean(norms_sq ** (k / 2.0)))
    bound = (2.0 * k) ** k * float(np.mean(norms_sq)) ** (k / 2.0)
    norm_report = {"lhs": lhs, "bound": bound, "ratio": lhs / bound,
                   "ok": bool(lhs <= bound)}

    Xc = X - X.mean(axis=0)
    A = CovMatrix(Xc.T @ Xc / m)
    tr_a2 = A.trace_sq

    # all-pairs third moment of the inner product, over blocks of Gram
    # rows of about 2^20 entries (8 MB) each, cubed in place
    row_sum = np.zeros(m)
    block = max(1, 2 ** 20 // m)
    for a in range(0, m, block):
        b = min(a + block, m)
        G = np.abs(Xc[a:b] @ Xc.T)
        H = G * G
        H *= G
        H[:, a:b][np.arange(b - a), np.arange(b - a)] = 0.0
        row_sum[a:b] += H.sum(axis=1)
    pair_mean = float(row_sum.sum() / (m * (m - 1)))
    row_means = row_sum / (m - 1)
    pair_se = 2.0 * float(np.std(row_means, ddof=1)) / math.sqrt(m)
    denom2 = tr_a2 ** 1.5
    pair_report = {"constant": pair_mean / denom2, "se": pair_se / denom2,
                   "ok": bool(np.isfinite(pair_mean / denom2))}

    quad = np.einsum("ij,jk,ik->i", Xc, A.matrix, Xc)
    W = Xc * quad[:, None]
    v = W.mean(axis=0)
    se_v = math.sqrt(float(np.sum(W.var(axis=0, ddof=1))) / m)
    denom3 = math.sqrt(A.opnorm) * tr_a2
    drift_report = {
        "norm": float(np.linalg.norm(v)),
        "se": se_v,
        "constant": (float(np.linalg.norm(v)) + 5.0 * se_v) / denom3,
        "ok": bool(np.isfinite(se_v / denom3)),
    }
    return {"m": m, "n": n, "k": k,
            "norm_moment": norm_report,
            "pair_third_moment": pair_report,
            "quadratic_drift": drift_report,
            "ok": bool(norm_report["ok"] and pair_report["ok"]
                       and drift_report["ok"])}
