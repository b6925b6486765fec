"""Discrete-time simulator of the stochastic localization process.

The time-t density is the base density tilted by exp(c.x - x.Bx/2).  The
tilt evolves by an Euler-Maruyama step dc = C^{1/2} dW + C mu dt whose
drift needs the current mean, so every step re-estimates the mean and
covariance of the tilted density and tracks scalar observables of the
covariance (tr A^2, tr A^q, the operator norm, and the barrier value u).

Snapshots of k points of the tilted density go into a pool; recent
snapshots are pooled with importance reweighting to the current tilt,
which cuts the observable noise well below what one snapshot of size k
could give.

The refresh rule.  One function, _refresh, pushes count snapshots and
re-reads the observables: sloc_init calls it once at t=0, where the tilt
is zero and the target is the base itself, with count = init_refreshes,
and every sloc_step calls it with count = 1.

- Exact first.  Where the tilted density has an exact law
  (walks.exact_sample), one exact call draws all count * k points and
  splits them into the snapshots.  Its budget is inner_steps rejection
  batches of at least count * k proposals, which is what the inner_steps
  Metropolis steps of k chains per snapshot it replaces would propose.
  Under the identity control the tilt of a Gaussian base is a Gaussian,
  and the tilt of a uniform base a Gaussian restricted to its body.
- Then the ensemble.  When the density has no exact law or that budget
  runs out, each snapshot is k Metropolis chains advanced inner_steps
  steps, and the later refreshes step the chains without another exact
  call, so a failed budget is not spent again.  With no ensemble yet the
  chains start from k exact draws on the default budget, else all at one
  warm-start point.  They tune their proposal radius when they first
  run, at scale 1 while there is no covariance estimate.
- The t=0 pool is a trial of its own: sloc_init records its path as
  meta["t0_pool"] and resets it, so the first t > 0 refresh tries the
  exact law again.  meta["refresh"] records the t > 0 path: "exact",
  "chain", or "mixed" for a run that fell back after exact refreshes.
- In closed-form mode, the discretization oracle, the base is the
  standard Gaussian under the identity control and no sampler runs:
  p_t = N(c/(1+t), I/(1+t)), and the refresh writes its moments and the
  tracked sets' measures.  Both paths read "closed_form".
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtr, chndtr, gammaincc, ndtr

from .bodies import BallIntersection
from .densities import Density, Gaussian, Tilted
from .diagnostics import BallSet, HalfspaceSet
from .linalg import (CovMatrix, SingularCovarianceError, quad_rows, stieltjes_u,
                     sym_inv_sqrt)
from .rng import as_generator, as_stream
from .walks import (NoExactSampler, WalkError, advance_ensemble, default_delta,
                    exact_sample, warm_start)

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
    snapshot.  push() copies the snapshot's rows into one transposed
    block, the columns of all pooled snapshots side by side, oldest
    first, and keeps each row's own log-tilt c_s.x - x.B_s x/2; estimate()
    evaluates the current tilt on every pooled column at once and reduces
    per snapshot (max shift, normalization, ESS).  The snapshots then
    enter one weighted mean and second moment, each weighted by its
    effective sample size; a snapshot whose ESS falls under min_ess_frac
    of its size is skipped.  The freshest snapshot has unit weights and is
    the fallback when every snapshot is skipped.
    """

    def __init__(self, window=16, min_ess_frac=0.05):
        if int(window) < 1:
            raise ValueError(f"pool window must be >= 1, got {window}")
        if not 0.0 <= float(min_ess_frac) <= 1.0:
            raise ValueError(f"min_ess_frac must be in [0, 1], got {min_ess_frac}")
        self.window = int(window)
        self.min_ess_frac = float(min_ess_frac)
        self._XT = np.empty((0, 0))   # (n, capacity): pooled rows as columns
        self._logtilt = np.empty(0)   # each column's log-tilt under (c_s, B_s)
        self._spans = []              # (first column, size) per snapshot, oldest first

    @property
    def groups(self):
        """(X_s, log-tilt of each row under (c_s, B_s)) per snapshot, oldest
        first, as views into the block."""
        return [(self._XT[:, a:a + m].T, self._logtilt[a:a + m])
                for a, m in self._spans]

    def push(self, c, B, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("a pool snapshot must be a nonempty (m, n) array")
        m, n = X.shape
        if len(self._spans) == self.window:
            self._spans.pop(0)
        head = self._spans[0][0] if self._spans else 0
        tail = sum(self._spans[-1]) if self._spans else 0
        if tail + m > self._XT.shape[1]:
            # the live columns go to the front of a new block with room for
            # as many again, so a full window moves once per window pushes
            live = tail - head
            XT, logtilt = np.empty((n, 2 * (live + m))), np.empty(2 * (live + m))
            if live:
                XT[:, :live] = self._XT[:, head:tail]
                logtilt[:live] = self._logtilt[head:tail]
            self._XT, self._logtilt = XT, logtilt
            self._spans = [(a - head, size) for a, size in self._spans]
            tail = live
        cols = self._XT[:, tail:tail + m]
        cols[...] = X.T
        self._logtilt[tail:tail + m] = _log_tilt(cols, c, B)
        self._spans.append((tail, m))

    def estimate(self, c, B, tracked=()):
        """Pooled mean, covariance and tracked-set measures at tilt (c, B)."""
        if not self._spans:
            raise ValueError("estimate on an empty pool: push a snapshot first")
        head = self._spans[0][0]
        tail = sum(self._spans[-1])
        XT = self._XT[:, head:tail]
        sizes = np.array([m for _, m in self._spans])
        starts = np.array([a for a, _ in self._spans]) - head
        logw = _log_tilt(XT, c, B)
        logw -= self._logtilt[head:tail]
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
        mu = XT @ W
        cov = CovMatrix((XT * W) @ XT.T - np.outer(mu, mu))
        g = {}
        for name, E in tracked:
            val = float(W @ (E.signed_distance(XT.T) >= 0.0))
            g[name] = (val, math.sqrt(max(val * (1.0 - val), 0.0) / total))
        return mu, cov, g, total


def _log_tilt(XT, c, B):
    """c.x - x.Bx/2 for every column x of XT."""
    B = np.asarray(B, dtype=float)
    return np.asarray(c, dtype=float) @ XT - 0.5 * np.einsum("ij,ij->j", B @ XT, XT)


def _tune_inner_delta(state, scale, gen):
    """Grow or shrink the inner proposal radius from the chain default
    1/sqrt(n), for at most 12 rounds of 4 steps, until the Metropolis
    acceptance rate at radius state.delta * scale lies in [1/4, 1/2].

    The conservative chain default mixes far too slowly on smooth
    targets: successive pool snapshots stay nearly identical and the
    pooled covariance never beats single-ensemble noise.
    """
    state.delta = default_delta(state.n)
    for _ in range(12):
        rate = advance_ensemble(state.density, state.ensemble,
                                state.log_ensemble, 4, state.delta * scale, gen)
        if rate > 0.5:
            state.delta *= 1.5
        elif rate < 0.25:
            state.delta *= 0.7
        else:
            break


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
    # observables at time t, written by _refresh
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
    log_ensemble: np.ndarray = None    # None until the chains run
    inner_steps: int = 8
    delta: float = 0.0                 # 0 until the chains tune it
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
    new_body = BallIntersection(body, radius)
    bound = None
    if isinstance(density, Gaussian):
        # |x - center|^2 is chi-square_n / a under N(center, I/a)
        gap = radius - float(np.linalg.norm(density.center - center))
        if gap > 0:
            bound = float(gammaincc(body.n / 2.0, 0.5 * density.a * gap * gap))
    return density.restricted_to(new_body), {"radius": radius, "mass_bound": bound}


def _refresh(state, gen, count=1):
    """Push count snapshots of the current tilted density and re-read the
    observables, by the refresh rule in the module docstring."""
    if state.closed_form:
        var = 1.0 / (1.0 + state.t)
        state.mean = state.c * var
        state.cov = CovMatrix(var * np.eye(state.n))
        state.phi = state.n * var * var
        state.phi_q = state.n * var ** state.q
        state.u = var + 1.0
        state.g = {name: _gaussian_set_measure(state.mean, var, E)
                   for name, E in state.tracked}
        state.g_se = dict.fromkeys(state.g, 0.0)
        state.accept_rate = 1.0
        state.meta["refresh"] = "closed_form"
        return
    path = state.meta.get("refresh")
    snapshots = None
    if path in (None, "exact"):
        try:
            snapshots = np.split(exact_sample(state.density, count * state.k, gen,
                                              max_batches=state.inner_steps), count)
        except (NoExactSampler, WalkError):
            pass
    if snapshots is not None:
        state.meta["refresh"] = "exact"
        for X in snapshots:
            state.pool.push(state.c, state.B, X)
        state.ensemble, state.log_ensemble = snapshots[-1], None
        rate = 1.0
    else:
        state.meta["refresh"] = "chain" if path in (None, "chain") else "mixed"
        for _ in range(count):
            rate = _step_chains(state, gen)
            state.pool.push(state.c, state.B, state.ensemble)
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


def _step_chains(state, gen):
    """inner_steps Metropolis steps of the ensemble; the acceptance rate.

    With no ensemble yet the chains start from k exact draws, else all
    at one warm-start point.  Chains that start, or resume from an exact
    snapshot, first take their log-densities, and chains that have not
    run yet tune their radius.
    """
    if state.ensemble is None:
        try:
            state.ensemble = exact_sample(state.density, state.k, gen)
        except (NoExactSampler, WalkError):
            state.ensemble = np.tile(warm_start(state.density, gen), (state.k, 1))
    if state.log_ensemble is None:
        state.log_ensemble = state.density.log_density_many(state.ensemble)
        if not np.all(np.isfinite(state.log_ensemble)):
            raise SlocError("ensemble contains points outside the support")
    # proposal radius tracks the shrinking target so acceptance stays useful
    scale = (1.0 if state.cov is None
             else math.sqrt(min(1.0, max(state.cov.opnorm, 1e-12))))
    if not state.delta:
        _tune_inner_delta(state, scale, gen)
    return advance_ensemble(state.density, state.ensemble, state.log_ensemble,
                            state.inner_steps, state.delta * scale, gen)


def sloc_init(density, control="identity", tracked_sets=None, q=None, k=None,
              rng=None, inner_steps=8, window=16, init_refreshes=8,
              closed_form=False):
    """State at t=0: zero tilt, observables estimated from the base density.

    The t=0 pool is one refresh of init_refreshes snapshots of k points
    (see the refresh rule in the module docstring), and meta["t0_pool"]
    records its path: "exact", "chain" or "closed_form".

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
    inner_steps = int(inner_steps)
    if inner_steps < 1:
        raise ValueError("inner_steps must be >= 1")
    k = 64 * n if k is None else int(k)
    if closed_form:
        if not (isinstance(density, Gaussian) and density.a == 1.0
                and not np.any(density.center)):
            raise ValueError("closed-form mode needs a standard-Gaussian base")
        if control != "identity":
            raise ValueError("closed-form mode needs the identity control")

    gen = as_generator(rng)
    work, truncation = _truncate_support(density, TRUNCATION_FACTOR * math.sqrt(n))
    state = LocalizationState(
        base=work, control=control, q=q, k=k,
        c=np.zeros(n), B=np.zeros((n, n)), tracked=tracked,
        density=work, closed_form=closed_form, pool=ObservablePool(window=window),
        inner_steps=inner_steps, truncation=truncation)
    _refresh(state, gen, max(1, int(init_refreshes)))
    state.meta["t0_pool"] = state.meta.pop("refresh")
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
    state.density = Tilted(state.base, state.c, state.B)
    _refresh(state, gen)
    return state


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
    refresh: str = None

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
        t0_pool=state.meta["t0_pool"], refresh=state.meta["refresh"])


def sloc_run(density, T, h=None, k=None, n_runs=1, tracked_sets=None,
             control="identity", q=None, rng=None, record_every=None,
             inner_steps=8, window=16, init_refreshes=8, closed_form=False,
             threads=1, keep_cov=False):
    """n_runs independent trajectories plus an across-run summary.

    The summary reports the t=0 pool path of the runs (see sloc_init)
    and how their t > 0 snapshots were drawn (see the module docstring),
    each "mixed" when runs differ; per tracked set the martingale check
    (mean g_T vs g_0 in combined-se units) and the balance frequency
    (fraction of runs with g in [1/4, 3/4] at every recorded time),
    and the empirical quantiles of the potential ratios.

    With threads > 1 the runs go to a thread pool.  Run i draws only from
    substream i of rng and the pool's map returns results in job order,
    not completion order, so the records, and every artifact built from
    them, are the same bytes at any thread count.
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
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one, jobs))
    else:
        records = [one(job) for job in jobs]
    summary = _summarize_runs(records, T, h_eff, record_every, control)
    return records, summary


def _summarize_runs(records, T, h, record_every, control):
    n_runs = len(records)
    names = records[0].set_names

    def common(paths):
        paths = set(paths)
        return paths.pop() if len(paths) == 1 else "mixed"

    summary = {
        "n_runs": n_runs, "T": T, "h": h, "record_every": record_every,
        "control": control,
        "t0_pool": common(r.t0_pool for r in records),
        "refresh": common(r.refresh for r in records),
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

    quad = quad_rows(Xc, A.matrix)
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
