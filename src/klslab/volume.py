"""Annealed volume computation, Boltzmann optimization, and cutting planes.

All three share the telescoping-product idea: a schedule of densities
f_0, ..., f_m interpolates between something analytically integrable and
the target, and each consecutive integral ratio is a cheap expectation
E_{f_i}[f_{i+1}/f_i] estimated by sampling f_i.

Schedules:
  * ball sequence: K_i = (2^{i/n} r B) intersect K, m = ceil(n log2(R/r))
    phases; each ratio lies in [1/2, 1] by construction, so a phase ratio
    estimate below 0.4 is flagged as a warning.
  * exponential annealing: f_i = exp(-alpha_i |x|) on K with alpha cooled
    by the factor (1 + 1/sqrt(n)) per phase from alpha_0 down to 1/R,
    then one final phase to the uniform density.  alpha_0 is raised above
    the nominal 2n/r when needed so that the unrestricted integral
    approximates the restricted one within the truncation tolerance.
  * Gaussian cooling: the same shape with exp(-(a_i/2)|x|^2), a_0 near
    4n/r^2 cooled to 1/R^2.  The cooling factor is the exponential
    schedule's; result metadata flags this as a stand-in schedule.

Optimization anneals exp(-alpha c.x) with alpha rising by e^{1/sqrt(n)}
per phase until alpha >= n/eps, at which point the sampled mean of c.x
sits within n/alpha of the minimum.  The multiplicative step is the
exponential form of the usual (1 + 1/sqrt(n)) so that the reported phase
count is exactly ceil(sqrt(n) ln(alpha_f/alpha_0)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainccinv, gammaincc, gammaln

from .bodies import (Ball, BallIntersection, BodyError, RestrictedBody,
                     transform_body)
from .densities import Uniform, Exponential, Gaussian, Boltzmann
from .estimates import Estimate
from .rng import as_generator
from .walks import (run_chain, exact_sample, default_delta, advance_ensemble,
                    hit_and_run_step, ChainState, WalkError)

TRUNCATION_TOL = 1e-6
REL_VARIANCE_ABORT = 10.0
# lockstep chains per dfk phase
DFK_CHAINS = 64


class VolumePhaseError(RuntimeError):
    """A phase ratio estimator became too noisy to trust."""

    def __init__(self, phase, rel_variance):
        self.phase = phase
        self.rel_variance = rel_variance
        super().__init__(
            f"phase {phase}: relative variance {rel_variance:.2f} exceeds "
            f"{REL_VARIANCE_ABORT}; schedule too aggressive")


def log_ball_volume(n):
    """log volume of the n-dimensional unit ball."""
    return 0.5 * n * np.log(np.pi) - gammaln(0.5 * n + 1.0)


def ratio_estimator(samples, f_next, f_cur) -> Estimate:
    """E[f_next(X)/f_cur(X)] over samples X from f_cur.

    Estimates the integral ratio of the two unnormalized densities.
    Raises when every ratio vanishes (disjoint supports).
    """
    X = np.asarray(samples, dtype=float)
    ly = f_next.log_density_many(X) - f_cur.log_density_many(X)
    if np.all(np.isneginf(ly)):
        raise ValueError("ratio estimator saw only zero weights; "
                         "densities have effectively disjoint support")
    y = np.exp(ly)
    n = y.size
    se = float(y.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return Estimate(float(y.mean()), se, n, "phase_ratio")


@dataclass
class AnnealSchedule:
    params: np.ndarray         # radii for the ball sequence, rates otherwise
    factor: float = 1.0
    meta: dict = field(default_factory=dict)


@dataclass
class VolumeResult:
    value: float
    std_error: float
    log_value: float
    n_phases: int
    method: str
    phases: list
    meta: dict = field(default_factory=dict)

    @property
    def estimate(self):
        total = sum(p.get("n_samples", 0) for p in self.phases)
        return Estimate(self.value, self.std_error, total, self.method)

    def to_json_dict(self):
        return {"value": self.value, "se": self.std_error,
                "log_value": self.log_value, "n_phases": self.n_phases,
                "method": self.method, "meta": self.meta}


def _centered(body):
    """Translate the body so its interior anchor sits at the origin."""
    if np.allclose(body.x0, 0.0):
        return body
    return transform_body(body, np.eye(body.n), -body.x0)


# ---------------------------------------------------------------------------
# ball-sequence volume


def ball_schedule(body) -> AnnealSchedule:
    n, r, R = body.n, body.r, body.R
    if r <= 0:
        raise ValueError("body needs a positive inscribed radius")
    m = int(np.ceil(n * np.log2(R / r))) if R > r else 0
    radii = r * np.exp2(np.arange(m + 1) / n)
    return AnnealSchedule(radii, factor=2.0 ** (1.0 / n),
                          meta={"m": m, "r": r, "R": R})


def dfk_volume(body, rng, k=1000) -> VolumeResult:
    """Volume by the ball sequence: sample each K_i uniformly with the
    ball walk and count the fraction landing in K_{i-1}.

    K = min(k, DFK_CHAINS) chains walk in lockstep (walks.advance_ensemble).
    They start from K exact draws in K_1 and carry their states from each
    phase into the next.  In every phase each chain first takes 50 n ball
    walk steps of size default_delta(n), then ceil(k / K) samples n steps
    apart; the first k samples give the phase ratio.
    """
    sched = ball_schedule(body)
    radii = sched.params
    n = body.n
    rng = as_generator(rng)
    x0 = body.x0
    thin = n
    burn_in = 50 * n
    delta = default_delta(n)
    chains = min(int(k), DFK_CHAINS)
    per_chain = -(-int(k) // chains)
    log_v = log_ball_volume(n) + n * np.log(radii[0])
    var_log = 0.0
    phases = []
    X = None
    for i in range(1, len(radii)):
        density_i = Uniform(BallIntersection(body, radii[i], x0))
        if X is None:
            # exact start: K_1 fills at least half of its bounding ball
            X = exact_sample(density_i, chains, rng)
        logf = density_i.log_density_many(X)
        accepted = burn_in * advance_ensemble(density_i, X, logf, burn_in,
                                              delta, rng)
        samples = np.empty((per_chain, chains, n))
        for j in range(per_chain):
            accepted += thin * advance_ensemble(density_i, X, logf, thin, delta, rng)
            samples[j] = X
        samples = samples.reshape(-1, n)[:k]
        q = float(np.mean(np.linalg.norm(samples - x0, axis=1) <= radii[i - 1]))
        if q <= 0.0:
            raise VolumePhaseError(i, float("inf"))
        if q < 0.4:
            warnings.warn(f"phase {i}: ratio {q:.3f} below 0.4; the nesting "
                          "property looks violated empirically")
        se_q = np.sqrt(q * (1 - q) / k)
        log_v -= np.log(q)
        var_log += (se_q / q) ** 2
        phases.append({"phase": i, "param": float(radii[i]), "ratio": q,
                       "se": float(se_q),
                       "acceptance": accepted / (burn_in + per_chain * thin),
                       "n_samples": k})
    value = float(np.exp(log_v))
    return VolumeResult(value, value * float(np.sqrt(var_log)), float(log_v),
                        len(radii) - 1, "ball_sequence", phases,
                        meta={"factor": sched.factor, "k": k, "chains": chains})


# ---------------------------------------------------------------------------
# exponential annealing (cooled rates) and Gaussian cooling


def _cooling(v0, span, end, n):
    """Values v0 f^-i, i = 0..m, for the cooling factor f = 1 + 1/sqrt(n).

    m starts at ceil(log(span) / log(f)), at least 1, and grows until the
    last value is at most end.  Returns (values, f).
    """
    factor = 1.0 + 1.0 / np.sqrt(n)
    m = max(int(np.ceil(np.log(span) / np.log(factor))), 1)
    while True:
        vals = v0 * factor ** (-np.arange(m + 1, dtype=float))
        if vals[-1] <= end:
            return vals, factor
        m += 1


def exponential_schedule(body) -> AnnealSchedule:
    """Rates alpha_0 > ... > alpha_m with alpha_0 ~ 2n/r and alpha_m <= 1/R.

    alpha_0 is raised when 2n/r leaves more than TRUNCATION_TOL of the
    unrestricted exp(-alpha_0 |x|) mass outside the inscribed ball, so the
    analytic phase-0 integral is valid to that tolerance.
    """
    n, r, R = body.n, body.r, body.R
    if r <= 0:
        raise ValueError("body needs a positive inscribed radius")
    alpha0 = max(2.0 * n / r, float(gammainccinv(n, TRUNCATION_TOL)) / r)
    alphas, factor = _cooling(alpha0, alpha0 * R, 1.0 / R, n)
    truncation = float(gammaincc(n, alpha0 * r))
    return AnnealSchedule(alphas, factor=factor,
                          meta={"alpha0": alpha0, "truncation_bound": truncation,
                                "m": len(alphas) - 1})


def gaussian_cooling_schedule(body) -> AnnealSchedule:
    """Gaussian coefficients a_0 ~ 4n/r^2 cooled to a_m <= 1/R^2.

    Reuses the exponential schedule's cooling factor; metadata records
    that this is a stand-in schedule rather than an accelerated one.
    Requires a well-rounded body (R/r <= 4 sqrt(n)).
    """
    n, r, R = body.n, body.r, body.R
    if r <= 0:
        raise ValueError("body needs a positive inscribed radius")
    if R / r > 4.0 * np.sqrt(n):
        raise ValueError(f"body not well-rounded: R/r = {R / r:.2f} exceeds "
                         f"4.0 sqrt(n) = {4.0 * np.sqrt(n):.2f}")
    a0 = max(4.0 * n / (r * r), 2.0 * float(gammainccinv(0.5 * n, TRUNCATION_TOL)) / (r * r))
    avals, factor = _cooling(a0, a0 * R * R, 1.0 / (R * R), n)
    truncation = float(gammaincc(0.5 * n, 0.5 * a0 * r * r))
    return AnnealSchedule(avals, factor=factor,
                          meta={"a0": a0, "truncation_bound": truncation,
                                "m": len(avals) - 1,
                                "schedule": "reused cooling factor"})


def _annealed_volume(body, rng, schedule, make_density, log_f0_integral,
                     k, thin, method):
    """Common driver: telescope E[f_{i+1}/f_i] along the schedule, then a
    final phase from the last annealed density to the uniform one."""
    centered = _centered(body)
    n = centered.n
    rng = as_generator(rng)
    thin = max(1, n // 2) if thin is None else int(thin)
    burn_in = 50 * n
    params = schedule.params
    log_v = log_f0_integral
    var_log = 0.0
    phases = []
    x_start = np.zeros(n)
    densities = [make_density(centered, p) for p in params]
    densities.append(Uniform(centered))
    labels = list(params) + [0.0]
    for i in range(len(densities) - 1):
        f_cur, f_next = densities[i], densities[i + 1]
        X = run_chain(f_cur, x_start, k, burn_in=burn_in, thin=thin, rng=rng)
        x_start = X[-1].copy()
        est = ratio_estimator(X, f_next, f_cur)
        rel_var = (est.std_error * np.sqrt(k) / est.value) ** 2 if est.value > 0 else float("inf")
        if rel_var > REL_VARIANCE_ABORT:
            raise VolumePhaseError(i, rel_var)
        log_v += np.log(est.value)
        var_log += (est.std_error / est.value) ** 2
        phases.append({"phase": i, "param": float(labels[i]),
                       "ratio": est.value, "se": est.std_error,
                       # hit-and-run moves on every step
                       "acceptance": 1.0, "n_samples": k})
    value = float(np.exp(log_v))
    return VolumeResult(value, value * float(np.sqrt(var_log)), float(log_v),
                        len(densities) - 1, method, phases,
                        meta=dict(schedule.meta, factor=schedule.factor, k=k))


def lv_annealing_volume(body, rng, k=1000, thin=None) -> VolumeResult:
    """Volume by exponential-rate annealing with hit-and-run sampling."""
    sched = exponential_schedule(body)
    n = body.n
    alpha0 = sched.meta["alpha0"]
    log_f0 = gammaln(n + 1.0) + log_ball_volume(n) - n * np.log(alpha0)
    return _annealed_volume(body, rng, sched,
                            lambda b, a: Exponential(b, a), log_f0,
                            k, thin, "exponential_annealing")


def gaussian_cooling_volume(body, rng, k=1000) -> VolumeResult:
    """Volume by Gaussian cooling with hit-and-run sampling."""
    sched = gaussian_cooling_schedule(body)
    n = body.n
    a0 = sched.meta["a0"]
    log_f0 = 0.5 * n * np.log(2.0 * np.pi / a0)
    return _annealed_volume(body, rng, sched,
                            lambda b, a: Gaussian(b, a), log_f0,
                            k, None, "gaussian_cooling")


# ---------------------------------------------------------------------------
# annealed optimization


@dataclass
class OptimizeResult:
    best_x: np.ndarray
    best_value: float
    final_bound_gap: float      # n / alpha_final
    n_phases: int
    alphas: np.ndarray
    trace: list
    meta: dict = field(default_factory=dict)


def optimize_schedule(n, R, c_norm, eps, alpha0=None):
    """Rising Boltzmann rates alpha_j = alpha_0 e^{j/sqrt(n)} up to n/eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    alpha_f = n / eps
    if alpha0 is None:
        alpha0 = 1.0 / (2.0 * R * c_norm)
    if alpha0 >= alpha_f:
        raise ValueError(f"alpha0 = {alpha0:g} is not below the target rate "
                         f"n/eps = {alpha_f:g}")
    m = int(np.ceil(np.sqrt(n) * np.log(alpha_f / alpha0)))
    alphas = alpha0 * np.exp(np.arange(1, m + 1, dtype=float) / np.sqrt(n))
    return alphas, alpha0, alpha_f


def anneal_optimize(body, c, eps, rng, k=500, alpha0=None) -> OptimizeResult:
    """Minimize c.x over the body by annealed Boltzmann sampling.

    Rates rise by e^{1/sqrt(n)} per phase until alpha >= n/eps; at the
    final rate the sampled mean of c.x lies within n/alpha of the true
    minimum in expectation.  Returns the best sampled point, the final
    phase statistics, and the full value trace.
    """
    c = np.asarray(c, dtype=float).reshape(body.n)
    n = body.n
    rng = as_generator(rng)
    thin = max(1, n // 2)
    burn_in = 50 * n
    alphas, a0, a_f = optimize_schedule(n, body.R, float(np.linalg.norm(c)),
                                        eps, alpha0)
    x_start = body.x0.copy()
    best_x, best_val = x_start.copy(), float(c @ x_start)
    trace = []
    for j, alpha in enumerate(alphas):
        density = Boltzmann(body, alpha, c)
        X = run_chain(density, x_start, k, burn_in=burn_in, thin=thin, rng=rng)
        x_start = X[-1].copy()
        vals = X @ c
        i_best = int(np.argmin(vals))
        if vals[i_best] < best_val:
            best_val = float(vals[i_best])
            best_x = X[i_best].copy()
        trace.append({"phase": j, "alpha": float(alpha),
                      "mean_objective": float(vals.mean()),
                      "se_objective": float(vals.std(ddof=1) / np.sqrt(k)),
                      "best_so_far": best_val, "n_samples": k})
    return OptimizeResult(best_x, best_val, n / float(alphas[-1]),
                          len(alphas), alphas, trace,
                          meta={"alpha0": a0, "alpha_target": a_f,
                                "eps": eps, "k": k})


# ---------------------------------------------------------------------------
# cutting-plane feasibility


class OracleInconsistencyError(RuntimeError):
    pass


@dataclass
class CutPlaneResult:
    found: bool
    point: np.ndarray
    n_iterations: int
    trace: list
    meta: dict = field(default_factory=dict)


def separation_oracle_for(body):
    """Membership/separation oracle for bodies with analytic separators."""
    if isinstance(body, Ball):
        def oracle(x):
            d = x - body.center
            dist = float(np.linalg.norm(d))
            if dist <= body.radius:
                return None
            a = d / dist
            return a, float(a @ body.center) + body.radius
        return oracle
    if hasattr(body, "A") and hasattr(body, "b"):
        def oracle(x):
            slack = body.A @ x - body.b
            i = int(np.argmax(slack))
            if slack[i] <= 0.0:
                return None
            a = body.A[i]
            norm = np.linalg.norm(a)
            return a / norm, float(body.b[i]) / norm
        return oracle
    raise ValueError(f"no analytic separation oracle for body kind {body.kind!r}")


def cutting_plane_feasibility(oracle, n, R, r, rng, m_per_iter=None,
                              max_iters=None, target_body=None) -> CutPlaneResult:
    """Find a point of a convex set K given only a separation oracle.

    Maintains an outer localizer (ball of radius R cut by the returned
    halfspaces), queries the oracle at the sampled mean of the localizer
    (m = 10 n hit-and-run samples), and stops after ceil(3 n ln(R/r))
    iterations.  Works whenever K contains a ball of radius r inside the
    initial ball.
    """
    center = np.zeros(n)
    rng = as_generator(rng)
    m_per_iter = 10 * n if m_per_iter is None else int(m_per_iter)
    max_iters = int(np.ceil(3.0 * n * np.log(R / r))) if max_iters is None else int(max_iters)
    outer = RestrictedBody(Ball(n, R, center), np.zeros((0, n)), np.zeros(0), center)
    x_interior = center.copy()
    trace = []
    for it in range(max_iters):
        X = run_chain(Uniform(outer), x_interior, m_per_iter, burn_in=50 * n,
                      thin=2, rng=rng)
        x_bar = X.mean(axis=0)
        if not outer.contains(x_bar):
            # convexity guarantees this; numerical slack can break it at the
            # boundary, in which case fall back to the chain's end point
            x_bar = X[-1].copy()
        answer = oracle(x_bar)
        if answer is None:
            if target_body is not None and not target_body.contains(x_bar):
                raise OracleInconsistencyError(
                    "oracle accepted a point outside the target body")
            trace.append({"iteration": it, "discarded": 0.0,
                          "retained": m_per_iter, "feasible": True})
            return CutPlaneResult(True, x_bar, it + 1, trace,
                                  meta={"max_iters": max_iters})
        a, b = answer
        a = np.asarray(a, dtype=float)
        if float(a @ x_bar) <= b:
            raise OracleInconsistencyError(
                "separating halfspace does not separate the query point")
        margins = b - X @ a
        retained = X[margins >= 0]
        discarded = 1.0 - retained.shape[0] / m_per_iter
        trace.append({"iteration": it, "discarded": float(discarded),
                      "retained": int(retained.shape[0]), "feasible": False})
        x_interior = _interior_after_cut(outer, retained, X, x_bar, a, b, rng)
        outer = outer.with_cut(a, b, x_interior)
    return CutPlaneResult(False, x_interior, max_iters, trace,
                          meta={"max_iters": max_iters})


def _interior_after_cut(outer, retained, X, x_bar, a, b, rng):
    """A point of the localizer strictly inside the new halfspace."""
    if retained.shape[0]:
        margins = b - retained @ a
        return retained[int(np.argmax(margins))].copy()
    # no sample survived: cast rays toward the kept side.  From a point p
    # inside the localizer the segment along -a between the cut plane
    # (distance s_need) and the wall (distance hi) lies in the sliver, so
    # any candidate with hi > s_need gives an interior point exactly.
    norm_a = float(np.linalg.norm(a))
    d = -a / norm_a
    order = np.argsort(X @ a)  # least-violating candidates first
    for p in [x_bar, *X[order]]:
        p = np.asarray(p, dtype=float)
        s_need = (float(a @ p) - b) / norm_a
        if s_need < 0:
            return p.copy()
        try:
            _, hi = outer.chord(p, d)
        except BodyError:
            continue
        if hi > s_need:
            return p + 0.5 * (s_need + hi) * d
    # last resort: random steps until one lands on the kept side
    state = ChainState(x=x_bar.copy())
    for _ in range(200):
        hit_and_run_step(Uniform(outer), state, rng)
        if float(a @ state.x) < b:
            return state.x.copy()
    raise WalkError("could not find an interior point after the cut")
