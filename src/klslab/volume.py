"""Annealed volume computation, Boltzmann optimization, and cutting planes.

Volume rests on a telescoping product: a schedule of densities f_0, ...,
f_m interpolates between something analytically integrable and the
target, and each consecutive integral ratio is a cheap expectation
E_{f_i}[f_{i+1}/f_i] estimated by sampling f_i.  A schedule carries
log_start, the log-integral of f_0; _telescope multiplies exp(log_start)
by every phase ratio raised to a sign (-1 for the ball sequence's
inner-to-outer fractions) and adds the ratios' relative variances.

Schedules:
  * ball sequence: K_i = (2^{i/n} r B) intersect K, m = ceil(n log2(R/r))
    phases; each ratio lies in [1/2, 1] by construction, so a phase ratio
    estimate below 0.4 is flagged as a warning.  Each phase is drawn
    exact first (see dfk_volume).
  * exponential annealing: f_i = exp(-alpha_i |x|) on K with alpha cooled
    by the factor (1 + 1/sqrt(n)) per phase from alpha_0 down to 1/R,
    then one final phase to the uniform density.  alpha_0 is raised above
    the nominal 2n/r when needed so that the unrestricted integral
    approximates the restricted one within the truncation tolerance.
  * Gaussian cooling: the same shape with exp(-(a_i/2)|x|^2), a_0 near
    4n/r^2 cooled to 1/R^2.  The cooling factor is the exponential
    schedule's; result metadata flags this as a stand-in schedule.
    On exact draws the schedule alone bounds the relative variance of
    each phase ratio of either (_phase_bound).

Optimization anneals exp(-alpha c.x) with alpha rising by e^{1/sqrt(n)}
per phase until alpha >= n/eps, at which point the sampled mean of c.x
sits within n/alpha of the minimum.  The multiplicative step is the
exponential form of the usual (1 + 1/sqrt(n)) so that the reported phase
count is exactly ceil(sqrt(n) ln(alpha_f/alpha_0)).  Every method draws
its phases through one driver, _anneal, exact first: a phase is a
hit-and-run chain only where its density has no exact law or the exact
draw outruns its budget.  The cutting plane draws each localizer the
same way, proposing from an ellipsoid that encloses it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainccinv, gammaincc, gammaln

from .bodies import (Ball, BallIntersection, BodyError, Polytope,
                     RestrictedBody, transform_body)
from .densities import Uniform, Exponential, Gaussian, Boltzmann
from .estimates import Estimate
from .rng import as_generator
from .walks import (PROPOSALS_PER_STEP, exact_or_chain, hit_and_run_step,
                    ChainState, WalkError)

TRUNCATION_TOL = 1e-6
REL_VARIANCE_ABORT = 10.0


class VolumePhaseError(RuntimeError):
    """A phase ratio estimator became too noisy to trust."""

    def __init__(self, phase, rel_variance):
        self.phase = phase
        self.rel_variance = rel_variance
        super().__init__(
            f"phase {phase}: relative variance {rel_variance:.2f} exceeds "
            f"{REL_VARIANCE_ABORT}; schedule too aggressive")


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
    log_start: float           # log-integral of the first density
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
    return AnnealSchedule(radii, Ball(n, radii[0]).log_volume(),
                          factor=2.0 ** (1.0 / n),
                          meta={"m": m, "r": r, "R": R})


def dfk_volume(body, rng, k=1000) -> VolumeResult:
    """Volume by the ball sequence: draw k uniform points of each K_i and
    count the fraction landing in K_{i-1}.

    Every phase is exact first (_anneal): Uniform(K_i) is drawn from the
    uniform law of K or of the ball, whichever has the smaller volume,
    masked by the other's membership (a base without a closed-form law
    is drawn from its bounding ball).  The phase ratio is the hit
    fraction q, with the binomial standard error sqrt(q (1 - q) / k),
    and fresh draws make the phases independent.  A phase whose exact
    budget runs out is a hit-and-run chain from the previous phase's
    last point, which lies in K_{i-1} inside K_i, with n steps between
    samples; its standard error is the batch-means one (_batch_means_se).

    Each phase record carries "exact" and the walk's "acceptance" rate:
    NaN on an exact phase, 1.0 on a chain phase (hit-and-run moves on
    every step).  The phases stay out of to_json_dict, whose meta holds
    k and "n_exact", the count of exact phases.
    """
    sched = ball_schedule(body)
    radii = sched.params
    x0 = body.x0
    densities = [Uniform(BallIntersection(body, r)) for r in radii[1:]]
    phases = []
    draws = _anneal(densities, k, rng, x0, body.n)
    for i, (X, exact) in enumerate(draws, start=1):
        hit = np.linalg.norm(X - x0, axis=1) <= radii[i - 1]
        q = float(np.mean(hit))
        if exact:
            se = float(np.sqrt(q * (1.0 - q) / k))
            acceptance = float("nan")
        else:
            se = _batch_means_se(hit, q, int(np.sqrt(k)))
            acceptance = 1.0
        if q <= 0.0:
            raise VolumePhaseError(i, float("inf"))
        if q < 0.4:
            warnings.warn(f"phase {i}: ratio {q:.3f} below 0.4; the nesting "
                          "property looks violated empirically")
        phases.append({"phase": i, "param": float(radii[i]), "ratio": q,
                       "se": se, "acceptance": acceptance, "n_samples": k,
                       "exact": exact})
    return _telescope(sched, phases, -1, "ball_sequence",
                      {"factor": sched.factor, "k": k,
                       "n_exact": sum(p["exact"] for p in phases)})


def _batch_means_se(hit, q, batches):
    """Batch-means standard error of the hit fraction q = mean(hit) of a
    chain (Flegal and Jones 2010).

    The samples are cut into `batches` contiguous batches whose sizes
    differ by at most one.  With H_b and k_b batch b's hits and samples,
    the batch totals are the nearly independent units: se^2 = B/(B-1)
    sum_b (H_b - q k_b)^2 / k^2, the spread of the batch fractions
    weighted by k_b.  A single batch gets se 0.
    """
    batch = np.arange(hit.size) * batches // hit.size
    resid = (np.bincount(batch, weights=hit, minlength=batches)
             - q * np.bincount(batch, minlength=batches))
    scale = batches / max(batches - 1, 1)
    return float(np.sqrt(scale * np.sum(resid * resid)) / hit.size)


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
    log_start = gammaln(n + 1.0) + Ball(n).log_volume() - n * np.log(alpha0)
    return AnnealSchedule(alphas, log_start, factor=factor,
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
    return AnnealSchedule(avals, 0.5 * n * np.log(2.0 * np.pi / a0), factor=factor,
                          meta={"a0": a0, "truncation_bound": truncation,
                                "m": len(avals) - 1,
                                "schedule": "reused cooling factor"})


def _telescope(schedule, phases, sign, method, meta) -> VolumeResult:
    """exp(log_start) times each phase ratio raised to sign, with the
    delta-method standard error: the relative variances of the ratios add.

    The sum is the log variance when the phase estimates are independent,
    as fresh exact draws make them.  Chain phases, which start where the
    previous phase ended, may covary, which the sum ignores."""
    log_v = schedule.log_start
    var_log = 0.0
    for phase in phases:
        log_v += sign * np.log(phase["ratio"])
        var_log += (phase["se"] / phase["ratio"]) ** 2
    value = float(np.exp(log_v))
    return VolumeResult(value, value * float(np.sqrt(var_log)), float(log_v),
                        len(phases), method, phases, meta=meta)


def _anneal(densities, k, rng, x_start, thin):
    """The one annealing driver: yield (X, exact), k draws of each density
    in turn and whether they are exact.  A phase is one
    walks.exact_or_chain call on a budget of PROPOSALS_PER_STEP
    proposals per step of the hit-and-run chain it falls back to: 50 n
    burn-in steps from x_start, then k samples thin steps apart.  Each
    phase starts at the previous phase's last draw."""
    rng = as_generator(rng)
    for density in densities:
        X, exact = exact_or_chain(density, k, rng, x0=x_start,
                                  burn_in=50 * density.n, thin=thin,
                                  proposals_per_step=PROPOSALS_PER_STEP)
        x_start = X[-1]
        yield X, exact


def _phase_bound(cur, nxt, R):
    """A bound, proven for exact draws of cur, on the relative variance
    of an lv or cooling phase ratio y = f_next(X) / f_cur(X); inf where
    none holds.

    With Z(a) the integral of exp(-a|x|) over a body K that contains 0,
    a^n Z(a) = int 1[y in aK] e^{-|y|} dy is logconcave in a (Prekopa:
    {(a, y) : y in aK} is a convex cone).  For rates a > b,
    E y^2 / (E y)^2 = Z(a) Z(2b - a) / Z(b)^2 is then at most
    (b^2 / (a (2b - a)))^p with p = n, with equality on R^n; there is no
    bound when 2b <= a.  The Gaussian exp(-(a/2)|x|^2) gives p = n/2, as
    a^(n/2) Z(a) is logconcave and nondecreasing in sqrt(a), so
    logconcave in a.  The last phase, to the uniform density, has
    y = 1 / f_cur(X) in [1, U], U = 1 / f_cur at distance R from 0 (K
    lies in that ball), whose relative variance is at most (U - 1)^2 / 4.
    """
    if isinstance(cur, Exponential):
        a, p, log_top = cur.alpha, cur.n, cur.alpha * R
    else:
        a, p, log_top = cur.a, 0.5 * cur.n, 0.5 * cur.a * R * R
    if isinstance(nxt, Uniform):
        return math.expm1(log_top) ** 2 / 4.0
    b = nxt.alpha if isinstance(nxt, Exponential) else nxt.a
    if 2.0 * b <= a:
        return math.inf
    return (b * b / (a * (2.0 * b - a))) ** p - 1.0


def _annealed_volume(body, rng, schedule, make_density, k, thin, method):
    """lv and Gaussian cooling: telescope E[f_{i+1}/f_i] along the
    schedule, then a final phase from the last annealed density to the
    uniform one.  Every phase is exact first (_anneal).  An exact phase
    whose _phase_bound is at most REL_VARIANCE_ABORT is proven safe and
    skips the sample check; a chain phase, or an exact one with a larger
    bound (n = 1, where 2b = a), raises VolumePhaseError when its sample
    relative variance exceeds REL_VARIANCE_ABORT.  The sample statistic
    of exact draws measures tail noise only: lv's phase-0 ratio has no
    finite fourth moment without the body's truncation, so it crosses
    the threshold on some seeds while the true variance stays bounded.

    Each phase record carries "exact" and "acceptance", NaN on an exact
    phase and 1.0 on a chain phase, and meta "n_exact", the count of
    exact phases, as dfk_volume's do."""
    centered = _centered(body)
    n = centered.n
    thin = max(1, n // 2) if thin is None else int(thin)
    densities = [make_density(centered, p) for p in schedule.params]
    densities.append(Uniform(centered))
    phases = []
    draws = _anneal(densities[:-1], k, rng, np.zeros(n), thin)
    for i, (X, exact) in enumerate(draws):
        est = ratio_estimator(X, densities[i + 1], densities[i])
        proven = exact and _phase_bound(densities[i], densities[i + 1],
                                        centered.R) <= REL_VARIANCE_ABORT
        if not proven:
            rel_var = ((est.std_error * np.sqrt(k) / est.value) ** 2
                       if est.value > 0 else float("inf"))
            if rel_var > REL_VARIANCE_ABORT:
                raise VolumePhaseError(i, rel_var)
        phases.append({"phase": i, "param": float(schedule.params[i]),
                       "ratio": est.value, "se": est.std_error,
                       # a chain phase moves on every hit-and-run step
                       "acceptance": float("nan") if exact else 1.0,
                       "n_samples": k, "exact": exact})
    return _telescope(schedule, phases, 1, method,
                      dict(schedule.meta, factor=schedule.factor, k=k,
                           n_exact=sum(p["exact"] for p in phases)))


def lv_annealing_volume(body, rng, k=1000, thin=None) -> VolumeResult:
    """Volume by exponential-rate annealing, each phase exact first
    (_annealed_volume); thin spaces the samples of a chain phase."""
    return _annealed_volume(body, rng, exponential_schedule(body), Exponential,
                            k, thin, "exponential_annealing")


def gaussian_cooling_volume(body, rng, k=1000) -> VolumeResult:
    """Volume by Gaussian cooling, each phase exact first
    (_annealed_volume)."""
    return _annealed_volume(body, rng, gaussian_cooling_schedule(body), Gaussian,
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
    phase statistics, and the full value trace; meta["n_exact"] counts
    the phases drawn exactly.

    Each phase is exact first (_anneal): k points of exp(-alpha c.x),
    drawn exactly where the body has that law (an axis cube, or a cube
    cut by halfspaces), else by a hit-and-run chain from where the
    previous phase ended, 50 n burn-in steps and then max(1, n // 2)
    steps between samples.  A body without the law raises NoExactSampler
    before any draw, so its chains see the same stream as a chain-only
    run.
    """
    c = np.asarray(c, dtype=float).reshape(body.n)
    n = body.n
    alphas, a0, a_f = optimize_schedule(n, body.R, float(np.linalg.norm(c)),
                                        eps, alpha0)
    best_x, best_val = body.x0.copy(), float(c @ body.x0)
    trace = []
    n_exact = 0
    densities = [Boltzmann(body, alpha, c) for alpha in alphas]
    draws = _anneal(densities, k, rng, body.x0, max(1, n // 2))
    for j, (alpha, (X, exact)) in enumerate(zip(alphas, draws)):
        n_exact += exact
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
                                "eps": eps, "k": k, "n_exact": n_exact})


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
    """Membership/separation oracle of a Ball or a Polytope; any other kind
    raises, a RestrictedBody too (its rows A, b are only its cuts)."""
    if isinstance(body, Ball):
        def oracle(x):
            d = x - body.center
            dist = float(np.linalg.norm(d))
            if dist <= body.radius:
                return None
            a = d / dist
            return a, float(a @ body.center) + body.radius
        return oracle
    if isinstance(body, Polytope):
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
    halfspaces), queries the oracle at the sampled mean of the localizer,
    and stops after ceil(3 n ln(R/r)) iterations.  Works whenever K
    contains a ball of radius r inside the initial ball.  Each iteration
    draws m = 10 n uniform points of the localizer in one exact_or_chain
    call, on a budget of PROPOSALS_PER_STEP proposals per step of the
    fallback hit-and-run chain, 50 n burn-in steps from the last interior
    point and then m samples 2 steps apart.  The exact law proposes from
    an ellipsoid that encloses the localizer (_enclose_cuts), or from the
    ball while that is smaller, and masks by the ball and the cuts.  The
    ball alone would accept at the localizer's share of its volume, which
    shrinks with every cut until the budget runs out and the chain takes
    over at a cost that varies from seed to seed.
    """
    center = np.zeros(n)
    rng = as_generator(rng)
    m_per_iter = 10 * n if m_per_iter is None else int(m_per_iter)
    max_iters = int(np.ceil(3.0 * n * np.log(R / r))) if max_iters is None else int(max_iters)
    outer = RestrictedBody(Ball(n, R, center), np.zeros((0, n)), np.zeros(0), center)
    x_interior = center.copy()
    ell_center, ell_shape = center.copy(), R * R * np.eye(n)
    trace = []
    for it in range(max_iters):
        ellipsoid = transform_body(Ball(n), np.linalg.cholesky(ell_shape), ell_center)
        localizer = RestrictedBody(BallIntersection(ellipsoid, R, center),
                                   outer.A, outer.b, x_interior)
        X, _ = exact_or_chain(Uniform(localizer), m_per_iter, rng, x0=x_interior,
                              burn_in=50 * n, thin=2,
                              proposals_per_step=PROPOSALS_PER_STEP)
        x_bar = X.mean(axis=0)
        if not outer.contains(x_bar):
            # convexity guarantees this; numerical slack can break it at the
            # boundary, in which case fall back to the last sample
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
        ell_center, ell_shape = _enclose_cuts(ell_center, ell_shape, outer.A, outer.b)
    return CutPlaneResult(False, x_interior, max_iters, trace,
                          meta={"max_iters": max_iters})


def _enclose_cuts(c, P, A, b):
    """The ellipsoid {(x - c)^T P^{-1} (x - c) <= 1} after the deep-cut
    step of the ellipsoid method with each row a . x <= beta of A, b,
    newest first.

    A step maps the ellipsoid to the least-volume one that contains its
    part on the kept side, so whatever the ellipsoid contains of the
    cuts' intersection it keeps.  The newest cut runs first; the older
    ones follow, since the shrunken ellipsoid may reach past them again.
    A cut at depth alpha = (a . c - beta) / |a|_P, in ellipsoid radii
    beyond the center, changes nothing unless -1/n < alpha < 1: below,
    the least-volume ellipsoid is the old one; at 1 or more, the kept
    part is at most a point, which a valid cut of a localizer with an
    interior point never leaves.  In one dimension the step's
    n^2 / (n^2 - 1) is undefined, and the ellipsoid stays as it is.
    """
    n = len(c)
    if n == 1:
        return c, P
    for a, beta in zip(A[::-1], b[::-1]):
        Pa = P @ a
        norm = math.sqrt(float(a @ Pa))
        alpha = (float(a @ c) - beta) / norm
        if not -1.0 / n < alpha < 1.0:
            continue
        tau = (1.0 + n * alpha) / (n + 1.0)
        sigma = 2.0 * tau / (1.0 + alpha)
        delta = n * n * (1.0 - alpha * alpha) / (n * n - 1.0)
        c = c - tau * Pa / norm
        P = delta * (P - sigma * np.outer(Pa, Pa) / (norm * norm))
    return c, P


def _interior_after_cut(outer, retained, X, x_bar, a, b, rng):
    """A point of the localizer strictly inside the new halfspace."""
    if retained.shape[0]:
        margins = b - retained @ a
        return retained[int(np.argmax(margins))].copy()
    # no sample survived, so x_bar and every sample lie strictly beyond
    # the cut (s_need > 0): cast rays toward the kept side.  From a point p
    # inside the localizer the segment along -a between the cut plane
    # (distance s_need) and the wall (distance hi) lies in the sliver, so
    # any candidate with hi > s_need gives an interior point exactly.
    norm_a = float(np.linalg.norm(a))
    d = -a / norm_a
    order = np.argsort(X @ a)  # least-violating candidates first
    for p in [x_bar, *X[order]]:
        p = np.asarray(p, dtype=float)
        s_need = (float(a @ p) - b) / norm_a
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
