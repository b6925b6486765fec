"""Geometric random walks over logconcave densities.

run_chain(density, x0, n_samples, walk=...) is the one way to run a
chain; walk names the step: "ball_walk" (uniform targets only),
"metropolis", "hit_and_run" or "coordinate_hit_and_run".  Draws are
exact first: exact_or_chain makes one budgeted exact_sample call, and
runs the hit-and-run chain it replaces only on NoExactSampler (no exact
law) or WalkError (the budget ran out); warm_start is its one-point
case.  A tilt exp(c.x - t|x|^2/2) of a Gaussian, or of a uniform density
with t > 0, is a Gaussian on the same body and has its exact law.  On
an axis cube a Gaussian, or a Boltzmann density exp(-alpha c.x), is
drawn coordinatewise by inverse CDF: truncated normals or truncated
exponentials.  The uniform law and the volume belong to the body
(Body.uniform_law, log_volume): closed form on balls, axis cubes, the
simplex and their affine images, ellipsoids included.  A Gaussian or
an Exponential on one of those bodies is drawn by rejection from
whichever of two envelopes, its unrestricted law or the body's uniform
law, accepts more.  Uniform on such a body cut by a ball (a
BallIntersection, the dfk phase body) is drawn the same way, from the
uniform law of the body or of the ball, whichever has the smaller
volume, masked by the other's membership.  A density on a
RestrictedBody (a base body cut by halfspaces, such as a needle cell)
has the law of the same density on the base, conditioned on the cuts:
its base's exact law, with the cuts as the accept mask.  What stays here
is the density side: which envelope a density takes, and the batched
truncated-normal, truncated-exponential and rejection samplers that
draw it.

Steppers share one convention: they mutate and return a ChainState, they
draw randomness only from the generator they are handed, and a rejected
proposal leaves the state at x (the walk stays).

advance_ensemble is the one ball-walk engine: Metropolis ball-walk steps
on K chains in lockstep, stored as the rows of a (K, n) array.  The sloc
ensemble runs on it wherever its tilted density has no exact law, and
the scalar ball-walk and Metropolis steps are one-row advance_ensemble
steps.  On a uniform target the filter accepts exactly the proposals
inside the body, so the two kinds are the same walk.

Hit-and-run resamples the target restricted to a random chord, and the
1-D restriction is always drawn exactly: one uniform when it is flat,
else by one rejection sampler (Devroye 1984), as every restriction is
logconcave.  The envelope is flat around the mode and falls exponentially
beyond the points where the log-density has dropped by one (closed forms
for quadratic and radial-only profiles, bisection for mixed ones), which
concavity makes a true upper bound with acceptance at least 1/(1 + e).

A scalar step works on vectors of a handful of entries, where numpy's
per-call overhead outweighs the arithmetic.  So inside a hit-and-run step
the chord ends, the chord coefficients and the 1-D draw are Python
floats, and arrays appear only at the boundary: the direction drawn from
the generator and the position x + t u the step stores.  The draws are
fixed by the stream: the 1-D draw takes its uniforms from the
generator in one fixed order, one for a flat chord and exactly two per
try of the rejection, so how the float arithmetic is written moves the
last bits of a chain, not the variates it consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .densities import Density, Uniform, Gaussian, Exponential, Boltzmann, Tilted
from .bodies import AxisCube, Ball, BallIntersection, RestrictedBody, ball_cloud
from .rng import as_generator

_DEGENERATE_CHORD = 1e-13
# bisection over doubles halves the bracket; ~2100 halvings take any finite
# bracket down to adjacent doubles, so more means NaN or inf inputs
_BISECT_CAP = 2200
# the envelope accepts with probability >= 1/(1+e), so 1000 straight
# rejections happen with probability below 1e-130
_REJECT_CAP = 1000
# rows per proposal batch of the exact rejection samplers
_REJECT_BATCH = 256
# proposals an exact draw of many rows (an annealing phase, a needle cell,
# a cutting-plane iteration) may spend per hit-and-run step of the chain
# it replaces.  At n = 6 one 256-row proposal batch costs about 66 us and
# one restricted hit-and-run step about 21 us, so a spent budget costs no
# more than the chain that then runs
PROPOSALS_PER_STEP = 64


class WalkError(RuntimeError):
    pass


class NoExactSampler(ValueError):
    """The density has no exact law for exact_sample to draw from."""


def default_delta(n: int) -> float:
    """Default ball-walk step size delta = 1/sqrt(n)."""
    return 1.0 / np.sqrt(n)


@dataclass
class ChainState:
    """A chain's position and counters."""

    x: np.ndarray
    delta: float = 0.0
    steps_taken: int = 0
    proposals_accepted: int = 0


def unit_direction(rng, n):
    g = rng.standard_normal(n)
    norm = math.sqrt(g.dot(g))
    if norm == 0.0:
        g[0] = 1.0
        norm = 1.0
    return g / norm


def ball_walk_step(density, state: ChainState, rng, delta=None) -> ChainState:
    """One ball-walk step on a uniform density: a uniform proposal in the
    delta-ball around x, kept when it lands in the body."""
    return _one_row_step(density, state, rng, delta)


def metropolis_step(density: Density, state: ChainState, rng, delta=None) -> ChainState:
    """Metropolis-filtered ball walk: accept a uniform proposal y in the
    delta-ball around x with probability min{1, f(y)/f(x)}."""
    return _one_row_step(density, state, rng, delta)


def _one_row_step(density, state, rng, delta):
    """One advance_ensemble step of the chain at state, as a one-row
    ensemble.  ball_walk_step calls this, not metropolis_step, so that a
    tracer wrapping either name books each step once."""
    delta = state.delta if delta is None else delta
    X = state.x[None, :].copy()
    state.steps_taken += 1
    if advance_ensemble(density, X, density.log_density_many(X), 1, delta, rng):
        state.x = X[0]
        state.proposals_accepted += 1
    return state


def advance_ensemble(density, X, logf, steps, delta, gen):
    """Batched Metropolis ball-walk steps on every chain of the ensemble.

    X holds one chain per row and logf their log-densities; both are
    updated in place.  Every step draws one proposal per chain and one
    uniform per chain, accept or not.  Returns the acceptance rate.
    """
    m, n = X.shape
    accepted = 0
    for _ in range(steps):
        Y = ball_cloud(gen, m, n, X, delta)
        logf_y = density.log_density_many(Y)
        with np.errstate(divide="ignore"):
            take = np.log(gen.random(m)) < (logf_y - logf)
        if take.any():
            X[take] = Y[take]
            logf[take] = logf_y[take]
        accepted += int(take.sum())
    return accepted / float(steps * m)


def hit_and_run_step(density: Density, state: ChainState, rng) -> ChainState:
    """Hit-and-run: uniform direction, exact resample along the chord."""
    u = unit_direction(rng, density.n)
    return _chord_move(density, state, rng, u)


def coordinate_hit_and_run_step(density: Density, state: ChainState, rng) -> ChainState:
    """Hit-and-run restricted to coordinate directions."""
    i = int(rng.integers(density.n))
    u = np.zeros(density.n)
    u[i] = 1.0
    return _chord_move(density, state, rng, u)


def _chord_move(density, state, rng, u):
    lo, hi = density.body.chord(state.x, u)
    state.steps_taken += 1
    # chord ends are finite, and for lo <= hi max(-lo, hi) = max(|lo|, |hi|);
    # lo > hi counts as degenerate at any scale
    scale = -lo if -lo > hi else hi
    if hi - lo <= _DEGENERATE_CHORD * (scale if scale > 1.0 else 1.0):
        # zero-length chord: resampling is a no-op
        state.proposals_accepted += 1
        return state
    t = sample_chord_point(density, state.x, u, lo, hi, rng)
    state.x = state.x + t * u
    state.proposals_accepted += 1
    return state


# ---------------------------------------------------------------------------
# 1-D chord samplers


def sample_chord_point(density, x, u, lo, hi, rng) -> float:
    """Draw t from the density restricted to {x + t u : lo <= t <= hi}."""
    alpha, tstar, d2, a, b = density._chord_coeffs(x, u)
    if a < -1e-12:
        raise WalkError("chord restriction is log-convex; density is not logconcave")
    if alpha == 0.0 and a <= 0.0 and b == 0.0:
        return lo + (hi - lo) * rng.random()
    return _logconcave_chord(rng, alpha, tstar, math.sqrt(d2), max(a, 0.0), b,
                             float(lo), float(hi))


def _trunc_exp_many(rng, count, slope, lo, hi):
    """count rows whose coordinate i has density proportional to
    exp(slope_i t) on [lo_i, hi_i], independently, by inverse CDF.

    Each coordinate is reflected so that its heavy end is the anchor:
    s = (distance from that end) / (hi_i - lo_i) follows exp(-z s) on
    [0, 1] with z = |slope_i| (hi_i - lo_i).  Where z is at most the
    double epsilon the law is uniform to working precision and is drawn
    as such, so slope 0 is the uniform law and a tiny slope never divides
    a vanishing log1p by a vanishing z.
    """
    L = hi - lo
    z = np.abs(slope) * L
    flat = z <= np.finfo(float).eps
    z = np.where(flat, 1.0, z)
    U = rng.random((count, len(L)))
    S = np.where(flat, U, np.log1p(U * np.expm1(-z)) / -z) * L
    T = np.where(slope > 0.0, hi - S, lo + S)
    return np.clip(T, lo, hi, out=T)


def _trunc_gauss_many(rng, count, mean, sd, lo, hi):
    """count rows whose coordinate i is N(mean_i, sd^2) conditioned on
    [lo_i, hi_i], independently, by inverse CDF.

    A coordinate whose lower bound lies above its mean is reflected into
    the lower tail, where ndtr and ndtri keep their relative accuracy.  A
    coordinate with no mass left in double precision even there raises
    WalkError, as clipping would put every draw on the bound.
    """
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    flip = a > 0.0
    a, b = np.where(flip, -b, a), np.where(flip, -a, b)
    Fa = ndtr(a)
    width = ndtr(b) - Fa
    if not np.all(width > 0.0):
        raise WalkError("truncated Gaussian coordinate lies in the far tail")
    Z = rng.random((count, len(a)))
    Z *= width
    Z += Fa
    ndtri(Z, out=Z)
    Z *= np.where(flip, -sd, sd)
    Z += mean
    return np.clip(Z, lo, hi, out=Z)


def _logconcave_chord(rng, alpha, tstar, d, a, b, lo, hi):
    """t on [lo, hi] with log-density
    phi(t) = -alpha hypot(t - t*, d) - (a/2) t^2 + b t, alpha, a >= 0, not flat.

    Exact rejection from an envelope built at the mode m: flat on [l, r]
    and, beyond l and r, the lines through (m, phi(m)) and (l, phi(l)) or
    (r, phi(r)), where l < m < r are the points at which phi has dropped
    by one (clipped to the chord), in closed form unless both alpha and
    (a, b) are nonzero.  A concave phi lies below those lines.
    """
    if alpha == 0.0:
        # quadratic: with g = phi'(m) and h = hypot(g, sqrt(2a)), phi drops by
        # one at m + 2/(h - g) and m - 2/(h + g), forms that do not cancel; a
        # denominator can vanish only on a side the chord does not extend to
        m = b / a if a > 0.0 else (hi if b > 0.0 else lo)
        m = lo if m < lo else (hi if m > hi else m)
        hm = math.hypot(m - tstar, d)
        g = b - a * m
        h = math.hypot(g, math.sqrt(2.0 * a))
        wl = 2.0 / (h + g) if m > lo else math.inf
        wr = 2.0 / (h - g) if m < hi else math.inf
        fl, lam_l = max(m - wl, lo), 1.0 / wl
        fr, lam_r = min(m + wr, hi), 1.0 / wr
    elif a == 0.0 and b == 0.0:
        # radial only: the mode is t* clipped to the chord, and
        # phi(t) = phi(m) - 1 at t* -/+ sqrt((m - t*)^2 + 2 hm/alpha + 1/alpha^2);
        # the width on the side of m facing t* is written as rest / (root + off)
        # so that it does not cancel when alpha d is large
        m = lo if tstar < lo else (hi if tstar > hi else tstar)
        hm = math.hypot(m - tstar, d)
        off = abs(m - tstar)
        rest = (2.0 * hm + 1.0 / alpha) / alpha
        root = math.sqrt(off * off + rest)
        near = rest / (root + off)
        wl, wr = (root + off, near) if m >= tstar else (near, root + off)
        fl, lam_l = m - wl, 1.0 / wl
        if fl < lo:
            fl = lo
        fr, lam_r = m + wr, 1.0 / wr
        if fr > hi:
            fr = hi
    else:
        m = _chord_mode(alpha, tstar, d, a, b, lo, hi)
        hm = math.hypot(m - tstar, d)
        fl, lam_l = _unit_drop(alpha, tstar, d, a, b, m, hm, lo)
        fr, lam_r = _unit_drop(alpha, tstar, d, a, b, m, hm, hi)

    # envelope masses relative to exp(phi(m)), laid out left tail, flat
    # piece, right tail; a tail exists only where the flat piece stops short
    # of the chord end.  One uniform v on [0, total) picks the point by
    # inverting the envelope's cumulative mass.
    cut_l = math.expm1(-lam_l * (fl - lo)) if fl > lo else 0.0
    cut_r = math.expm1(-lam_r * (hi - fr)) if fr < hi else 0.0
    left = -math.exp(-lam_l * (m - fl)) * cut_l / lam_l if cut_l else 0.0
    right = -math.exp(-lam_r * (fr - m)) * cut_r / lam_r if cut_r else 0.0
    flat = fr - fl
    total = left + flat + right
    random, exp, hypot, log1p = rng.random, math.exp, math.hypot, math.log1p
    for _ in range(_REJECT_CAP):
        v = random() * total
        if v < left:
            t = fl + log1p(cut_l * (v / left)) / lam_l
            if t < lo:
                t = lo
            log_env = -lam_l * (m - t)
        elif v < left + flat:
            t = fl + (v - left)
            if t > fr:
                t = fr
            log_env = 0.0
        else:
            w = (v - left - flat) / right
            if w > 1.0:
                w = 1.0
            t = fr - log1p(cut_r * w) / lam_r
            if t > hi:
                t = hi
            log_env = -lam_r * (t - m)
        # accept with probability exp(min(_rise(t) - log_env, 0)), _rise inlined
        ht = hypot(t - tstar, d)
        radial = (t + m - 2.0 * tstar) / (ht + hm) if ht + hm > 0.0 else 0.0
        z = (t - m) * (b - 0.5 * a * (t + m) - alpha * radial) - log_env
        if z > 0.0:
            z = 0.0
        if random() < exp(z):
            return t
    raise WalkError("logconcave chord rejection failed to accept")


def _chord_mode(alpha, tstar, d, a, b, lo, hi):
    """Maximizer on [lo, hi] of phi(t) = -alpha hypot(t - t*, d) - (a/2) t^2 + b t."""

    def slope(t):
        h = math.hypot(t - tstar, d)
        return b - a * t - (alpha * (t - tstar) / h if h > 0.0 else 0.0)

    if slope(lo) <= 0.0:
        return lo
    if slope(hi) >= 0.0:
        return hi
    return _bisect(slope, lo, hi)


def _rise(t, alpha, tstar, d, a, b, m, hm):
    """phi(t) - phi(m), hm = hypot(m - t*, d), factored so that nearby t
    and m do not cancel."""
    ht = math.hypot(t - tstar, d)
    radial = (t + m - 2.0 * tstar) / (ht + hm) if ht + hm > 0.0 else 0.0
    return (t - m) * (b - 0.5 * a * (t + m) - alpha * radial)


def _unit_drop(alpha, tstar, d, a, b, m, hm, end):
    """Flat-piece end and tail rate on the side of the mode m facing `end`.

    The end is the first point past which phi has dropped by at least one
    below phi(m), and the rate is that drop over the distance from m;
    (end, 0.0) when phi stays within one of phi(m) all the way to `end`.
    """
    coeffs = (alpha, tstar, d, a, b, m, hm)
    if _rise(end, *coeffs) > -1.0:
        return end, 0.0
    t = _bisect(lambda s: _rise(s, *coeffs) + 1.0, m, end)
    return t, -_rise(t, *coeffs) / abs(t - m)


def _bisect(f, inside, outside):
    """Boundary between `inside` (f > 0) and `outside` (f <= 0) of a
    monotone f, to adjacent doubles; returns the outside end."""
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            return outside
        if f(mid) > 0.0:
            inside = mid
        else:
            outside = mid
    raise WalkError("chord bisection did not converge")


# ---------------------------------------------------------------------------
# drivers


def run_chain(density, x0, n_samples, walk="hit_and_run", burn_in=0, thin=None,
              rng=None, delta=None):
    """Run one chain of the named walk and collect n_samples thinned states.

    x0 = None starts the chain from warm_start(density, rng), drawn after
    the walk is checked against the density.  thin defaults to the
    dimension and delta, the ball-walk step size of
    "ball_walk" and "metropolis", to default_delta(n).  Both of those
    kinds take one-row advance_ensemble steps, which draw one uniform per
    step, accept or not; "ball_walk" takes uniform targets alone, on which
    it is the same walk as "metropolis".  The chain is deterministic given
    the generator: identical streams reproduce identical trajectories.
    """
    # the steppers are looked up by name on every call, so a rebinding of
    # walks.<kind>_step (perfbench's tracer) sees every step
    if walk == "ball_walk":
        if density.kind != "uniform":
            raise ValueError(f"walk 'ball_walk' tests membership only and would "
                             f"ignore the {density.kind!r} density; use 'metropolis'")
        step = ball_walk_step
    elif walk == "metropolis":
        step = metropolis_step
    elif walk == "hit_and_run":
        step = hit_and_run_step
    elif walk == "coordinate_hit_and_run":
        step = coordinate_hit_and_run_step
    else:
        raise ValueError(f"unknown walk kind {walk!r}")
    rng = as_generator(rng)
    if x0 is None:
        x0 = warm_start(density, rng)
    x0 = np.asarray(x0, dtype=float).copy()
    if density.log_density(x0) == float("-inf"):
        raise WalkError("chain start point has zero target density")
    n = density.n
    thin = n if thin is None else max(1, int(thin))
    delta = default_delta(n) if delta is None else delta
    state = ChainState(x=x0, delta=delta)
    for _ in range(int(burn_in)):
        step(density, state, rng)
    out = np.empty((int(n_samples), n))
    for i in range(int(n_samples)):
        for _ in range(thin):
            step(density, state, rng)
        out[i] = state.x
    return out


def exact_sample(density, count, rng, max_batches=10000):
    """Exact draws for the kinds that admit them.

    A tilt whose B is exactly t I is first rewritten as the Gaussian it
    equals on the same body (_tilt_as_gaussian).  Uniform on a body that
    owns a uniform law (body.uniform_law: balls, axis cubes, the simplex
    and their affine images, ellipsoids among them) is that law; on an
    axis cube a Gaussian is one truncated normal per coordinate and a
    Boltzmann density exp(-alpha c.x) one truncated exponential of slope
    -alpha c_i per coordinate.
    Everything else is exact rejection, at most max_batches batches of
    max(count, 256) proposals: uniform on a body with a closed-form law
    cut by a ball (BallIntersection) from whichever of the two has the
    smaller log_volume(), masked by the other's membership
    (_intersection_law), uniform on any other body from its bounding
    ball, and a Gaussian or an Exponential from whichever of two
    envelopes accepts more, as body.log_volume() decides
    (_uniform_envelope): the body's uniform law, or the unrestricted
    law, a normal for the Gaussian and for exp(-alpha |x|) a uniform
    direction times a Gamma(n, 1/alpha) radius.  On a RestrictedBody the
    proposals are the exact law of the same density on the base body,
    and the cuts are the accept mask: a cell of mass w accepts at rate
    w, and the budget bounds every proposal, the base's own rejections
    included.  Raises NoExactSampler for kinds with no safe envelope;
    count = 0 draws nothing and returns no rows.
    """
    count = int(count)
    rng = as_generator(rng)
    if isinstance(density, Tilted):
        density = _tilt_as_gaussian(density)
    propose, accept = _exact_law(density, rng)
    if count == 0:
        return np.empty((0, density.n))
    if accept is None:
        return propose(count)
    return _rejection(propose, accept, count, max_batches)


def _exact_law(density, rng):
    """(propose, accept) for the exact law of an untilted density.

    propose(m) draws m rows and accept(X) is the mask of the rows kept;
    accept is None when the proposals are the law itself.  A restricted
    body takes its base's law and masks it with its own membership, so
    this never calls the public exact_sample, which perfbench's tracer
    wraps and would then book twice.
    """
    body = density.body
    n = density.n
    if isinstance(body, RestrictedBody):
        propose, accept = _exact_law(density.restricted_to(body.base), rng)
        if accept is None:
            return propose, body.contains_many

        def cut(X):
            keep = accept(X)
            keep[keep] = body.contains_many(X[keep])
            return keep

        return propose, cut
    if isinstance(density, Uniform):
        draw = body.uniform_law(rng)
        if draw is not None:
            return draw, None
        if isinstance(body, BallIntersection):
            law = _intersection_law(body, rng)
            if law is not None:
                return law
        return (lambda m: ball_cloud(rng, m, n, body.x0, body.R)), body.contains_many
    if isinstance(density, Gaussian):
        if density.a <= 0:
            raise NoExactSampler("gaussian with a=0 has no proper unrestricted law")
        sd = 1.0 / np.sqrt(density.a)
        if isinstance(body, AxisCube):
            lo = body.center - body.half_width
            hi = body.center + body.half_width
            return (lambda m: _trunc_gauss_many(rng, m, density.center, sd, lo, hi)), None
        envelope = _uniform_envelope(density, rng)
        if envelope is not None:
            return envelope

        def propose(m):
            return density.center + sd * rng.standard_normal((m, n))

        return propose, body.contains_many
    if isinstance(density, Exponential):
        envelope = _uniform_envelope(density, rng)
        if envelope is not None:
            return envelope

        def propose(m):
            g = rng.standard_normal((m, n))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            rad = rng.gamma(n, 1.0 / density.alpha, size=m)
            return g * rad[:, None]

        return propose, body.contains_many
    if isinstance(density, Boltzmann) and isinstance(body, AxisCube):
        lo = body.center - body.half_width
        hi = body.center + body.half_width
        slope = -density.alpha * density.c
        return (lambda m: _trunc_exp_many(rng, m, slope, lo, hi)), None
    raise NoExactSampler(f"no exact sampler for density kind {density.kind!r}")


def _intersection_law(body, rng):
    """(propose, accept) for the uniform law on a base body cut by a ball,
    or None when the base has no closed-form uniform law.

    Both the base and the ball own a uniform law, and either one, masked
    by the other's membership, draws the intersection exactly.  The one
    with the smaller log_volume() is proposed from, so the accept rate
    vol(base & ball) / min(vol(base), vol(ball)) is the larger of the
    two: the rule _uniform_envelope applies to the Gaussian.
    """
    draw = body.base.uniform_law(rng)
    if draw is None:
        return None
    if body.base.log_volume() <= body.ball.log_volume():
        return draw, body.ball.contains_many
    return body.ball.uniform_law(rng), body.base.contains_many


def _uniform_envelope(density, rng):
    """(propose, accept) for drawing a Gaussian or an Exponential density
    by rejection from its body's uniform law, or None when its
    unrestricted law is the better envelope or the body has no
    closed-form uniform law.

    For f with mass Z on the body and Z0 on R^n, proposals from the
    unrestricted law accept with probability Z / Z0; uniform proposals,
    each kept with probability f(x) / s for s >= sup f on the body,
    accept with probability Z / (s vol(body)).  The envelope with the
    larger rate is taken, a rule that draws nothing.  Z0 is
    (2 pi / a)^(n/2) for exp(-(a/2)|x - m|^2) and Gamma(n) n vol(B_n) /
    alpha^n for exp(-alpha |x|) (m = 0).  s is 1, the sup of f over R^n
    and so a bound on any body; the rates compared are those of the s
    the accept step divides by, so the rule picks the better envelope
    even where the body misses m.  On a ball of center c and radius r
    the sup is exact: f at distance gap = max(0, |m - c| - r) from m,
    exp(-(a/2) gap^2) or exp(-alpha gap).
    """
    body, n = density.body, density.n
    draw = body.uniform_law(rng)
    if draw is None:
        return None
    if isinstance(density, Gaussian):
        center = density.center
        log_mass = 0.5 * n * math.log(2.0 * math.pi / density.a)
    else:
        center = np.zeros(n)
        log_mass = (math.lgamma(n) + math.log(n) + Ball(n).log_volume()
                    - n * math.log(density.alpha))
    log_sup = 0.0
    if isinstance(body, Ball):
        gap = max(0.0, float(np.linalg.norm(center - body.center)) - body.radius)
        if isinstance(density, Gaussian):
            log_sup = -0.5 * density.a * gap * gap
        else:
            log_sup = -density.alpha * gap
    if body.log_volume() + log_sup >= log_mass:
        return None

    def accept(X):
        return np.log(rng.random(len(X))) < density._log_inside_many(X) - log_sup

    return draw, accept


def _tilt_as_gaussian(density):
    """The Gaussian that exp(c.x - t|x|^2/2) times the base equals.

    Completing the square: over exp(-(a/2)|x - m|^2) it is
    Gaussian(a + t, (a m + c)/(a + t)); over a uniform base with t > 0 it
    is Gaussian(t, c/t); both on the tilt's body.  Any other tilt, a B
    that is not exactly t I included, raises NoExactSampler.
    """
    B = density.B
    t = float(B[0, 0])
    if not np.array_equal(B, t * np.eye(density.n)):
        raise NoExactSampler("a tilt with a non-scalar B has no exact law")
    base, c = density.base, density.c
    if isinstance(base, Gaussian) and base.a + t > 0.0:
        a = base.a + t
        return Gaussian(density.body, a, (base.a * base.center + c) / a)
    if isinstance(base, Uniform) and t > 0.0:
        return Gaussian(density.body, t, c / t)
    raise NoExactSampler(f"no exact sampler for a tilt of a {base.kind!r} base "
                         f"with t = {t:g}")


def _rejection(propose, accept_mask, count, max_batches):
    out = []
    got = 0
    for _ in range(max_batches):
        batch = propose(max(count, _REJECT_BATCH))
        keep = batch[accept_mask(batch)]
        if keep.shape[0]:
            out.append(keep)
            got += keep.shape[0]
        if got >= count:
            break
    else:
        raise WalkError("rejection sampler acceptance rate too low")
    return np.concatenate(out, axis=0)[:count]


def exact_or_chain(density, k, rng, x0=None, burn_in=0, thin=1,
                   proposals_per_step=1):
    """(k draws of the density, whether they are exact).

    One exact_sample call, whose budget is proposals_per_step proposals
    per step of the hit-and-run chain it replaces, rounded up to whole
    batches of max(k, 256) proposals.  When the density has no exact law
    or the budget runs out, that chain runs: from x0, burn_in steps, then
    k samples thin steps apart.  x0 = None starts it at the body's
    interior point after warm_start's 100 n^2 step warm-up, which adds
    one proposal per warm-up step to the budget, so no draw spends an
    exact budget twice.  Every phase of volume's annealing driver, every
    cutting-plane iteration and every needle cell is one such call, on
    PROPOSALS_PER_STEP proposals per step.
    """
    rng = as_generator(rng)
    budget = proposals_per_step * (burn_in + k * thin)
    if x0 is None:
        warm_up = 100 * density.n ** 2
        x0, burn_in, budget = density.body.x0, warm_up + burn_in, warm_up + budget
    max_batches = -(-budget // max(k, _REJECT_BATCH))
    try:
        return exact_sample(density, k, rng, max_batches=max_batches), True
    except (NoExactSampler, WalkError):
        pass
    return run_chain(density, x0, k, burn_in=burn_in, thin=thin, rng=rng), False


def warm_start(density, rng, burn_in=None):
    """A start point distributed as the target, or roughly so: one
    exact_or_chain draw whose fallback is burn_in hit-and-run steps
    (default 100 n^2) from the body's interior point."""
    burn_in = 100 * density.n ** 2 if burn_in is None else int(burn_in)
    X, _ = exact_or_chain(density, 1, rng, x0=density.body.x0, thin=burn_in)
    return X[0]
