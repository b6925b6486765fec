"""Geometric random walks over logconcave densities.

Steppers share one convention: they mutate and return a ChainState, they
draw randomness only from the generator they are handed, and a rejected
proposal leaves the state at x (the walk stays).  The ball walk and the
Metropolis ball walk consume identical randomness for identical proposals,
so with a uniform target they produce the same trajectory from the same
stream; the tests pin that equivalence down.

Hit-and-run resamples the target restricted to a random chord.  The 1-D
restriction is drawn exactly (inverse CDF) when it is truncated Gaussian,
exponential, or uniform in the line parameter; otherwise the sampler
integrates the chord density with composite Simpson panels (zooming onto
the mass-carrying subinterval when the density is sharply peaked) and
inverts the cumulative by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .densities import Density, Uniform, Gaussian, Exponential, WithBody, chord_profile
from .bodies import Ball, AxisCube
from .rng import as_generator

_DEGENERATE_CHORD = 1e-13
_SIMPSON_PANELS = 64
_SIMPSON_ZOOMS = 4
_INVCDF_TOL = 1e-8


class WalkError(RuntimeError):
    pass


def default_delta(n: int) -> float:
    """Default ball-walk step size delta = 1/sqrt(n)."""
    return 1.0 / np.sqrt(n)


@dataclass
class ChainState:
    x: np.ndarray
    walk_kind: str = ""
    delta: float = 0.0
    steps_taken: int = 0
    proposals_accepted: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.proposals_accepted / max(1, self.steps_taken)


def _ball_point(rng, n):
    """Uniform point in the unit ball (direction times radius^(1/n))."""
    g = rng.standard_normal(n)
    norm = np.linalg.norm(g)
    if norm == 0.0:
        g[0] = 1.0
        norm = 1.0
    rad = rng.random() ** (1.0 / n)
    return g * (rad / norm)


def unit_direction(rng, n):
    g = rng.standard_normal(n)
    norm = np.linalg.norm(g)
    if norm == 0.0:
        g[0] = 1.0
        norm = 1.0
    return g / norm


def ball_walk_step(body, state: ChainState, rng, delta=None) -> ChainState:
    """One ball-walk step: uniform proposal in the delta-ball, stay if it
    lands outside the body."""
    delta = state.delta if delta is None else delta
    y = state.x + delta * _ball_point(rng, body.n)
    state.steps_taken += 1
    if body.contains(y):
        state.x = y
        state.proposals_accepted += 1
    return state


def metropolis_step(density: Density, state: ChainState, rng, delta=None) -> ChainState:
    """Metropolis-filtered ball walk: accept y with min{1, f(y)/f(x)}.

    The comparison runs in log scale.  No uniform variate is consumed when
    the ratio decides by itself (certain accept or certain reject), which
    keeps the stream aligned with the plain ball walk on uniform targets.
    """
    delta = state.delta if delta is None else delta
    y = state.x + delta * _ball_point(rng, density.n)
    state.steps_taken += 1
    log_ratio = density.log_density(y) - density.log_density(state.x)
    if log_ratio >= 0:
        accept = True
    elif log_ratio == float("-inf"):
        accept = False
    else:
        accept = np.log(rng.random()) < log_ratio
    if accept:
        state.x = y
        state.proposals_accepted += 1
    return state


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
    scale = max(1.0, abs(lo), abs(hi))
    if hi - lo <= _DEGENERATE_CHORD * scale:
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
    prof = chord_profile(density, x, u)
    if prof[0] == "quad":
        _, a, b = prof
        if a < -1e-12:
            raise WalkError("chord restriction is log-convex; density is not logconcave")
        if a > 1e-300:
            return _trunc_gauss(rng, b / a, 1.0 / np.sqrt(a), lo, hi)
        return _trunc_exp(rng, b, lo, hi)
    return _generic_chord(prof[1], lo, hi, rng)


def _trunc_exp(rng, slope, lo, hi):
    """t on [lo, hi] with density proportional to exp(slope * t)."""
    L = hi - lo
    if slope == 0.0:
        return lo + L * rng.random()
    if slope > 0:
        # reflect so the heavy end is at the left anchor
        return hi - _trunc_exp_neg(rng, slope, L)
    return lo + _trunc_exp_neg(rng, -slope, L)


def _trunc_exp_neg(rng, beta, L):
    """s on [0, L] with density proportional to exp(-beta s), beta > 0."""
    u = rng.random()
    # F(s) = (1 - e^{-beta s}) / (1 - e^{-beta L})
    s = -np.log1p(u * np.expm1(-beta * L)) / beta
    return min(s, L)


def _trunc_gauss(rng, mean, sd, lo, hi):
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    if a > 0.0:
        # reflect into the lower tail where ndtr/ndtri stay accurate
        z = -_std_trunc_gauss(rng, -b, -a)
    else:
        z = _std_trunc_gauss(rng, a, b)
    return float(np.clip(mean + sd * z, lo, hi))


def _std_trunc_gauss(rng, a, b):
    """Standard normal conditioned on [a, b], with a <= 0 or b <= 0."""
    Fa = ndtr(a)
    Fb = ndtr(b)
    if Fb - Fa > 0.0:
        return float(ndtri(Fa + (Fb - Fa) * rng.random()))
    # both bounds in the far lower tail: sample the reflected upper tail
    return -_tail_trunc_gauss(rng, -b, -a)


def _tail_trunc_gauss(rng, a, b):
    """Standard normal conditioned on [a, b] with a large positive;
    Robert's exponential-proposal rejection."""
    lam = 0.5 * (a + np.sqrt(a * a + 4.0))
    for _ in range(100000):
        x = a - np.log1p(-rng.random()) / lam
        if x > b:
            continue
        if np.log1p(-rng.random()) <= -0.5 * (x - lam) ** 2:
            return x
    raise WalkError("tail truncated-normal rejection failed to accept")


def _generic_chord(logf, lo, hi, rng):
    """Inverse-CDF draw via composite Simpson panels on the chord density."""
    lo0, hi0 = lo, hi
    ts = w = masses = None
    for _ in range(_SIMPSON_ZOOMS + 1):
        ts = np.linspace(lo, hi, 2 * _SIMPSON_PANELS + 1)
        ls = logf(ts)
        peak = np.max(ls)
        if peak == float("-inf"):
            raise WalkError("chord density vanished on the whole interval")
        w = np.exp(np.clip(ls - peak, -745.0, 0.0))
        h = (hi - lo) / _SIMPSON_PANELS
        masses = (h / 6.0) * (w[0:-1:2] + 4.0 * w[1::2] + w[2::2])
        total = masses.sum()
        if total <= 0.0:
            # peak narrower than the grid: zoom around the max node
            i = int(np.argmax(ls))
            lo = ts[max(i - 1, 0)]
            hi = ts[min(i + 1, ts.size - 1)]
            continue
        # zoom when nearly all mass sits in a small sub-window
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        eps = 1e-7 * total
        j0 = max(int(np.searchsorted(cum, eps, side="right")) - 1, 0)
        j1 = int(np.searchsorted(cum, total - eps, side="left"))
        j1 = min(max(j1, j0 + 1), _SIMPSON_PANELS)
        if (j1 - j0) < 0.2 * _SIMPSON_PANELS and (hi - lo) > 64 * _INVCDF_TOL * (hi0 - lo0):
            lo, hi = ts[2 * j0], ts[2 * j1]
            continue
        break
    if masses is None or masses.sum() <= 0.0:
        raise WalkError("chord density mass underflowed")
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    total = cum[-1]
    target = rng.random() * total
    j = int(np.searchsorted(cum, target, side="right")) - 1
    j = min(max(j, 0), _SIMPSON_PANELS - 1)
    t0, tm, t1 = ts[2 * j], ts[2 * j + 1], ts[2 * j + 2]
    w0, wm, w1 = w[2 * j], w[2 * j + 1], w[2 * j + 2]
    need = target - cum[j]
    h2 = t1 - t0

    def panel_cdf(s):
        xi = (s - t0) / h2
        i0 = (2.0 / 3.0) * xi**3 - 1.5 * xi**2 + xi
        i1 = -(4.0 / 3.0) * xi**3 + 2.0 * xi**2
        i2 = (2.0 / 3.0) * xi**3 - 0.5 * xi**2
        return h2 * (w0 * i0 + wm * i1 + w1 * i2)

    s_lo, s_hi = t0, t1
    for _ in range(200):
        mid = 0.5 * (s_lo + s_hi)
        if panel_cdf(mid) < need:
            s_lo = mid
        else:
            s_hi = mid
        if s_hi - s_lo <= _INVCDF_TOL * max(1.0, hi0 - lo0):
            break
    return float(np.clip(0.5 * (s_lo + s_hi), lo0, hi0))


# ---------------------------------------------------------------------------
# drivers


def make_stepper(walk_kind, delta=None):
    """Bind a walk kind ('ball_walk', 'metropolis', 'hit_and_run',
    'coordinate_hit_and_run') into a (density, state, rng) stepper."""
    if walk_kind == "ball_walk":
        return lambda density, state, rng: ball_walk_step(density.body, state, rng, delta)
    if walk_kind == "metropolis":
        return lambda density, state, rng: metropolis_step(density, state, rng, delta)
    if walk_kind == "hit_and_run":
        return lambda density, state, rng: hit_and_run_step(density, state, rng)
    if walk_kind == "coordinate_hit_and_run":
        return lambda density, state, rng: coordinate_hit_and_run_step(density, state, rng)
    raise ValueError(f"unknown walk kind {walk_kind!r}")


def run_chain(stepper, density, x0, n_samples, burn_in=0, thin=None, rng=None,
              walk_kind="", delta=None, return_state=False):
    """Run one chain and collect n_samples thinned states.

    thin defaults to the dimension.  The chain is deterministic given the
    generator: identical streams reproduce identical trajectories.
    """
    x0 = np.asarray(x0, dtype=float).copy()
    if density.log_density(x0) == float("-inf"):
        raise WalkError("chain start point has zero target density")
    rng = as_generator(rng)
    n = density.n
    thin = n if thin is None else max(1, int(thin))
    delta = default_delta(n) if delta is None else delta
    state = ChainState(x=x0, walk_kind=walk_kind, delta=delta)
    for _ in range(int(burn_in)):
        stepper(density, state, rng)
    out = np.empty((int(n_samples), n))
    for i in range(int(n_samples)):
        for _ in range(thin):
            stepper(density, state, rng)
        out[i] = state.x
    if return_state:
        return out, state
    return out


def exact_sample(density, count, rng, max_batches=10000):
    """Exact draws for the kinds that admit them.

    Uniform on balls and axis cubes is direct; Gaussian, exponential and
    uniform on general bodies use exact rejection against their
    unrestricted laws.  Raises for kinds with no safe envelope.
    """
    count = int(count)
    rng = as_generator(rng)
    body = density.body
    n = density.n
    # support restrictions keep the base's envelope; rejection below tests
    # membership against the restricted body, which stays exact
    while isinstance(density, WithBody):
        density = density.base
    if isinstance(density, Uniform) and isinstance(body, Ball):
        return _ball_cloud(rng, count, n, body.center, body.radius)
    if isinstance(density, Uniform) and isinstance(body, AxisCube):
        return body.center + body.half_width * (2.0 * rng.random((count, n)) - 1.0)
    if isinstance(density, Gaussian):
        if density.a <= 0:
            raise ValueError("gaussian with a=0 has no proper unrestricted law")
        sd = 1.0 / np.sqrt(density.a)

        def propose(m):
            return density.center + sd * rng.standard_normal((m, n))

        return _rejection(propose, body.contains_many, count, max_batches)
    if isinstance(density, Exponential):

        def propose(m):
            g = rng.standard_normal((m, n))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            rad = rng.gamma(n, 1.0 / density.alpha, size=m)
            return g * rad[:, None]

        return _rejection(propose, body.contains_many, count, max_batches)
    if isinstance(density, Uniform):
        return _rejection(lambda m: _ball_cloud(rng, m, n, body.x0, body.R),
                          body.contains_many, count, max_batches)
    raise ValueError(f"no exact sampler for density kind {density.kind!r}")


def _ball_cloud(rng, count, n, center, radius):
    """count uniform points in the ball(s) of the given center and radius;
    center may be one point or one row per point."""
    g = rng.standard_normal((count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    rad = rng.random(count) ** (1.0 / n)
    return center + radius * g * rad[:, None]


def _rejection(propose, accept_mask, count, max_batches):
    out = []
    got = 0
    for _ in range(max_batches):
        batch = propose(max(count, 256))
        keep = batch[accept_mask(batch)]
        if keep.shape[0]:
            out.append(keep)
            got += keep.shape[0]
        if got >= count:
            break
    else:
        raise WalkError("rejection sampler acceptance rate too low")
    return np.concatenate(out, axis=0)[:count]


def warm_start(density, rng, burn_in=None):
    """A start point roughly distributed as the target.

    Low dimension (n <= 6) with an exact envelope: one rejection draw.
    Otherwise: hit-and-run from the body's interior point with a long
    burn-in (default 100 n^2 steps).
    """
    rng = as_generator(rng)
    n = density.n
    if n <= 6:
        try:
            return exact_sample(density, 1, rng)[0]
        except ValueError:
            pass
    burn_in = 100 * n * n if burn_in is None else burn_in
    state = ChainState(x=density.body.x0.copy(), walk_kind="hit_and_run")
    if density.log_density(state.x) == float("-inf"):
        raise WalkError("body interior point has zero density; cannot warm start")
    for _ in range(int(burn_in)):
        hit_and_run_step(density, state, rng)
    return state.x
