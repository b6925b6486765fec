import math
import warnings

import numpy as np
import pytest
from conftest import ellipsoid, plain_polytope, simplex_moments
from scipy import integrate, stats
from scipy.special import gammainc

from klslab import walks
from klslab.bodies import (AxisCube, Ball, BallIntersection, Polytope, RestrictedBody,
                           TransformedBody, ball_cloud, simplex, transform_body)
from klslab.densities import (Boltzmann, Exponential, Gaussian, Tilted,
                               Uniform)
from klslab.diagnostics import HalfspaceSet
from klslab.isotropy import iterated_gaussian_isotropy
from klslab.linalg import sym_inv_sqrt
from klslab.needles import needle_decompose
from klslab.rng import RngStream
from klslab.walks import (ChainState, NoExactSampler, WalkError, advance_ensemble,
                          ball_walk_step, default_delta, _trunc_exp_many,
                          exact_sample, hit_and_run_step, metropolis_step,
                          run_chain, sample_chord_point, warm_start)

WALKS = ("ball_walk", "metropolis", "hit_and_run", "coordinate_hit_and_run")


def _chain_state(x, delta=None):
    return ChainState(np.asarray(x, dtype=float), delta, 0, 0)


def test_ball_walk_and_metropolis_identical_on_uniform():
    # on a uniform target the filter never consumes extra randomness, so
    # the two walks must produce the same trajectory from the same stream
    body = AxisCube(3)
    dens = Uniform(body)
    g1 = RngStream(9).generator()
    g2 = RngStream(9).generator()
    s1 = _chain_state(np.zeros(3))
    s2 = _chain_state(np.zeros(3))
    for _ in range(200):
        ball_walk_step(body, s1, g1, delta=0.4)
        metropolis_step(dens, s2, g2, delta=0.4)
        assert np.array_equal(s1.x, s2.x)
    assert s1.proposals_accepted == s2.proposals_accepted


def _reference_metropolis_step(density, state, rng, delta):
    """metropolis_step with both log-densities evaluated on every step."""
    y = ball_cloud(rng, 1, density.n, state.x, delta)[0]
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


def test_metropolis_cached_log_density_matches_reference():
    # Gaussian over an affine image of simplex(8), the isotropy loop's case.
    # The cached log f(x) must never go stale: not over 600 plain steps, and
    # not when steps against a second density (a = 2) or hit-and-run steps
    # that move x are interleaved with them
    M = 3.0 * (np.eye(8) + 0.2 * np.random.default_rng(5).standard_normal((8, 8)))
    body = transform_body(simplex(8), M)
    dens = Gaussian(body, a=1.0, center=body.x0)
    other = Gaussian(body, a=2.0, center=body.x0)
    g1, g2 = RngStream(31).generator(), RngStream(31).generator()
    s1, s2 = _chain_state(body.x0), _chain_state(body.x0)
    delta = 0.15
    schedule = [dens] * 600 + [dens, other, "hit_and_run", other] * 100
    for target in schedule:
        if target == "hit_and_run":
            hit_and_run_step(dens, s1, g1)
            hit_and_run_step(dens, s2, g2)
        else:
            metropolis_step(target, s1, g1, delta)
            _reference_metropolis_step(target, s2, g2, delta)
        assert s1.x.tobytes() == s2.x.tobytes()
        assert s1.proposals_accepted == s2.proposals_accepted
    assert s1.steps_taken == s2.steps_taken == 1000
    # the filter both accepted and rejected
    assert 100 < s1.proposals_accepted - 100 < 800


def _reference_ball_step(density, state, rng, delta, walk):
    """A ball-walk or Metropolis step whose proposal is the unit-ball point
    g (U^(1/n) / |g|), from n normals and then one uniform."""
    n = density.n
    g = rng.standard_normal(n)
    rad = rng.random() ** (1.0 / n)
    y = state.x + delta * (g * (rad / math.sqrt(g.dot(g))))
    if walk == "ball_walk":
        if density.body.contains(y):
            state.x = y
        return state
    log_ratio = density.log_density(y) - density.log_density(state.x)
    if log_ratio >= 0 or (log_ratio > -np.inf and np.log(rng.random()) < log_ratio):
        state.x = y
    return state


@pytest.mark.parametrize("walk, density", [
    ("ball_walk", Uniform(Ball(4))),
    ("metropolis", Gaussian(AxisCube(5), a=2.0, center=np.full(5, 0.3))),
])
def test_ball_proposals_replay_the_unit_ball_point_draws(walk, density):
    # the steppers propose through ball_cloud; that consumes the variates
    # of g (U^(1/n) / |g|) in the same order, so only last bits may move
    g1, g2 = RngStream(77).generator(), RngStream(77).generator()
    x0 = density.body.x0
    X = run_chain(density, x0, 2000, walk=walk, thin=1, rng=g1, delta=0.6)
    state = _chain_state(x0)
    for x in X:
        _reference_ball_step(density, state, g2, 0.6, walk)
        assert np.linalg.norm(x - state.x) <= 1e-12 * max(1.0, np.linalg.norm(state.x))
    np.testing.assert_equal(g1.bit_generator.state, g2.bit_generator.state)
    moved = np.any(np.diff(X, axis=0) != 0.0, axis=1).mean()
    assert 0.1 < moved < 0.9


def test_run_chain_deterministic_and_bookkeeping():
    dens = Uniform(AxisCube(2))
    X1 = run_chain(dens, np.zeros(2), 50, walk="ball_walk", burn_in=20, thin=3,
                   rng=RngStream(4), delta=0.5)
    X2 = run_chain(dens, np.zeros(2), 50, walk="ball_walk", burn_in=20, thin=3,
                   rng=RngStream(4), delta=0.5)
    assert np.array_equal(X1, X2)
    assert X1.shape == (50, 2)


@pytest.mark.parametrize("walk", WALKS)
def test_run_chain_replays_every_walk_from_one_stream(walk):
    # the chain is a function of (density, x0, walk, stream): a rerun from
    # the same RngStream gives the same bits, another seed other states
    dens = Uniform(transform_body(AxisCube(3), np.diag([1.0, 2.0, 0.5])))

    def chain(seed):
        return run_chain(dens, np.zeros(3), 40, walk=walk, burn_in=10, thin=2,
                         rng=RngStream(seed))

    X = chain(6)
    assert X.shape == (40, 3)
    assert np.all(dens.body.contains_many(X))
    assert X.tobytes() == chain(6).tobytes()
    assert X.tobytes() != chain(7).tobytes()


def test_run_chain_matches_hand_driven_steps():
    # run_chain's walk="metropolis" is burn_in + n_samples * thin calls of
    # metropolis_step at delta, on one generator, recording every thin-th x
    dens = Gaussian(AxisCube(2, half_width=3.0), a=1.5)
    X = run_chain(dens, np.zeros(2), 30, walk="metropolis", burn_in=7, thin=3,
                  rng=RngStream(8), delta=0.7)
    gen = RngStream(8).generator()
    state = _chain_state(np.zeros(2), delta=0.7)
    for _ in range(7):
        metropolis_step(dens, state, gen)
    for row in X:
        for _ in range(3):
            metropolis_step(dens, state, gen)
        assert row.tobytes() == state.x.tobytes()


def test_run_chain_unknown_walk_raises():
    with pytest.raises(ValueError, match="unknown walk kind 'gibbs'"):
        run_chain(Uniform(AxisCube(2)), np.zeros(2), 5, walk="gibbs")


def test_run_chain_ball_walk_needs_uniform_target():
    # the ball walk tests membership only: on a Gaussian it would return
    # uniform points, so it refuses and names the walk that filters
    dens = Gaussian(AxisCube(2, half_width=5.0), a=4.0)
    with pytest.raises(ValueError, match="metropolis"):
        run_chain(dens, np.zeros(2), 10, walk="ball_walk", rng=RngStream(1))
    # a support restriction of a uniform density is still uniform
    small = Uniform(AxisCube(2)).restricted_to(Ball(2, radius=0.5))
    X = run_chain(small, np.zeros(2), 10, walk="ball_walk", rng=RngStream(1))
    assert np.all(np.linalg.norm(X, axis=1) <= 0.5)


def test_run_chain_without_rng_uses_seed_zero():
    dens = Uniform(AxisCube(2))
    X_default = run_chain(dens, np.zeros(2), 20, walk="ball_walk", delta=0.5)
    X_zero = run_chain(dens, np.zeros(2), 20, walk="ball_walk", rng=0, delta=0.5)
    assert np.array_equal(X_default, X_zero)


def test_run_chain_rejects_bad_start():
    dens = Uniform(AxisCube(2))
    with pytest.raises(WalkError):
        run_chain(dens, np.array([5.0, 0.0]), 10, walk="ball_walk", rng=RngStream(0))


def test_metropolis_1d_gaussian_law():
    # standard normal restricted to [-8, 8]; KS against the normal CDF
    body = AxisCube(1, half_width=8.0)
    dens = Gaussian(body, a=1.0)
    X = run_chain(dens, np.zeros(1), 12000, walk="metropolis", burn_in=500,
                  thin=5, rng=RngStream(17), delta=1.2)
    stat = stats.kstest(X[:, 0], stats.norm.cdf).statistic
    assert stat < 0.02


def test_hit_and_run_gaussian_two_dim():
    body = AxisCube(2, half_width=8.0)
    dens = Gaussian(body, a=1.0)
    X = run_chain(dens, np.zeros(2), 6000, burn_in=200, thin=3, rng=RngStream(21))
    stat = stats.kstest(X[:, 0], stats.norm.cdf).statistic
    assert stat < 0.03
    # orthogonal coordinates decorrelate
    assert abs(np.corrcoef(X.T)[0, 1]) < 0.05


def test_sample_chord_point_truncated_normal_law():
    # quadratic profile exp(-(a/2)t^2 + b t): truncated N(b/a, 1/a)
    dens = Gaussian(AxisCube(1, half_width=2.0), a=1.0)
    gen = RngStream(3).generator()
    lo, hi = -2.0, 2.0
    x = np.zeros(1)
    u = np.ones(1)
    draws = np.array([sample_chord_point(dens, x, u, lo, hi, gen)
                      for _ in range(4000)])
    ref = stats.truncnorm(lo, hi)
    stat = stats.kstest(draws, ref.cdf).statistic
    assert stat < 0.03
    assert draws.min() >= lo and draws.max() <= hi


def test_sample_chord_point_offcenter_gaussian():
    dens = Gaussian(AxisCube(1, half_width=3.0), a=4.0,
                    center=np.array([0.5]))
    gen = RngStream(5).generator()
    draws = np.array([sample_chord_point(dens, np.zeros(1), np.ones(1),
                                         -3.0, 3.0, gen)
                      for _ in range(4000)])
    # N(0.5, 1/4) truncated to [-3, 3]
    ref = stats.truncnorm((-3 - 0.5) * 2, (3 - 0.5) * 2, loc=0.5, scale=0.5)
    assert stats.kstest(draws, ref.cdf).statistic < 0.03


def test_sample_chord_point_exponential_slope():
    # boltzmann on a chord: density proportional to exp(b t)
    dens = Boltzmann(AxisCube(1, half_width=1.0), alpha=3.0,
                     c=np.array([1.0]))
    gen = RngStream(6).generator()
    draws = np.array([sample_chord_point(dens, np.zeros(1), np.ones(1),
                                         -1.0, 1.0, gen)
                      for _ in range(4000)])
    # exp(-3t) on [-1, 1]; CDF via the shifted exponential
    ref = stats.truncexpon(b=6.0, loc=-1.0, scale=1.0 / 3.0)
    assert stats.kstest(draws, ref.cdf).statistic < 0.03


def test_sample_chord_point_extreme_tail_window():
    dens = Gaussian(AxisCube(1, half_width=9.0), a=1.0)
    gen = RngStream(7).generator()
    draws = np.array([sample_chord_point(dens, np.zeros(1), np.ones(1),
                                         8.0, 8.5, gen)
                      for _ in range(2000)])
    assert draws.min() >= 8.0 and draws.max() <= 8.5
    ref = stats.truncnorm(8.0, 8.5)
    assert stats.kstest(draws, ref.cdf).statistic < 0.04


@pytest.mark.parametrize("x0, lo, hi", [(45.0, -5.0, -4.0), (-45.0, 4.0, 5.0)])
def test_sample_chord_point_far_tail_window(x0, lo, hi):
    # x + t lies in [40, 41] (or its mirror), where ndtr underflows to 0;
    # the logconcave rejection's envelope there is flat for about 1/40 and
    # then falls at rate about 40.  The standard normal tail beyond a has
    # mean a + 1/a - 2/a^3 + O(a^-5).
    dens = Gaussian(AxisCube(1, half_width=50.0), a=1.0)
    gen = RngStream(8).generator()
    x = np.array([x0])
    draws = np.array([sample_chord_point(dens, x, np.ones(1), lo, hi, gen)
                      for _ in range(4000)])
    assert draws.min() >= lo and draws.max() <= hi
    points = np.abs(x0 + draws)
    a = 40.0
    se = points.std(ddof=1) / np.sqrt(points.size)
    assert abs(points.mean() - (a + 1.0 / a - 2.0 / a ** 3)) < 4.0 * se


def _chord_case(name):
    """(density, x, u, lo, hi) for the logconcave chord sampler law tests."""
    e1 = np.array([1.0, 0.0])
    slant = np.array([0.8, -0.6])      # orthogonal to x: t* = 0, d = 0.5
    x = np.array([0.3, 0.4])
    if name == "mode-inside":
        dens = Exponential(Ball(2, radius=2.0), alpha=2.0)
        return (dens, x, e1) + dens.body.chord(x, e1)
    if name == "mode-outside":
        # closest point to the origin at t = -0.3, left of the window
        return Exponential(Ball(2, radius=2.0), alpha=2.0), x, e1, 0.1, 1.2
    if name == "laplace-kink":
        dens = Exponential(Ball(2, radius=2.0), alpha=2.0)
        x0 = np.array([0.5, 0.0])       # line through the origin: d = 0
        return (dens, x0, e1) + dens.body.chord(x0, e1)
    if name == "far-line":
        dens = Exponential(Ball(2, radius=5.0), alpha=50.0)
        x0 = np.array([0.0, 3.0])       # alpha d = 150
        return (dens, x0, e1) + dens.body.chord(x0, e1)
    if name == "near-uniform":
        dens = Exponential(Ball(2, radius=1.0), alpha=1e-3)
        return (dens, x, slant) + dens.body.chord(x, slant)
    if name == "tilted":
        dens = Tilted(Exponential(Ball(2, radius=2.0), alpha=1.5),
                      np.array([0.8, -0.4]), np.array([[1.0, 0.3], [0.3, 0.5]]))
        return (dens, x, slant) + dens.body.chord(x, slant)
    if name == "pushforward":
        # the law of y = M z + shift, z exponential, along y + t slant is
        # z's law along M^-1 (y - shift) + t M^-1 slant: a non-unit direction
        M = np.array([[1.5, 0.6], [0.0, 0.8]])
        shift = np.array([0.2, -0.1])
        y = M @ x + shift
        z, v = np.linalg.solve(M, y - shift), np.linalg.solve(M, slant)
        dens = Exponential(Ball(2, radius=2.0), alpha=2.0)
        return (dens, z, v) + dens.body.chord(z, v)
    # quadratic profiles, alpha = 0
    if name == "gauss-interior":
        dens = Gaussian(AxisCube(2, half_width=3.0), a=2.0, center=np.array([0.3, -0.2]))
        return (dens, x, slant) + dens.body.chord(x, slant)
    line = Gaussian(AxisCube(1, half_width=50.0), a=1.0)
    if name == "gauss-mode-left":
        # mode t = 0 left of the window: clipped to lo
        return line, np.zeros(1), np.ones(1), 1.0, 2.5
    if name == "gauss-mode-right":
        return line, np.zeros(1), np.ones(1), -2.5, -1.0
    if name == "gauss-far-tail":
        # x + t in [40, 41], 40 standard deviations out
        return line, np.array([45.0]), np.ones(1), -5.0, -4.0
    if name in ("boltzmann-rising", "boltzmann-falling"):
        # slope b = -alpha c.u along e1 of either sign: mode at hi or lo
        c = np.array([-1.0, 0.5]) if name == "boltzmann-rising" else np.array([1.0, 0.5])
        dens = Boltzmann(Ball(2, radius=2.0), alpha=3.0, c=c)
        return (dens, x, e1) + dens.body.chord(x, e1)
    if name == "tiny-a":
        # a = 1e-200 next to b = -2: the mode b/a lies far beyond lo
        dens = Tilted(Boltzmann(Ball(2, radius=2.0), alpha=2.0, c=e1), np.zeros(2), 1e-200)
        return (dens, x, e1) + dens.body.chord(x, e1)
    if name == "huge-a":
        # a = 1e12: standard deviation 1e-6, mode at t = -1e-6
        dens = Gaussian(AxisCube(2), a=1e12, center=np.array([0.1, 0.2]))
        return dens, np.array([0.1 + 1e-6, 0.2]), e1, -4e-6, 3e-6
    raise KeyError(name)


def _quad_chord_cdf(dens, x, u, lo, hi, cells=512):
    """CDF of the chord law from scipy quad on the density's own log_density,
    exact at the cell nodes and linear in between."""
    ts = np.linspace(lo, hi, cells + 1)

    def logf(t):
        return dens.log_density(x + t * u)

    peak = max(logf(t) for t in ts[1:-1])
    mass = [integrate.quad(lambda t: math.exp(logf(t) - peak), a, b)[0]
            for a, b in zip(ts[:-1], ts[1:])]
    cdf = np.concatenate([[0.0], np.cumsum(mass)])
    return lambda s: np.interp(s, ts, cdf / cdf[-1])


_CHORD_CASES = ("mode-inside", "mode-outside", "laplace-kink", "far-line",
                "near-uniform", "tilted", "pushforward",
                "gauss-interior", "gauss-mode-left", "gauss-mode-right",
                "gauss-far-tail", "boltzmann-rising", "boltzmann-falling",
                "tiny-a", "huge-a")


@pytest.mark.parametrize("case", _CHORD_CASES)
def test_logconcave_chord_sampler_against_quadrature_oracle(case):
    # every non-flat chord profile is drawn by the logconcave rejection,
    # an exponential's radial one and a quadratic one alike; the oracle
    # integrates log_density
    dens, x, u, lo, hi = _chord_case(case)
    gen = RngStream(8).generator()
    draws = np.array([sample_chord_point(dens, x, u, lo, hi, gen)
                      for _ in range(3000)])
    assert draws.min() >= lo and draws.max() <= hi
    oracle = _quad_chord_cdf(dens, x, u, lo, hi)
    assert stats.kstest(draws, oracle).statistic < 0.035


def _reference_chord_coeffs(density, x, u):
    """Chord coefficients of an exponential, a Gaussian, a Boltzmann
    density, or a tilt of one, from numpy vector products."""
    if isinstance(density, Tilted):
        alpha, tstar, d2, a, b = _reference_chord_coeffs(density.base, x, u)
        Bu = density.B @ u
        return (alpha, tstar, d2, a + float(u @ Bu),
                b + float(density.c @ u) - float(x @ Bu))
    if isinstance(density, Gaussian):
        return (0.0, 0.0, 0.0, density.a * float(u @ u),
                -density.a * float(u @ (x - density.center)))
    if isinstance(density, Boltzmann):
        return (0.0, 0.0, 0.0, 0.0, -density.alpha * float(density.c @ u))
    uu = float(u @ u)
    tstar = -float(x @ u) / uu
    r = x + tstar * u
    return (density.alpha * math.sqrt(uu), tstar, float(r @ r) / uu, 0.0, 0.0)


def _reference_logconcave_chord(rng, alpha, tstar, d, a, b, lo, hi):
    """The logconcave chord rejection written with a rise closure, one
    envelope per branch and min/max clipping.  Every profile but the
    radial-only one, quadratic ones (alpha = 0) included, takes its mode
    and its unit-drop points by bisection."""
    radial_only = a == 0.0 and b == 0.0
    if radial_only:
        m = min(max(tstar, lo), hi)
    else:
        m = walks._chord_mode(alpha, tstar, d, a, b, lo, hi)
    hm = math.hypot(m - tstar, d)

    def rise(t):
        ht = math.hypot(t - tstar, d)
        radial = (t + m - 2.0 * tstar) / (ht + hm) if ht + hm > 0.0 else 0.0
        return (t - m) * (b - 0.5 * a * (t + m) - alpha * radial)

    def unit_drop(end):
        if rise(end) > -1.0:
            return end, 0.0
        t = walks._bisect(lambda s: rise(s) + 1.0, m, end)
        return t, -rise(t) / abs(t - m)

    if radial_only:
        off = abs(m - tstar)
        rest = (2.0 * hm + 1.0 / alpha) / alpha
        root = math.sqrt(off * off + rest)
        near = rest / (root + off)
        wl, wr = (root + off, near) if m >= tstar else (near, root + off)
        fl, lam_l = max(m - wl, lo), 1.0 / wl
        fr, lam_r = min(m + wr, hi), 1.0 / wr
    else:
        fl, lam_l = unit_drop(lo)
        fr, lam_r = unit_drop(hi)
    cut_l = math.expm1(-lam_l * (fl - lo)) if fl > lo else 0.0
    cut_r = math.expm1(-lam_r * (hi - fr)) if fr < hi else 0.0
    left = -math.exp(-lam_l * (m - fl)) * cut_l / lam_l if cut_l else 0.0
    right = -math.exp(-lam_r * (fr - m)) * cut_r / lam_r if cut_r else 0.0
    flat = fr - fl
    total = left + flat + right
    while True:
        v = rng.random() * total
        if v < left:
            t = max(fl + math.log1p(cut_l * (v / left)) / lam_l, lo)
            log_env = -lam_l * (m - t)
        elif v < left + flat:
            t = min(fl + (v - left), fr)
            log_env = 0.0
        else:
            w = min((v - left - flat) / right, 1.0)
            t = min(fr - math.log1p(cut_r * w) / lam_r, hi)
            log_env = -lam_r * (t - m)
        if rng.random() < math.exp(min(rise(t) - log_env, 0.0)):
            return t


def _reference_chord_point(density, x, u, lo, hi, rng):
    alpha, tstar, d2, a, b = _reference_chord_coeffs(density, x, u)
    return _reference_logconcave_chord(rng, alpha, tstar, math.sqrt(d2),
                                       max(a, 0.0), b, lo, hi)


def _reference_hit_and_run_step(density, state, rng):
    u = walks.unit_direction(rng, density.n)
    lo, hi = density.body.chord(state.x, u)
    if hi - lo > walks._DEGENERATE_CHORD * max(1.0, abs(lo), abs(hi)):
        state.x = state.x + _reference_chord_point(density, state.x, u, lo, hi, rng) * u


@pytest.mark.parametrize("case", ["cube4", "ball5", "tilted"])
def test_hit_and_run_on_exponentials_makes_the_reference_draws(case):
    # the float-native step computes what the numpy formulas do up to the
    # summation order of the dot products, and draws the same uniforms in
    # the same order: same chain to rounding, same generator state after
    if case == "tilted":
        dens = _chord_case("tilted")[0]
    else:
        dens = Exponential(AxisCube(4) if case == "cube4" else Ball(5), alpha=3.0)
    gen, ref_gen = RngStream(31).generator(), RngStream(31).generator()
    state, ref = _chain_state(dens.body.x0), _chain_state(dens.body.x0)
    for _ in range(2000):
        hit_and_run_step(dens, state, gen)
        _reference_hit_and_run_step(dens, ref, ref_gen)
        assert np.linalg.norm(state.x - ref.x) <= 1e-12 * max(1.0, np.linalg.norm(ref.x))
    np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)


@pytest.mark.parametrize("case", _CHORD_CASES)
def test_chord_draws_match_the_reference_sampler(case):
    dens, x, u, lo, hi = _chord_case(case)
    gen, ref_gen = RngStream(32).generator(), RngStream(32).generator()
    for _ in range(200):
        t = sample_chord_point(dens, x, u, lo, hi, gen)
        want = _reference_chord_point(dens, x, u, lo, hi, ref_gen)
        assert abs(t - want) <= 1e-12 * max(abs(lo), abs(hi))
    np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)


def test_one_step_stationarity_uniform_cube():
    # push exact uniform samples through one ball-walk step; the uniform
    # law is stationary, so moments must be preserved within MC error
    body = AxisCube(3)
    dens = Uniform(body)
    gen = RngStream(11).generator()
    X = exact_sample(dens, 4000, gen)
    moved = np.empty_like(X)
    for i in range(len(X)):
        s = _chain_state(X[i])
        ball_walk_step(body, s, gen, delta=0.6)
        moved[i] = s.x
    # Var per coordinate is 1/3, se of the mean ~ sqrt(1/3/4000)
    assert np.all(np.abs(moved.mean(axis=0)) < 4 * np.sqrt(1 / 3 / 4000))
    assert np.allclose(moved.var(axis=0), 1 / 3, atol=0.03)


def test_one_step_stationarity_uniform_cube_batched():
    # the same check for the lockstep stepper: one step of every chain
    body = AxisCube(3)
    dens = Uniform(body)
    gen = RngStream(11).generator()
    X = exact_sample(dens, 4000, gen)
    logf = dens.log_density_many(X)
    rate = advance_ensemble(dens, X, logf, 1, 0.6, gen)
    assert 0.3 < rate < 0.9
    assert np.all(body.contains_many(X)) and np.all(logf == 0.0)
    assert np.all(np.abs(X.mean(axis=0)) < 4 * np.sqrt(1 / 3 / 4000))
    assert np.allclose(X.var(axis=0), 1 / 3, atol=0.03)


def test_coordinate_hit_and_run_rotated_square():
    # CHR must still mix to the right covariance on a rotated body
    theta = np.pi / 6
    Q = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    body = transform_body(AxisCube(2), Q, np.zeros(2))
    dens = Uniform(body)
    X = run_chain(dens, np.zeros(2), 6000, walk="coordinate_hit_and_run",
                  burn_in=200, thin=4, rng=RngStream(13))
    cov = np.cov(X.T)
    expected = Q @ np.diag([1 / 3, 1 / 3]) @ Q.T
    assert np.allclose(cov, expected, atol=0.035)


def test_acceptance_rate_window_default_delta():
    for n in (4, 9, 16):
        body = AxisCube(n)
        dens = Uniform(body)
        delta = default_delta(n)
        assert delta == pytest.approx(1 / np.sqrt(n))
        gen = RngStream(n).generator()
        state = _chain_state(np.zeros(n), delta=delta)
        for _ in range(2000 * n):
            ball_walk_step(body, state, gen)
        assert 0.1 < state.acceptance_rate < 0.9


def test_exact_sample_cube_uniform_law():
    dens = Uniform(AxisCube(2, half_width=1.5))
    X = exact_sample(dens, 5000, RngStream(14).generator())
    ref = stats.uniform(loc=-1.5, scale=3.0)
    for col in range(2):
        assert stats.kstest(X[:, col], ref.cdf).statistic < 0.025


def test_exact_sample_ball_radial_law():
    dens = Uniform(Ball(4, radius=2.0))
    X = exact_sample(dens, 5000, RngStream(15).generator())
    radii = np.linalg.norm(X, axis=1)
    # P(|x| <= r) = (r/2)^4
    assert stats.kstest(radii, lambda r: (np.clip(r, 0, 2) / 2.0) ** 4).statistic < 0.025


def test_exact_sample_gaussian_rejection():
    dens = Gaussian(Ball(3, radius=12.0), a=1.0)
    X = exact_sample(dens, 5000, RngStream(16).generator())
    assert stats.kstest(X[:, 0], stats.norm.cdf).statistic < 0.025


def test_exact_sample_exponential_radial_law():
    # exp(-alpha |x|) in R^3 has |x| ~ Gamma(3, 1/alpha); radius 50 cuts
    # off a negligible e^-100 of it
    dens = Exponential(Ball(3, radius=50.0), alpha=2.0)
    radii = np.linalg.norm(exact_sample(dens, 20000, RngStream(17).generator()),
                           axis=1)
    mean, var = 3 / 2.0, 3 / 4.0
    # Gamma(3)'s excess kurtosis is 6/3 = 2, so Var(s^2) ~ (2 + 2) var^2 / N
    assert abs(radii.mean() - mean) < 4.0 * np.sqrt(var / radii.size)
    assert abs(radii.var(ddof=1) - var) < 4.0 * np.sqrt(4.0 * var ** 2 / radii.size)
    cube = AxisCube(2, half_width=0.5)
    X = exact_sample(Exponential(cube, alpha=1.0), 2000, RngStream(18).generator())
    assert X.shape == (2000, 2) and cube.contains_many(X).all()


def _assert_moments(X, mean, cov):
    """Whitened by the exact moments, the sample's mean is 0 and its
    covariance I, each within a few standard errors."""
    m, n = X.shape
    Z = (X - mean) @ sym_inv_sqrt(cov)
    assert np.abs(Z.mean(axis=0)).max() < 4.5 / np.sqrt(m)
    # whitened simplex coordinates have kurtosis up to about 9, so a
    # covariance entry's standard error is at most 3 / sqrt(m)
    assert np.abs(Z.T @ Z / m - np.eye(n)).max() < 13.0 / np.sqrt(m)


def test_exact_sample_simplex_law():
    # the first n of n + 1 normalized Exp(1) draws: Dirichlet(1, ..., 1),
    # whose coordinates are Beta(1, n) and whose coordinate sum is Beta(n, 1)
    n = 5
    X = exact_sample(Uniform(simplex(n)), 40000, RngStream(19).generator())
    assert simplex(n).contains_many(X).all()
    _assert_moments(X, *simplex_moments(n))
    assert stats.kstest(X[:, 0], lambda x: 1.0 - (1.0 - x) ** n).statistic < 0.01
    assert stats.kstest(X.sum(axis=1), lambda s: s ** n).statistic < 0.01


def test_exact_sample_transformed_law():
    # an affine image of the simplex, a stretched ball and an ellipsoid
    # {x : x^T E x <= 1}: the base's law pushed through x -> M x + shift
    # stays in the image, with the pushed moments M mean + shift and
    # M cov M^T, which is E^{-1} / (n + 2) for the ellipsoid
    gen = RngStream(24).generator()
    M = np.eye(4) + 0.4 * gen.standard_normal((4, 4))
    shift = gen.standard_normal(4)
    mean, cov = simplex_moments(4)
    D = np.diag([2.0, 1.0, 0.5, 0.25])
    E = M @ M.T + 0.5 * np.eye(4)
    cases = [(transform_body(simplex(4), M, shift), M @ mean + shift, M @ cov @ M.T),
             (transform_body(Ball(4), D, shift), shift, D @ D / 6.0),
             (ellipsoid(E), np.zeros(4), np.linalg.inv(E) / 6.0)]
    for body, mean_x, cov_x in cases:
        assert isinstance(body, TransformedBody)
        X = exact_sample(Uniform(body), 40000, gen)
        assert body.contains_many(X).all()
        _assert_moments(X, mean_x, cov_x)


@pytest.mark.parametrize("body, a, center", [
    (simplex(4), 20.0, np.array([0.3, 0.1, 0.2, 0.1])),
    # far outside the ball: only the exact sup of the Gaussian on the
    # ball, exp(-a/2), keeps the uniform envelope's ratio <= 1
    (Ball(3), 1.0, np.array([2.0, 0.0, 0.0])),
])
def test_gaussian_uniform_envelope_matches_gaussian_proposals(body, a, center,
                                                              monkeypatch):
    # reference: Gaussian proposals kept where they land in the body
    gen = RngStream(25).generator()
    ref = []
    while sum(len(R) for R in ref) < 20000:
        P = center + gen.standard_normal((200000, body.n)) / np.sqrt(a)
        ref.append(P[body.contains_many(P)])
    ref = np.concatenate(ref)[:20000]

    # the rule picks uniform proposals, which never test membership
    def no_membership(X):
        raise AssertionError("the Gaussian envelope was chosen")

    monkeypatch.setattr(body, "contains_many", no_membership)
    X = exact_sample(Gaussian(body, a, center), 20000, RngStream(26).generator())
    for stat in (lambda Y: Y[:, 0], lambda Y: np.sum((Y - center) ** 2, axis=1)):
        assert stats.ks_2samp(stat(X), stat(ref)).pvalue > 1e-3


@pytest.mark.parametrize("alpha, uniform_envelope", [(1.0, True), (5.0, False)])
def test_exponential_on_a_ball_has_the_truncated_gamma_radius(alpha, uniform_envelope,
                                                              monkeypatch):
    # exp(-alpha |x|) on B(0, 1) in R^3: P(|x| <= r) = gammainc(3, alpha r) /
    # gammainc(3, alpha).  The ball's uniform law is the envelope while
    # its volume is below Gamma(3) 3 vol(B_3) / alpha^3, alpha < 6^(1/3);
    # it tests no membership, which the radial Gamma law does
    n, body = 3, Ball(3)
    calls = []
    contains_many = body.contains_many
    monkeypatch.setattr(body, "contains_many",
                        lambda X: calls.append(len(X)) or contains_many(X))
    X = exact_sample(Exponential(body, alpha), 20000, RngStream(32).generator())
    assert (not calls) == uniform_envelope
    radii = np.linalg.norm(X, axis=1)
    cdf = lambda r: gammainc(n, alpha * np.clip(r, 0.0, 1.0)) / gammainc(n, alpha)
    assert stats.kstest(radii, cdf).pvalue > 1e-3


def test_exponential_on_an_off_centre_ball_divides_by_its_sup():
    # B(2 e1, 1/2) misses 0, and exp(-|x|) peaks on it at 1.5 e1, where the
    # uniform envelope keeps every proposal; at 2.5 e1 it keeps e^-1 of them
    body = Ball(3, radius=0.5, center=np.array([2.0, 0.0, 0.0]))
    dens = Exponential(body, 1.0)
    _, accept = walks._exact_law(dens, RngStream(33).generator())
    assert accept(np.tile([1.5, 0.0, 0.0], (1000, 1))).all()
    m, p = 20000, math.exp(-1.0)
    share = accept(np.tile([2.5, 0.0, 0.0], (m, 1))).mean()
    assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / m)
    # reference: uniform proposals kept with probability exp(-|x|) <= 1
    X = exact_sample(dens, m, RngStream(34).generator())
    gen = RngStream(35).generator()
    P = ball_cloud(gen, 10 * m, 3, body.center, body.radius)
    ref = P[gen.random(len(P)) < np.exp(-np.linalg.norm(P, axis=1))][:m]
    assert len(ref) == m and body.contains_many(X).all()
    assert stats.ks_2samp(np.linalg.norm(X, axis=1),
                          np.linalg.norm(ref, axis=1)).pvalue > 1e-3


def test_gaussian_on_a_wide_ball_keeps_gaussian_proposals():
    # vol(ball) exceeds (2 pi / a)^(n/2): Gaussian proposals accept more,
    # and the draws are those of plain Gaussian rejection
    body, center = Ball(3, radius=12.0), np.array([0.5, 0.0, 0.0])
    X = exact_sample(Gaussian(body, 1.0, center), 3000, RngStream(27).generator())
    P = center + RngStream(27).generator().standard_normal((3000, 3))
    assert X.tobytes() == P[body.contains_many(P)][:3000].tobytes()


@pytest.mark.parametrize("rho", [1.05, 1.3])
def test_uniform_on_square_and_disc_proposes_from_the_smaller(rho, monkeypatch):
    # [-1, 1]^2 cut by the disc of radius rho: at 1.05 the disc (area
    # 3.46) is the envelope, at 1.3 the square (area 4 < 5.31); the
    # envelope's own membership is never tested.  The unit disc lies in
    # both, so the share of draws in it is pi over the area of the
    # intersection, the disc less its four segments beyond the sides
    body = BallIntersection(AxisCube(2), rho)
    envelope = body.ball if math.pi * rho ** 2 < 4.0 else body.base

    def no_membership(X):
        raise AssertionError("the larger body was proposed from")

    monkeypatch.setattr(envelope, "contains_many", no_membership)
    m = 20000
    X = exact_sample(Uniform(body), m, RngStream(28).generator())
    monkeypatch.undo()
    assert body.ball.contains_many(X).all() and body.base.contains_many(X).all()
    segment = rho ** 2 * math.acos(1.0 / rho) - math.sqrt(rho ** 2 - 1.0)
    p = math.pi / (math.pi * rho ** 2 - 4.0 * segment)
    share = np.mean(np.einsum("ij,ij->i", X, X) <= 1.0)
    assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / m)


def test_uniform_on_a_ball_inside_a_cube_is_the_ball_law():
    # B(0, 0.9) lies in [-1, 1]^4, so P(|x| <= r) = (r / 0.9)^4
    body = BallIntersection(AxisCube(4), 0.9)
    X = exact_sample(Uniform(body), 5000, RngStream(29).generator())
    radii = np.linalg.norm(X, axis=1)
    cdf = lambda r: (np.clip(r, 0.0, 0.9) / 0.9) ** 4
    assert stats.kstest(radii, cdf).statistic < 0.025


def test_gaussian_on_a_ball_intersection_keeps_gaussian_proposals():
    # the intersection owns no uniform law, so a Gaussian on it is drawn
    # from its unrestricted law however small the body: sloc's truncated
    # supports rely on that
    body = BallIntersection(AxisCube(3), 1.2)
    X = exact_sample(Gaussian(body, 1.0), 3000, RngStream(30).generator())
    gen = RngStream(30).generator()
    kept = []
    while sum(len(K) for K in kept) < 3000:
        P = gen.standard_normal((3000, 3))
        kept.append(P[body.contains_many(P)])
    assert X.tobytes() == np.concatenate(kept)[:3000].tobytes()


def test_warm_start_inside_support():
    for n in (2, 8):
        dens = Uniform(AxisCube(n))
        x0 = warm_start(dens, RngStream(20 + n).generator())
        assert dens.log_density(x0) > -np.inf


def _rounded_simplex8_gaussian():
    mean, cov = simplex_moments(8)
    W = sym_inv_sqrt(cov)
    return Gaussian(transform_body(simplex(8), W, -W @ mean), a=1.0)


def test_warm_start_is_one_exact_draw_when_rejection_accepts():
    dens = _rounded_simplex8_gaussian()
    x0 = warm_start(dens, RngStream(40).generator())
    exact = exact_sample(dens, 1, RngStream(40).generator())[0]
    assert x0.tobytes() == exact.tobytes()


def test_warm_start_falls_back_to_hit_and_run_after_budget():
    # a standard Gaussian almost never lands in the unrounded simplex.  As
    # a plain polytope it has no uniform law to propose from, so the
    # 100 n^2 = 6400 Gaussian proposals run out and hit-and-run takes over
    dens = Gaussian(plain_polytope(simplex(8)), a=1.0)
    x0 = warm_start(dens, RngStream(41).generator())
    assert dens.log_density(x0) > -np.inf
    gen = RngStream(41).generator()
    with pytest.raises(WalkError):
        exact_sample(dens, 1, gen, max_batches=25)
    state = ChainState(dens.body.x0.copy())
    for _ in range(6400):
        hit_and_run_step(dens, state, gen)
    assert x0.tobytes() == state.x.tobytes()


def test_warm_start_lets_a_library_value_error_through(monkeypatch):
    # only NoExactSampler and WalkError send warm_start to its fallback; a
    # builtin ValueError from inside exact_sample is a bug and surfaces
    dens = _rounded_simplex8_gaussian()

    def broken(X):
        raise ValueError("broken membership")

    monkeypatch.setattr(dens.body, "contains_many", broken)
    with pytest.raises(ValueError, match="broken membership"):
        warm_start(dens, RngStream(42).generator())


def test_no_exact_sampler_is_typed_and_warm_start_falls_back():
    # a tilt with B = t I has an exact law; one with a non-scalar B, or
    # over an exponential base, has none
    flat = Gaussian(AxisCube(3), a=0.0)
    skewed = Tilted(Uniform(AxisCube(3)), np.ones(3), np.diag([0.5, 0.5, 0.25]))
    over_exp = Tilted(Exponential(AxisCube(3), 1.0), np.ones(3), 0.5)
    for dens in (flat, skewed, over_exp):
        with pytest.raises(NoExactSampler):
            exact_sample(dens, 1, RngStream(43).generator())
        x0 = warm_start(dens, RngStream(43).generator(), burn_in=50)
        assert dens.log_density(x0) > -np.inf


def test_run_chain_without_start_point_warm_starts_on_its_stream():
    # x0 = None is warm_start then run_chain on the same generator
    dens = Gaussian(simplex(3), a=2.0)
    g1, g2 = RngStream(44).generator(), RngStream(44).generator()
    X = run_chain(dens, None, 20, walk="metropolis", rng=g1)
    ref = run_chain(dens, warm_start(dens, g2), 20, walk="metropolis", rng=g2)
    np.testing.assert_array_equal(X, ref)


@pytest.mark.parametrize("case", ["warm_start", "isotropy", "needle_root"])
def test_a_spent_exact_budget_is_spent_once(monkeypatch, case):
    # a standard Gaussian almost never lands in the unrounded simplex, and
    # as a plain polytope it has no uniform law to propose from, so every
    # exact draw spends its whole budget, in batches of max(k, 256).  One
    # rejection call, then the chain it replaces from the body's interior
    # point
    proposals, chains = [], []
    rejection, chain = walks._rejection, walks.run_chain

    def counted_rejection(propose, accept_mask, count, max_batches):
        def counted_propose(m):
            proposals[-1] += m
            return propose(m)

        proposals.append(0)
        return rejection(counted_propose, accept_mask, count, max_batches)

    def counted_chain(density, x0, n_samples, burn_in=0, **kwargs):
        chains.append((x0, burn_in))
        return chain(density, x0, n_samples, burn_in=burn_in, **kwargs)

    monkeypatch.setattr(walks, "_rejection", counted_rejection)
    monkeypatch.setattr(walks, "run_chain", counted_chain)
    n = 8
    body = plain_polytope(simplex(n))
    dens = Gaussian(body, a=1.0)
    warm = 100 * n * n
    if case == "warm_start":
        x = warm_start(dens, RngStream(60).generator())
        assert body.contains(x)
        # warm_start's chain is its burn-in: one sample, 6400 steps apart
        spent, burn_in = warm, 0
    elif case == "isotropy":
        k = 64 * n
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            iterated_gaussian_isotropy(body, RngStream(61), max_iters=1)
        spent, burn_in = -(-(warm + k * n) // k) * k, warm
    else:
        k = 64
        # x_0 <= x_1 holds on half the simplex, by its symmetry
        E = HalfspaceSet(np.eye(n)[0] - np.eye(n)[1], 0.0)
        res = needle_decompose(dens, E, eps=0.1, max_depth=0, k=k,
                               rng=RngStream(62))
        assert res.meta["n_exact"] == 0
        # 64 proposals per step of the cell's own chain, one per step of
        # the warm-up, 117 batches in all
        burn_in = warm + 30 * n
        spent = -(-(warm + 64 * (30 * n + 2 * k)) // 256) * 256
    assert proposals == [spent]
    assert len(chains) == 1
    assert chains[0][0] is body.x0 and chains[0][1] == burn_in


@pytest.mark.parametrize("dens", [
    Uniform(Ball(3)), Uniform(AxisCube(3)), Uniform(simplex(8)),
    Uniform(plain_polytope(simplex(8))), Gaussian(AxisCube(3), a=1.0),
    Gaussian(ellipsoid(np.diag([1.0 / 36.0, 1.0, 1.0])), a=1.0),
    Gaussian(Ball(3, radius=12.0), a=1.0), Exponential(AxisCube(3, 0.01), 1.0),
    Tilted(Uniform(AxisCube(3)), np.ones(3), 2.0),
    Boltzmann(AxisCube(3), 1.0, np.array([1.0, -2.0, 0.0])),
    Uniform(RestrictedBody(AxisCube(3), np.eye(3)[:1], [-0.2],
                           np.array([-0.6, 0.0, 0.0]))),
    Uniform(BallIntersection(AxisCube(3), 1.5)),
], ids=lambda d: f"{d.kind}-{d.body.kind}")
def test_exact_sample_of_no_rows_draws_nothing(dens):
    gen = RngStream(63).generator()
    X = exact_sample(dens, 0, gen)
    assert X.shape == (0, dens.n)
    assert gen.random() == RngStream(63).generator().random()


def test_gaussian_on_cube_draws_truncated_normal_coordinates():
    # coordinate 0 is centred in the cube, coordinate 1 has its mean far
    # below it (the lower bound lies 20 sd above the mean, where ndtr
    # rounds to 1, so only the reflected draw has mass), coordinate 2 has
    # its mean just above it
    body = AxisCube(3, half_width=1.0, center=np.array([0.0, 1.0, -0.5]))
    sd = 0.8
    mean = np.array([0.1, -16.0, 1.0])
    dens = Gaussian(body, a=1.0 / sd ** 2, center=mean)
    m = 40000
    X = exact_sample(dens, m, RngStream(45).generator())
    assert X.shape == (m, 3) and np.all(body.contains_many(X))
    lo, hi = body.center - 1.0, body.center + 1.0
    for i in range(3):
        law = stats.truncnorm((lo[i] - mean[i]) / sd, (hi[i] - mean[i]) / sd,
                              loc=mean[i], scale=sd)
        se = law.std() / math.sqrt(m)
        assert abs(X[:, i].mean() - law.mean()) <= 4.0 * se
        assert X[:, i].var() == pytest.approx(law.var(), rel=0.05)
        assert stats.kstest(X[:, i], law.cdf).pvalue > 1e-3


def test_gaussian_on_cube_in_the_deep_tail_raises():
    # 60 sd between the mean and the cube: no mass left in double
    # precision, so the vectorized draw refuses instead of clipping
    dens = Gaussian(AxisCube(2), a=1.0, center=np.array([0.0, -61.0]))
    with pytest.raises(WalkError, match="far tail"):
        exact_sample(dens, 10, RngStream(46).generator())


def test_trunc_exp_many_draws_truncated_exponential_coordinates():
    # slopes rising, falling, flat, steep (slope times half-width 80) and
    # 1e-300, on an off-center cube of half-width 2.5.  The distance from
    # a coordinate's heavy end (hi for a positive slope, lo for a negative
    # one) is truncexpon; a flat or 1e-300 slope is the uniform law, which
    # truncexpon cannot express (its cdf reads 1 at b = 5e-300)
    w = 2.5
    slope = np.array([0.8, -1.3, 0.0, 80.0 / w, 1e-300, -1e-300])
    center = np.array([0.5, -1.0, 2.0, 0.0, 3.0, -2.0])
    lo, hi = center - w, center + w
    m = 20000
    X = _trunc_exp_many(RngStream(64).generator(), m, slope, lo, hi)
    assert X.shape == (m, 6) and np.all((lo <= X) & (X <= hi))
    for i, s in enumerate(slope):
        dist = hi[i] - X[:, i] if s > 0.0 else X[:, i] - lo[i]
        if abs(s) * 2.0 * w > 1e-12:
            beta = abs(s)
            law = stats.truncexpon(b=2.0 * w * beta, scale=1.0 / beta)
        else:
            law = stats.uniform(0.0, 2.0 * w)
        assert stats.kstest(dist, law.cdf).pvalue > 1e-3, i


def _boltzmann_box_moments(slope, lo, hi):
    """Mean and variance per coordinate of exp(slope_i t) on [lo_i, hi_i].

    With y = (t - mid)/h on [-1, 1] the density is exp(-beta y), beta =
    -slope h: mean 1/beta - coth(beta), variance 1/beta^2 - 1/sinh^2(beta),
    and 0, 1/3 at beta = 0."""
    mid, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    beta = -slope * h
    safe = np.where(beta == 0.0, 1.0, beta)
    mean = np.where(beta == 0.0, 0.0, 1.0 / safe - 1.0 / np.tanh(safe))
    var = np.where(beta == 0.0, 1.0 / 3.0, 1.0 / safe ** 2 - 1.0 / np.sinh(safe) ** 2)
    return mid + h * mean, h * h * var


def test_boltzmann_on_cube_is_one_truncated_exponential_per_coordinate():
    # exp(-alpha c.x) on [center - w, center + w]^4: coordinate i has mean
    # center_i + w (1/beta - coth beta), beta = alpha c_i w
    w, alpha = 1.5, 2.0
    center = np.array([0.0, 1.0, -0.5, 2.0])
    c = np.array([1.0, -0.4, 0.0, 3.0])
    body = AxisCube(4, half_width=w, center=center)
    m = 40000
    X = exact_sample(Boltzmann(body, alpha, c), m, RngStream(65).generator())
    assert X.shape == (m, 4) and np.all(body.contains_many(X))
    mean, var = _boltzmann_box_moments(-alpha * c, center - w, center + w)
    assert np.all(np.abs(X.mean(axis=0) - mean) <= 4.0 * np.sqrt(var / m))


def _box_cell(base):
    # x_0 <= 0.2 and x_1 >= 0.5 cut [-1, 1]^3 to the box
    # [-1, 0.2] x [0.5, 1] x [-1, 1]
    A = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    return RestrictedBody(base, A, [0.2, -0.5], np.array([-0.4, 0.75, 0.0]))


@pytest.mark.parametrize("base", ["cube", "polytope"])
def test_uniform_on_a_cut_cube_is_the_box_law(base):
    # the cube's closed-form law, or (as a plain polytope) its rejection
    # from the bounding ball, conditioned on the cuts: per coordinate the
    # uniform law on [l, h], mean (l + h)/2 and variance (h - l)^2/12
    if base == "cube":
        body = AxisCube(3)
    else:
        body = Polytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6), 1.0,
                        math.sqrt(3.0), np.zeros(3))
    cell = _box_cell(body)
    m = 20000
    X = exact_sample(Uniform(cell), m, RngStream(49).generator())
    assert X.shape == (m, 3) and np.all(cell.contains_many(X))
    lo, hi = np.array([-1.0, 0.5, -1.0]), np.array([0.2, 1.0, 1.0])
    w = hi - lo
    mean_se = w / math.sqrt(12.0 * m)
    # Var of the sample variance is (mu_4 - sigma^4)/m, mu_4 = w^4/80
    var_se = w ** 2 * math.sqrt(1.0 / 80.0 - 1.0 / 144.0) / math.sqrt(m)
    assert np.all(np.abs(X.mean(axis=0) - 0.5 * (lo + hi)) <= 4.0 * mean_se)
    assert np.all(np.abs(X.var(axis=0) - w ** 2 / 12.0) <= 4.0 * var_se)


def test_gaussian_on_a_cut_cube_is_the_truncated_normal():
    # N(0.3, 1) on [-1, 1] cut at x_0 <= -0.2 is N(0.3, 1) on [-1, -0.2]
    center = np.array([0.3, 0.0, 0.0])
    cell = RestrictedBody(AxisCube(3), np.eye(3)[:1], [-0.2], np.array([-0.6, 0.0, 0.0]))
    m = 20000
    X = exact_sample(Gaussian(cell, a=1.0, center=center), m, RngStream(50).generator())
    assert np.all(cell.contains_many(X))
    law = stats.truncnorm(-1.3, -0.5, loc=0.3, scale=1.0)
    assert abs(X[:, 0].mean() - law.mean()) <= 4.0 * law.std() / math.sqrt(m)
    assert stats.kstest(X[:, 0], law.cdf).pvalue > 1e-3


def test_boltzmann_on_a_cut_cube_stays_in_the_cell():
    # the cube's law conditioned on the box cuts is one truncated
    # exponential per side of the box [-1, 0.2] x [0.5, 1] x [-1, 1]
    cell = _box_cell(AxisCube(3))
    alpha, c = 1.5, np.array([1.0, -2.0, 0.5])
    m = 20000
    X = exact_sample(Boltzmann(cell, alpha, c), m, RngStream(66).generator())
    assert X.shape == (m, 3) and np.all(cell.contains_many(X))
    mean, var = _boltzmann_box_moments(-alpha * c, np.array([-1.0, 0.5, -1.0]),
                                       np.array([0.2, 1.0, 1.0]))
    assert np.all(np.abs(X.mean(axis=0) - mean) <= 4.0 * np.sqrt(var / m))


def test_a_thin_cell_spends_its_budget_and_raises():
    # the cell x_0 >= 0.999 holds 1/2000 of the 6-cube: two 256-row
    # batches hold no 64 of its points.  The budget bounds every proposal
    cell = RestrictedBody(AxisCube(6), -np.eye(6)[:1], [-0.999], np.full(6, 0.9995))
    proposed = []
    member = cell.contains_many
    cell.contains_many = lambda X: proposed.append(len(X)) or member(X)
    with pytest.raises(WalkError, match="acceptance rate too low"):
        exact_sample(Uniform(cell), 64, RngStream(51).generator(), max_batches=2)
    assert proposed == [256, 256]


def test_a_density_without_exact_law_on_a_cut_body_has_none():
    # a Boltzmann density has its law on a cube (and so on a cut cube),
    # but none on a ball
    cell = _box_cell(Ball(3))
    with pytest.raises(NoExactSampler):
        exact_sample(Boltzmann(cell, 1.0, np.ones(3)), 10, RngStream(52).generator())


def test_identity_tilts_are_the_gaussians_they_equal():
    c = np.array([1.0, -2.0, 0.5])
    # over a uniform cube, exp(c.x - t|x|^2/2) is Gaussian(t, c/t) on the
    # cube: the same draws from the same stream
    cube = AxisCube(3, half_width=1.5)
    tilted = exact_sample(Tilted(Uniform(cube), c, 2.0), 500, RngStream(47).generator())
    direct = exact_sample(Gaussian(cube, 2.0, c / 2.0), 500, RngStream(47).generator())
    assert tilted.tobytes() == direct.tobytes()
    # over exp(-(a/2)|x - m|^2) it is N((a m + c)/(a + t), I/(a + t))
    a, t, center = 2.0, 1.5, np.array([0.5, 0.0, -1.0])
    dens = Tilted(Gaussian(Ball(3, 60.0), a=a, center=center), c, t)
    m = 40000
    X = exact_sample(dens, m, RngStream(48).generator())
    mean = (a * center + c) / (a + t)
    np.testing.assert_allclose(X.mean(axis=0), mean, atol=4.0 / math.sqrt((a + t) * m))
    np.testing.assert_allclose(np.cov(X.T), np.eye(3) / (a + t), atol=0.01)
    for i in range(3):
        assert stats.kstest(X[:, i], stats.norm(mean[i], 1.0 / math.sqrt(a + t)).cdf
                            ).pvalue > 1e-3
