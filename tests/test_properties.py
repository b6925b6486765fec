"""Property-based checks of structural invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from klslab.bodies import AxisCube, Ball, simplex
from klslab.cli import _fmt
from klslab.config import parse_config
from klslab.densities import (Boltzmann, Exponential, Gaussian, Tilted,
                              Uniform)
from klslab.diagnostics import conductance_tv_bound

_dims = st.integers(min_value=1, max_value=6)
_coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _vec(n):
    return st.lists(_coord, min_size=n, max_size=n).map(np.array)


@st.composite
def _body_point_dir(draw):
    n = draw(_dims)
    scale = draw(st.floats(min_value=0.5, max_value=3.0))
    y = draw(_vec(n))
    u = draw(_vec(n))
    assume(float(np.linalg.norm(u)) >= 0.1)
    return n, scale, y, u / np.linalg.norm(u)


@given(_body_point_dir(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_chord_endpoints_bracket_membership(data, use_ball):
    n, scale, y, u = data
    if use_ball:
        body = Ball(n, radius=scale)
        x = 0.8 * scale * y / np.sqrt(n)   # norm <= 0.8 * radius
    else:
        body = AxisCube(n, half_width=scale)
        x = 0.8 * scale * y
    lo, hi = body.chord(x, u)
    assert lo < 0 < hi
    eps = 1e-6 * (1.0 + abs(hi) + abs(lo))
    assert body.contains(x + (hi - eps) * u)
    assert body.contains(x + (lo + eps) * u)
    assert not body.contains(x + (hi + eps) * u)
    assert not body.contains(x + (lo - eps) * u)


_CHORD_KINDS = ["uniform", "gaussian", "exponential", "boltzmann",
                "exponential-with-body", "tilted-exponential"]


def _chord_density(kind, n):
    """A density of the given kind on the ball of radius 2."""
    ball = Ball(n, radius=2.0)
    ramp = np.linspace(-1.0, 1.0, n)
    if kind == "uniform":
        return Uniform(ball)
    if kind == "gaussian":
        return Gaussian(ball, a=1.3, center=0.2 * ramp)
    if kind == "exponential":
        return Exponential(ball, alpha=1.7)
    if kind == "boltzmann":
        return Boltzmann(ball, alpha=0.9, c=ramp + 0.5)
    if kind == "exponential-with-body":
        return Exponential(Ball(n, radius=3.0), alpha=1.7).restricted_to(ball)
    P = np.outer(ramp, ramp) + np.diag(1.0 + np.arange(n))
    return Tilted(Exponential(ball, alpha=1.7), ramp, P / n)


@given(st.sampled_from(_CHORD_KINDS), _body_point_dir(),
       st.floats(min_value=0.3, max_value=3.0),
       st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_chord_coeffs_match_log_density(kind, data, u_scale, fracs):
    # log f(x + t u) - log f(x) = phi(t) - phi(0) with
    # phi(t) = -alpha sqrt((t - t*)^2 + d^2) - (a/2) t^2 + b t, for any |u|
    n, _, y, u = data
    dens = _chord_density(kind, n)
    x = 1.6 * y / np.sqrt(n)
    u = u_scale * u
    alpha, tstar, d2, a, b = dens._chord_coeffs(x, u)
    assert alpha >= 0.0 and d2 >= 0.0 and a >= 0.0

    def phi(t):
        return -alpha * np.hypot(t - tstar, np.sqrt(d2)) - 0.5 * a * t * t + b * t

    lo, hi = dens.body.chord(x, u)
    for frac in fracs:
        t = lo + frac * (hi - lo)
        got = dens.log_density(x + t * u) - dens.log_density(x)
        want = phi(t) - phi(0.0)
        assert abs(got - want) <= 1e-9 * (1.0 + abs(got))


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                          allow_nan=False),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_simplex_membership_from_coordinate_sum(weights):
    n = len(weights)
    body = simplex(n)
    x = np.array(weights) / (sum(weights) + 1.0)   # positive, sum < 1
    assert body.contains(x)
    assert not body.contains(x + 2.0 * np.ones(n))  # sum exceeds 1
    assert not body.contains(x - (x.max() + 1e-6) * np.eye(n)[0])


@given(st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=1.0, max_value=1e6),
       st.integers(min_value=0, max_value=500))
@settings(max_examples=100, deadline=None)
def test_tv_bound_envelope_properties(phi, M, t):
    b = conductance_tv_bound(phi, M, t)
    assert 0.0 <= b <= np.sqrt(M) * (1.0 + 1e-12)
    assert conductance_tv_bound(phi, M, t + 1) <= b + 1e-15
    assert conductance_tv_bound(phi, M, 0) == np.sqrt(M)


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_csv_float_format_roundtrips(v):
    assert float(_fmt(v)) == v


@given(st.floats(min_value=1e-12, max_value=1e12, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_config_float_values_roundtrip(v):
    cfg = parse_config(f"[walk]\ndelta = {v!r}\n")
    assert cfg.walk["delta"] == v
