import math

import numpy as np
import pytest

from klslab import densities
from klslab.bodies import AxisCube, Ball, BallIntersection
from klslab.densities import (Boltzmann, Density, Exponential, Gaussian, Tilted,
                              Uniform, chord_profile)
from klslab.rng import RngStream
from klslab.walks import exact_sample


def test_every_density_kind_has_one_log_density():
    # a kind writes its log-density once, on rows; log_density is row 0
    kinds = [cls for cls in vars(densities).values()
             if isinstance(cls, type) and issubclass(cls, Density) and cls is not Density]
    assert len(kinds) == 5
    for cls in kinds:
        assert "_log_inside_many" in cls.__dict__ and "_chord_coeffs" in cls.__dict__, \
            cls.__name__
        assert "_log_inside" not in cls.__dict__ and "log_density" not in cls.__dict__, \
            cls.__name__
    assert "_log_inside" not in Density.__dict__


def test_uniform_outside_support():
    d = Uniform(AxisCube(2))
    assert d.log_density(np.array([0.5, 0.5])) == 0.0
    assert d.log_density(np.array([2.0, 0.0])) == -np.inf
    many = d.log_density_many(np.array([[0.0, 0.0], [3.0, 0.0]]))
    assert many[0] == 0.0 and many[1] == -np.inf


def test_gaussian_log_density_convention():
    # a is the inverse variance: log f = -(a/2)|x - c|^2
    d = Gaussian(Ball(3, radius=5.0), a=2.0)
    x = np.array([1.0, 0.0, 0.0])
    assert d.log_density(x) == pytest.approx(-1.0)


def test_chord_profile_quadratic_classification():
    ball = Ball(2, radius=3.0)
    x = np.array([0.5, 0.0])
    u = np.array([1.0, 0.0])
    kind, a, b = chord_profile(Gaussian(ball, a=2.0), x, u)
    assert kind == "quad"
    assert a == pytest.approx(2.0)       # a |u|^2
    assert b == pytest.approx(-1.0)      # -a u.(x - c)
    kind, a, b = chord_profile(Uniform(ball), x, u)
    assert kind == "quad" and a == 0.0 and b == 0.0
    kind, a, b = chord_profile(Boltzmann(ball, alpha=0.5, c=np.array([2.0, 0.0])), x, u)
    assert kind == "quad" and a == 0.0
    assert b == pytest.approx(-1.0)      # -alpha c.u
    kind, g = chord_profile(Exponential(ball, alpha=1.0), x, u)
    assert kind == "generic"
    assert g(np.array([0.0]))[0] == pytest.approx(-0.5)


def test_exponential_chord_coeffs_match_the_numpy_formula():
    # the coefficients are computed on floats; up to the summation order of
    # the dot products they are the vector formulas: t* = -x.u/u.u and
    # d^2 = |x + t* u|^2/u.u, each compared on its own scale
    dens = Exponential(Ball(5, radius=3.0), alpha=1.7)
    gen = np.random.default_rng(12)
    cases = [(gen.uniform(-1.5, 1.5, 5), s * gen.standard_normal(5))
             for s in (0.01, 1.0, 40.0) for _ in range(100)]
    v = gen.standard_normal(5)
    cases += [
        (gen.standard_normal(5), np.array([0.0, 0.6, 0.0, -0.8, 0.0])),
        (gen.standard_normal(5), np.array([0.0, 0.0, 2.5, 0.0, 0.0])),
        (-0.3 * v, v),                                   # line through the origin
        (np.zeros(5), v),
        ([0.2, -0.1, 0.4, 0.0, 0.3], [1.0, 2.0, 0.0, -1.0, 0.5]),   # lists
    ]
    for x, u in cases:
        xa, ua = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        uu = float(ua @ ua)
        tstar = -float(xa @ ua) / uu
        r = xa + tstar * ua
        alpha, t, d2, a, b = dens._chord_coeffs(x, u)
        assert (a, b) == (0.0, 0.0)
        assert abs(alpha - 1.7 * math.sqrt(uu)) <= 1e-13 * alpha
        scale = float(xa @ xa) / uu + 1e-300
        assert abs(t - tstar) <= 1e-13 * math.sqrt(scale)
        assert abs(d2 - float(r @ r) / uu) <= 1e-13 * scale
        assert d2 >= 0.0
    # the line through the origin passes at distance zero, to rounding
    _, t, d2, _, _ = dens._chord_coeffs(-0.3 * v, v)
    assert t == pytest.approx(0.3, rel=1e-13) and d2 <= 1e-26


def test_tilted_scalar_vs_matrix():
    base = Gaussian(Ball(2, radius=4.0), a=1.0)
    t1 = Tilted(base, np.array([1.0, 0.0]), 0.5)
    t2 = Tilted(base, np.array([1.0, 0.0]), 0.5 * np.eye(2))
    x = np.array([0.3, -0.2])
    assert t1.log_density(x) == pytest.approx(t2.log_density(x))
    # tilt adds c.x - x.Bx/2 on top of the base
    expected = base.log_density(x) + 0.3 - 0.25 * float(x @ x)
    assert t1.log_density(x) == pytest.approx(expected)


def test_tilted_many_matches_rowwise():
    gen = np.random.default_rng(5)
    L = gen.standard_normal((4, 4))
    base = Gaussian(Ball(4, radius=6.0), a=0.7, center=np.array([0.5, -1.0, 0.2, 0.0]))
    til = Tilted(base, gen.standard_normal(4), L @ L.T)
    X = gen.uniform(-1.5, 1.5, size=(300, 4))
    # the base's -(a/2)|x - center|^2, plus c.x - x^T B x / 2
    rowwise = np.array([-0.35 * float((x - base.center) @ (x - base.center))
                        + float(til.c @ x) - 0.5 * float(x @ til.B @ x) for x in X])
    np.testing.assert_allclose(til._log_inside_many(X), rowwise, rtol=1e-12)
    np.testing.assert_allclose([til.log_density(x) for x in X], rowwise, rtol=1e-12)


def test_tilted_chord_profile():
    base = Gaussian(Ball(2, radius=4.0), a=1.0)
    til = Tilted(base, np.array([0.0, 1.0]), 2.0)
    x = np.array([0.1, 0.2])
    u = np.array([0.0, 1.0])
    kind, a, b = chord_profile(til, x, u)
    assert kind == "quad"
    assert a == pytest.approx(1.0 + 2.0)
    assert b == pytest.approx(-x[1] + 1.0 - 2.0 * x[1])


def test_with_body_restricts_support_only():
    base = Gaussian(AxisCube(2, half_width=5.0), a=1.0)
    small = base.restricted_to(BallIntersection(base.body, 1.0))
    inside = np.array([0.5, 0.0])
    outside = np.array([2.0, 0.0])
    assert small.log_density(inside) == pytest.approx(base.log_density(inside))
    assert small.log_density(outside) == -np.inf
    assert base.log_density(outside) > -np.inf
    assert type(small) is Gaussian and small.kind == "gaussian"
    assert small.a == base.a and small.center is base.center
    with pytest.raises(ValueError, match="dimension"):
        base.restricted_to(Ball(3))


def test_restricted_to_leaves_base_and_draws_inside_new_body():
    base = Gaussian(AxisCube(3, half_width=5.0), a=1.0, center=np.full(3, 0.2))
    small = base.restricted_to(Ball(3, radius=0.8))
    assert isinstance(base.body, AxisCube) and base.body.half_width == 5.0
    assert base.log_density(np.array([2.0, 0.0, 0.0])) > -np.inf
    X = exact_sample(small, 400, RngStream(1).generator())
    assert X.shape == (400, 3)
    assert np.all(np.linalg.norm(X, axis=1) <= 0.8)
    # the base still draws on its own body
    Y = exact_sample(base, 400, RngStream(1).generator())
    assert np.any(np.linalg.norm(Y, axis=1) > 0.8)

