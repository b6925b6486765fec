import numpy as np
import pytest

from klslab.bodies import AxisCube, Ball, BallIntersection
from klslab.densities import (Boltzmann, Exponential, Gaussian, Pushforward,
                              Tilted, Uniform, WithBody, affine_pushforward,
                              body_of, chord_profile)


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
    rowwise = np.array([til._log_inside(x) for x in X])
    np.testing.assert_allclose(til._log_inside_many(X), rowwise, rtol=1e-12)


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
    small = WithBody(base, BallIntersection(base.body, 1.0))
    inside = np.array([0.5, 0.0])
    outside = np.array([2.0, 0.0])
    assert small.log_density(inside) == pytest.approx(base.log_density(inside))
    assert small.log_density(outside) == -np.inf
    assert base.log_density(outside) > -np.inf
    assert small.kind == "gaussian" and small.base is base
    with pytest.raises(ValueError):
        WithBody(base, Ball(3))


def test_affine_pushforward_uniform_is_uniform():
    d = Uniform(AxisCube(2))
    M = np.array([[2.0, 0.0], [0.0, 1.0]])
    out = affine_pushforward(d, M)
    assert isinstance(out, Uniform)
    assert out.body.contains(np.array([1.9, 0.9]))
    assert not out.body.contains(np.array([2.1, 0.0]))


def test_affine_pushforward_boltzmann_cost():
    d = Boltzmann(AxisCube(2), alpha=1.0, c=np.array([1.0, 1.0]))
    M = np.diag([2.0, 4.0])
    out = affine_pushforward(d, M)
    assert isinstance(out, Boltzmann)
    # log-density must match the change of variables up to a constant
    x = np.array([0.4, -0.2])
    y = M @ x
    delta1 = out.log_density(y) - out.log_density(M @ np.zeros(2))
    delta2 = d.log_density(x) - d.log_density(np.zeros(2))
    assert delta1 == pytest.approx(delta2)


def test_pushforward_generic_matches_change_of_variables():
    d = Exponential(Ball(2, radius=2.0), alpha=1.0)
    M = np.array([[1.0, 0.3], [0.0, 1.0]])
    out = affine_pushforward(d, M, shift=np.array([0.1, 0.0]))
    assert isinstance(out, Pushforward)
    x = np.array([0.5, -0.3])
    y = M @ x + np.array([0.1, 0.0])
    base_delta = d.log_density(x) - d.log_density(np.zeros(2))
    push_delta = out.log_density(y) - out.log_density(np.array([0.1, 0.0]))
    assert push_delta == pytest.approx(base_delta)


def test_body_of():
    b = Ball(2)
    assert body_of(Uniform(b)) is b
    assert body_of(b) is b
