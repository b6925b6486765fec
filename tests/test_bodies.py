import math

import numpy as np
import pytest
from conftest import ellipsoid, plain_polytope, simplex_moments
from hypothesis import given, settings, strategies as st

from klslab import bodies
from klslab.bodies import (AxisCube, Ball, BallIntersection, Body, BodyError,
                           Polytope, RestrictedBody, TransformedBody, simplex,
                           transform_body)


def test_ball_chord_oracle():
    # unit ball, x = (0.5, 0, 0), direction e1: endpoints solve
    # (0.5 + t)^2 = 1  ->  t in (-1.5, 0.5)
    b = Ball(3)
    lo, hi = b.chord(np.array([0.5, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert lo == pytest.approx(-1.5, abs=1e-12)
    assert hi == pytest.approx(0.5, abs=1e-12)


def test_ball_chord_unnormalized_direction():
    b = Ball(2)
    lo, hi = b.chord(np.zeros(2), np.array([2.0, 0.0]))
    assert lo == pytest.approx(-0.5, abs=1e-12)
    assert hi == pytest.approx(0.5, abs=1e-12)


def test_cube_chord_and_radii():
    c = AxisCube(4, half_width=2.0)
    assert c.r == pytest.approx(2.0)
    assert c.R == pytest.approx(2.0 * np.sqrt(4))
    lo, hi = c.chord(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]))
    assert (lo, hi) == (pytest.approx(-2.0), pytest.approx(2.0))
    # diagonal direction exits all faces simultaneously
    u = np.ones(4)
    lo, hi = c.chord(np.zeros(4), u)
    assert hi == pytest.approx(2.0, rel=1e-9)


def test_cube_contains_many():
    c = AxisCube(2)
    X = np.array([[0.0, 0.0], [1.0, 1.0], [1.0001, 0.0], [-2.0, 0.0]])
    assert list(c.contains_many(X)) == [True, True, False, False]


def test_polytope_requires_interior_point():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.ones(4)
    p = Polytope(A, b, r=0.5, R=np.sqrt(2.0), x0=np.zeros(2))
    assert p.contains(np.array([0.9, 0.9]))
    with pytest.raises(BodyError):
        Polytope(A, b, r=0.5, R=np.sqrt(2.0), x0=np.array([2.0, 0.0]))


def test_simplex_membership_and_moments():
    s = simplex(3)
    assert s.contains(np.full(3, 0.2))
    assert not s.contains(np.full(3, 0.5))
    mean, cov = simplex_moments(3)
    assert mean == pytest.approx(np.full(3, 0.25))
    assert cov[0, 0] == pytest.approx(3 / (16 * 5))
    assert cov[0, 1] == pytest.approx(-1 / (16 * 5))


def test_ellipsoid_radii_and_chord():
    E = ellipsoid(np.diag([1.0, 4.0]))
    assert E.r == pytest.approx(0.5)
    assert E.R == pytest.approx(1.0)
    lo, hi = E.chord(np.zeros(2), np.array([0.0, 1.0]))
    assert hi == pytest.approx(0.5, abs=1e-12)


def test_ball_intersection():
    base = AxisCube(2, half_width=3.0)
    bi = BallIntersection(base, 1.0)
    assert bi.contains(np.array([0.5, 0.5]))
    assert not bi.contains(np.array([2.0, 0.0]))
    lo, hi = bi.chord(np.zeros(2), np.array([1.0, 0.0]))
    assert (lo, hi) == (pytest.approx(-1.0), pytest.approx(1.0))


def test_restricted_body_cut_and_chord():
    base = AxisCube(2, half_width=1.0)
    cut = RestrictedBody(base, np.array([[1.0, 0.0]]), [0.0],
                         x0=np.array([-0.5, 0.0]))
    assert cut.contains(np.array([-0.9, 0.0]))
    assert not cut.contains(np.array([0.1, 0.0]))
    lo, hi = cut.chord(np.array([-0.5, 0.0]), np.array([1.0, 0.0]))
    assert lo == pytest.approx(-0.5)
    assert hi == pytest.approx(0.5)
    deeper = cut.with_cut(np.array([0.0, 1.0]), 0.0, np.array([-0.5, -0.5]))
    assert not deeper.contains(np.array([-0.5, 0.5]))


def test_restricted_body_bounding_ball_follows_its_moved_center():
    # the cell {x_1 >= 0} of the 6-cube, centred near a corner: its point
    # (0, -1, ..., -1) lies 4.46 from x0, beyond the cube's own R = 2.449,
    # so keeping the base's R breaks body in B(x0, R)
    from klslab.densities import Uniform
    from klslab.walks import exact_sample

    n = 6
    base = AxisCube(n)
    cell = RestrictedBody(base, -np.eye(n)[:1], [0.0], np.full(n, 0.95))
    far = np.array([0.0] + [-1.0] * (n - 1))
    assert cell.contains(far)
    assert np.linalg.norm(far - cell.x0) == pytest.approx(4.46, abs=0.01)
    assert cell.R == pytest.approx(base.R + 0.95 * np.sqrt(n))
    # every vertex of the cell lies in the ball
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * n)).reshape(n, -1).T
    corners[:, 0] = np.maximum(corners[:, 0], 0.0)
    assert np.all(np.linalg.norm(corners - cell.x0, axis=1) <= cell.R)
    # the law is uniform on [0, 1] x [-1, 1]^5: mean (1/2, 0, ..., 0)
    m = 20000
    X = exact_sample(Uniform(cell), m, np.random.default_rng(31))
    assert np.all(cell.contains_many(X))
    se = np.array([1.0 / np.sqrt(12.0)] + [1.0 / np.sqrt(3.0)] * (n - 1)) / np.sqrt(m)
    mean = np.array([0.5] + [0.0] * (n - 1))
    assert np.all(np.abs(X.mean(axis=0) - mean) <= 4.0 * se)


def test_transform_body_kinds():
    ball = Ball(3)
    scaled = transform_body(ball, 2.0 * np.eye(3), np.zeros(3))
    assert isinstance(scaled, Ball)
    assert scaled.radius == pytest.approx(2.0)
    # an ellipsoid is a transformed ball, and stays one under a further map
    E = transform_body(ellipsoid(np.eye(2)), np.diag([1.0, 2.0]), np.zeros(2))
    assert type(E) is TransformedBody and type(E.base) is Ball
    assert E.contains(np.array([0.0, 1.9]))
    assert not E.contains(np.array([1.9, 0.0]))
    cube = AxisCube(2)
    sheared = transform_body(cube, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    assert sheared.contains(sheared.x0)
    assert sheared.contains(np.array([1.4, 0.9]))
    assert not sheared.contains(np.array([1.6, 1.0]))


def test_transform_of_transformed_body_composes():
    # one wrapper over the original base with map M2 M1 and shift
    # M2 s1 + s2, whose membership is the nested wrapper's off the boundary
    gen = np.random.default_rng(41)
    base = simplex(5)
    M1, M2 = (np.eye(5) + 0.3 * gen.standard_normal((5, 5)) for _ in range(2))
    s1, s2 = gen.standard_normal(5), gen.standard_normal(5)
    once = transform_body(base, M1, s1)
    nested = TransformedBody(once, M2, s2)
    composed = transform_body(once, M2, s2)
    assert type(composed) is TransformedBody and composed.base is base
    np.testing.assert_array_equal(composed.M, M2 @ M1)
    np.testing.assert_array_equal(composed.shift, M2 @ s1 + s2)
    np.testing.assert_allclose(composed.x0, nested.x0, atol=1e-12)
    assert transform_body(composed, M1, s1).base is base

    # base points with every facet slack at least 1e-6 away from zero
    XB = base.x0 + 0.25 * gen.uniform(-1.0, 1.0, (4000, 5))
    slack = base.b - XB @ base.A.T
    XB = XB[np.all(np.abs(slack) > 1e-6, axis=1)]
    truth = base.contains_many(XB)
    assert 100 < truth.sum() < len(XB) - 100
    Y = (XB @ M1.T + s1) @ M2.T + s2
    np.testing.assert_array_equal(composed.contains_many(Y), truth)
    np.testing.assert_array_equal(nested.contains_many(Y), truth)
    assert [composed.contains(y) for y in Y] == truth.tolist()

    # r and R still hold around x0: the r-ball inside, every chord end
    # within R
    U = gen.standard_normal((500, 5))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    assert composed.contains_many(composed.x0 + (1 - 1e-9) * composed.r * U).all()
    for u in U:
        lo, hi = composed.chord(composed.x0, u)
        assert max(-lo, hi) <= composed.R * (1 + 1e-9)


def test_chord_through_boundary_points_unbounded_error():
    # direction with no exit would mean an unbounded body; the halfplane
    # x <= 1 alone is rejected at construction by the radius contract
    c = AxisCube(2)
    lo, hi = c.chord(np.array([0.999999, 0.0]), np.array([1.0, 0.0]))
    assert hi >= 0.0


@st.composite
def _ball_point_dir(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    # |x| <= 0.4 sqrt(5) < 1: the anchor lies inside the unit ball
    x = np.array([draw(st.floats(-0.4, 0.4)) for _ in range(n)])
    u = np.array([draw(st.floats(-1, 1)) for _ in range(n)])
    if np.linalg.norm(u) < 1e-6:
        u[0] = 1.0
    return x, u


def _kinds():
    """One body of every built-in kind, keyed by a test id."""
    gen = np.random.default_rng(2024)
    M = np.eye(4) + 0.3 * gen.standard_normal((4, 4))
    S = gen.standard_normal((5, 5))
    cube = AxisCube(5, half_width=0.7, center=np.full(5, 0.25))
    A = gen.standard_normal((3, 5))
    return {
        "ball": Ball(5, radius=1.3, center=np.linspace(-0.2, 0.2, 5)),
        "cube": cube,
        "simplex": simplex(8),
        "restricted": RestrictedBody(cube, A, A @ cube.center + 0.3, cube.center),
        "transformed": transform_body(simplex(4), M),
        "ball_intersection": BallIntersection(AxisCube(4, half_width=2.0), 1.5),
        "ellipsoid": ellipsoid(S @ S.T + np.eye(5)),
    }


KINDS = _kinds()


def test_every_body_kind_has_its_own_chord():
    # the base class has no generic chord: a kind must give its own.  A
    # subclass that keeps its parent's kind (Simplex, a Polytope) keeps
    # its oracles too, so each kind is set by one class, which defines them
    classes = [cls for cls in vars(bodies).values()
               if isinstance(cls, type) and issubclass(cls, Body) and cls is not Body]
    setters = [cls for cls in classes if "kind" in cls.__dict__]
    assert len({cls.kind for cls in classes}) == len(setters) == 6
    for cls in setters:
        assert "chord" in cls.__dict__ and "contains" in cls.__dict__, cls.__name__
    with pytest.raises(NotImplementedError):
        Body(2, 1.0, 1.0, np.zeros(2)).chord(np.zeros(2), np.ones(2))


def test_log_volume_known_values():
    # pi, 2, the 5-ball's 8 pi^2 / 15 times r^5, a cube's (2w)^n, the
    # simplex's 1/n!, and an affine image's |det M| times its base's
    assert math.exp(Ball(2).log_volume()) == pytest.approx(np.pi)
    assert math.exp(Ball(1).log_volume()) == pytest.approx(2.0)
    assert math.exp(Ball(5, radius=2.0, center=np.ones(5)).log_volume()) == \
        pytest.approx(8.0 * np.pi ** 2 / 15.0 * 2.0 ** 5)
    assert math.exp(AxisCube(3, half_width=1.5).log_volume()) == pytest.approx(27.0)
    for n in (1, 3, 8):
        assert math.exp(simplex(n).log_volume()) == pytest.approx(1.0 / math.factorial(n))
    M = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 3.0]])  # det -6
    cube = transform_body(AxisCube(3), M, np.ones(3))
    assert math.exp(cube.log_volume()) == pytest.approx(6.0 * 8.0)
    E = np.diag([4.0, 1.0, 0.25])  # semi-axes 1/2, 1, 2
    assert math.exp(ellipsoid(E).log_volume()) == pytest.approx(4.0 * np.pi / 3.0)


def test_uniform_law_draws_lie_in_the_body():
    # restricted bodies, ball intersections, plain polytopes and their
    # images have no closed-form law
    gen = np.random.default_rng(6)
    with_law = sorted(k for k, b in KINDS.items() if b.uniform_law(gen) is not None)
    assert with_law == ["ball", "cube", "ellipsoid", "simplex", "transformed"]
    plain = plain_polytope(simplex(3))
    assert plain.uniform_law(gen) is None
    assert transform_body(plain, 2.0 * np.eye(3) + 0.1).uniform_law(gen) is None
    for kind in with_law:
        body = KINDS[kind]
        X = body.uniform_law(gen)(3000)
        assert X.shape == (3000, body.n)
        assert body.contains_many(X).all(), kind


def test_zero_direction_rejected():
    for body in KINDS.values():
        with pytest.raises(BodyError):
            body.chord(body.x0, np.zeros(body.n))


def test_nan_anchor_or_direction_rejected():
    for body in KINDS.values():
        u = np.random.default_rng(3).standard_normal(body.n)
        x = body.x0.copy()
        x[body.n // 2] = np.nan
        with pytest.raises(BodyError):
            body.chord(x, u)
        # the NaN coordinate is one the direction does not move along
        u_flat = u.copy()
        u_flat[body.n // 2] = 0.0
        with pytest.raises(BodyError):
            body.chord(x, u_flat)
        u[body.n // 2] = np.nan
        with pytest.raises(BodyError):
            body.chord(body.x0, u)


def test_unbounded_polytope_direction_rejected():
    # the halfplane x_1 <= 1 with a (false) bounded guarantee
    p = Polytope(np.array([[1.0, 0.0]]), [1.0], r=0.5, R=2.0, x0=np.zeros(2))
    with pytest.raises(BodyError):
        p.chord(np.zeros(2), np.array([0.0, 1.0]))


@settings(max_examples=60, deadline=None)
@given(_ball_point_dir())
def test_chord_endpoints_lie_on_boundary(pd):
    x, u = pd
    b = Ball(len(x), radius=1.0)
    lo, hi = b.chord(x, u)
    assert lo <= 0.0 <= hi
    for t in (lo, hi):
        y = x + t * u
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-7)
    # interior of the chord stays inside
    mid = x + 0.5 * (lo + hi) * u
    assert b.contains(mid)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10 ** 6))
def test_cube_chord_membership_consistency(n, salt):
    gen = np.random.default_rng(salt)
    c = AxisCube(n)
    x = gen.uniform(-0.9, 0.9, size=n)
    u = gen.standard_normal(n)
    lo, hi = c.chord(x, u)
    inside = x + np.linspace(lo + 1e-9, hi - 1e-9, 5)[:, None] * u
    assert c.contains_many(inside).all()
    assert not c.contains(x + (hi + 1e-6 * max(1, abs(hi))) * u)


# ---------------------------------------------------------------------------
# bit-for-bit oracle: the vectorized numpy forms of every chord and
# membership test, which the scalar implementations must reproduce exactly


def _ref_interval(num, den):
    t_lo, t_hi = -np.inf, np.inf
    pos = den > 0
    neg = den < 0
    with np.errstate(over="ignore"):
        if np.any(pos):
            t_hi = float(np.min(num[pos] / den[pos]))
        if np.any(neg):
            t_lo = float(np.max(num[neg] / den[neg]))
    return t_lo, t_hi


def _ref_chord(body, x, u):
    if isinstance(body, AxisCube):
        d = x - body.center
        return _ref_interval(np.concatenate([body.half_width - d, body.half_width + d]),
                             np.concatenate([u, -u]))
    if isinstance(body, Ball):
        d = x - body.center
        uu = float(np.dot(u, u))
        beta = float(np.dot(u, d)) / uu
        disc = beta * beta - (float(np.dot(d, d)) - body.radius ** 2) / uu
        root = np.sqrt(max(disc, 0.0))
        return -beta - root, -beta + root
    if isinstance(body, Polytope):
        return _ref_interval(body.b - body.A @ x, body.A @ u)
    if isinstance(body, BallIntersection):
        lo1, hi1 = _ref_chord(body.base, x, u)
        lo2, hi2 = _ref_chord(body.ball, x, u)
        return max(lo1, lo2), min(hi1, hi2)
    if isinstance(body, RestrictedBody):
        lo1, hi1 = _ref_chord(body.base, x, u)
        lo2, hi2 = _ref_interval(body.b - body.A @ x, body.A @ u)
        return max(lo1, lo2), min(hi1, hi2)
    if isinstance(body, TransformedBody):
        return _ref_chord(body.base, body._Minv @ (x - body.shift), body._Minv @ u)
    raise TypeError(type(body).__name__)


def _ref_contains(body, x):
    if isinstance(body, AxisCube):
        return bool(np.all(np.abs(x - body.center) <= body.half_width * (1 + 1e-12)))
    if isinstance(body, Ball):
        return float(np.dot(x - body.center, x - body.center)) <= body.radius ** 2 * (1 + 1e-12)
    if isinstance(body, Polytope):
        return bool(np.all(body.A @ x <= body.b + 1e-12))
    if isinstance(body, BallIntersection):
        return _ref_contains(body.ball, x) and _ref_contains(body.base, x)
    if isinstance(body, RestrictedBody):
        return _ref_contains(body.base, x) and bool(np.all(body.A @ x <= body.b + 1e-12))
    if isinstance(body, TransformedBody):
        return _ref_contains(body.base, body._Minv @ (x - body.shift))
    raise TypeError(type(body).__name__)


def _bits(pair):
    # float.hex tells -0.0 from 0.0, which == does not
    return tuple(float(t).hex() for t in pair)


def _facet_anchor(body, gen):
    """A point on the boundary: the chord end along a random direction."""
    u = gen.standard_normal(body.n)
    _, hi = body.chord(body.x0, u)
    return body.x0 + hi * u


def _oracle_cases(body, gen):
    """(body, anchor, direction) triples: random, with zero components, with
    a denormal component (its ratio overflows to inf), and anchored on the
    boundary."""
    n = body.n
    out = []
    for _ in range(40):
        x = body.x0 + 0.5 * body.r * gen.uniform(-1, 1, n) / np.sqrt(n)
        out.append((body, x, gen.standard_normal(n)))
    for _ in range(10):
        x = body.x0 + 0.5 * body.r * gen.uniform(-1, 1, n) / np.sqrt(n)
        u = gen.standard_normal(n)
        u[gen.permutation(n)[: max(1, n // 2)]] = 0.0
        out.append((body, x, u))
        u = gen.standard_normal(n)
        u[gen.integers(n)] = 5e-324
        out.append((body, x, u))
    for _ in range(10):
        out.append((body, _facet_anchor(body, gen), gen.standard_normal(n)))
    return out


def _exact_facet_cases(kind, body):
    """(body, anchor) pairs whose face rows have a numerator of exactly
    +0.0, or -0.0 for a cut with offset -0.0."""
    if kind == "cube":
        x = body.center.copy()
        x[0] += body.half_width
        x[-1] -= body.half_width
        return [(body, x)]
    if kind == "simplex":
        x = body.x0.copy()
        x[0] = 0.0
        return [(body, x)]
    if kind == "restricted":
        x0 = body.base.center.copy()
        x0[0] = -0.2
        cut = RestrictedBody(body.base, np.eye(body.n)[:1], [-0.0], x0)
        x0[0] = 0.0
        return [(cut, x0)]
    return []


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_chords_and_membership_match_vectorized_oracle_bit_for_bit(kind):
    body = KINDS[kind]
    gen = np.random.default_rng(sorted(KINDS).index(kind))
    cases = _oracle_cases(body, gen)
    facet = _exact_facet_cases(kind, body)
    cases += [(b, x, u) for b, x in facet for u in gen.standard_normal((10, body.n))]
    zeros = 0
    for b, x, u in cases:
        got = b.chord(x, u)
        assert _bits(got) == _bits(_ref_chord(b, x, u))
        assert all(type(t) is float for t in got)
        zeros += 0.0 in got
        # membership inside, on the chord ends and beyond them
        lo, hi = got
        for t in (0.0, lo, hi, 0.5 * (lo + hi), hi + 1e-9 * (1 + abs(hi)),
                  lo - 1e-3 * (1 + abs(lo))):
            y = x + t * u
            assert b.contains(y) == _ref_contains(b, y)
    assert zeros >= 10 * len(facet)     # every exact-facet chord ends at +-0.0
    y = body.x0.copy()
    y[0] = np.nan
    assert body.contains(y) is _ref_contains(body, y) is False


def test_interval_from_rows_matches_vectorized_oracle():
    from klslab.bodies import _interval_from_rows
    gen = np.random.default_rng(12)
    for m in (1, 3, 8, 9, 40):
        for _ in range(50):
            num = gen.uniform(-0.1, 2.0, m)
            den = gen.standard_normal(m)
            den[gen.random(m) < 0.2] = 0.0
            num[gen.random(m) < 0.2] = 0.0
            den[gen.random(m) < 0.1] = 5e-324
            got = _interval_from_rows(num, den)
            assert _bits(got) == _bits(_ref_interval(num, den))
            num[gen.integers(m)] = np.nan
            got = _interval_from_rows(num, den)
            assert _bits(got) == _bits(_ref_interval(num, den))
    # no row constrains t: the whole line, for the caller to judge
    assert _interval_from_rows(np.zeros(0), np.zeros(0)) == (-np.inf, np.inf)
    assert _interval_from_rows(np.ones(2), np.zeros(2)) == (-np.inf, np.inf)
    # a NaN slope poisons both ends
    lo, hi = _interval_from_rows(np.ones(3), np.array([1.0, np.nan, -1.0]))
    assert np.isnan(lo) and np.isnan(hi)


def test_walk_norms_match_linalg_norm_bit_for_bit():
    from klslab.walks import _ball_point, unit_direction
    for n in (1, 2, 5, 8, 20):
        g1 = np.random.default_rng(n)
        g2 = np.random.default_rng(n)
        for _ in range(50):
            v = unit_direction(g1, n)
            g = g2.standard_normal(n)
            assert v.tobytes() == (g / np.linalg.norm(g)).tobytes()
            p = _ball_point(g1, n)
            g = g2.standard_normal(n)
            rad = g2.random() ** (1.0 / n)
            assert p.tobytes() == (g * (rad / np.linalg.norm(g))).tobytes()
