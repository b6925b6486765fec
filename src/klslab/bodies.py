"""Convex body oracles.

A body exposes membership, line-chord computation, and the rounding
guarantees (r, R, x0): the body contains the ball of radius r around the
interior point x0 and is contained in the ball of radius R around x0.
Chords are computed in closed form for every built-in kind.

A body also owns its uniform law: uniform_law(rng) returns draw(m), m
exact uniform points, or None when the body has none in closed form,
and a body with a law gives log_volume() beside it.  Balls, axis cubes
and the simplex have both, and a transformed body pushes its base's law
through its map and adds log |det M| to its volume, so an ellipsoid
{x : x^T E x <= 1}, built as transform_body(Ball(n), E^{-1/2}), has
them too.

The chord convention: chord(x, u) returns (t_lo, t_hi) such that
x + t*u is in the body exactly for t in [t_lo, t_hi].  For interior x
this interval contains 0.  Degenerate (zero-length) chords are legal.
Every body is bounded, so a chord end that comes out infinite or NaN (a
zero, NaN or unbounded direction, or a NaN anchor) raises BodyError.

A walk asks for one chord and a few membership tests per step on vectors
of a handful of entries, where numpy's per-call overhead outweighs the
arithmetic.  The built-in kinds therefore compute their scalar chords
and membership on Python floats, keeping numpy only for dot and
matrix-vector products, whose summation order fixes the bits.  Python's
float + - * / are the same IEEE-754 double operations as numpy's
elementwise ones, so the results are bit for bit those of the vectorized
form (masks, np.min/np.max, np.all), which tests/test_bodies.py keeps as
its oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln


class BodyError(ValueError):
    """Raised for invalid body parameters or degenerate geometry."""


class Body:
    """Base class; concrete kinds override membership and chord."""

    kind = "abstract"

    def __init__(self, n, r, R, x0):
        if n < 1:
            raise BodyError(f"dimension must be >= 1, got {n}")
        if not (0 <= r <= R) or not np.isfinite(R):
            raise BodyError(f"need 0 <= r <= R < inf, got r={r}, R={R}")
        self.n = int(n)
        self.r = float(r)
        self.R = float(R)
        self.x0 = np.asarray(x0, dtype=float).reshape(n)

    def contains(self, x) -> bool:
        raise NotImplementedError

    def chord(self, x, u):
        raise NotImplementedError

    def uniform_law(self, rng):
        """draw(m) giving m exact uniform points of the body from rng, or
        None when the body has no closed-form uniform law."""
        return None


def ball_cloud(rng, count, n, center, radius):
    """count uniform points in the ball(s) of the given center and radius;
    center may be one point or one row per point."""
    g = rng.standard_normal((count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    rad = rng.random(count) ** (1.0 / n)
    return center + radius * g * rad[:, None]


def _interval_from_rows(num, den):
    """Solve den*t <= num rowwise and intersect.

    Rows with den == 0 impose no constraint on t (the anchor already
    satisfies them).  Returns (t_lo, t_hi), possibly equal; (-inf, inf)
    when no row constrains t, and NaN when a row is NaN.
    """
    t_lo, t_hi = -math.inf, math.inf
    for p, q in zip(num.tolist(), den.tolist()):
        if q > 0.0:
            t = p / q
            if t <= t_hi or t != t:
                t_hi = t
        elif q < 0.0:
            t = p / q
            if t >= t_lo or t != t:
                t_lo = t
        elif q != 0.0:
            return math.nan, math.nan
    return t_lo, t_hi


def _bounded(lo, hi):
    """The chord (lo, hi) of a bounded body; NaN or infinite ends mean a
    zero, NaN or unbounded direction, or a NaN anchor."""
    if -math.inf < lo and hi < math.inf:
        return lo, hi
    raise BodyError(f"chord ({lo}, {hi}) is not finite: the direction is zero, "
                    "NaN or unbounded, or the anchor is NaN")


class Ball(Body):
    kind = "ball"

    def __init__(self, n, radius=1.0, center=None):
        center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        super().__init__(n, radius, radius, center)
        self.radius = float(radius)
        self.center = center

    def contains(self, x):
        d = x - self.center
        return float(np.dot(d, d)) <= self.radius**2 * (1 + 1e-12)

    def contains_many(self, X):
        d = X - self.center
        return np.einsum("ij,ij->i", d, d) <= self.radius**2 * (1 + 1e-12)

    def chord(self, x, u):
        d = np.asarray(x, dtype=float) - self.center
        uu = float(np.dot(u, u))
        if uu <= 0.0:
            raise BodyError("chord direction has zero norm")
        beta = float(np.dot(u, d)) / uu
        gamma = (float(np.dot(d, d)) - self.radius**2) / uu
        disc = beta * beta - gamma
        if disc < 0:
            if disc > -1e-12 * max(1.0, beta * beta):
                disc = 0.0
            else:
                raise BodyError("chord anchor outside ball")
        root = math.sqrt(disc)
        return _bounded(-beta - root, -beta + root)

    def uniform_law(self, rng):
        return lambda m: ball_cloud(rng, m, self.n, self.center, self.radius)

    def log_volume(self):
        n = self.n
        return 0.5 * n * np.log(np.pi) - gammaln(0.5 * n + 1.0) + n * np.log(self.radius)


class AxisCube(Body):
    """Axis-aligned cube [center - w, center + w]^n."""

    kind = "axis_cube"

    def __init__(self, n, half_width=1.0, center=None):
        if half_width <= 0:
            raise BodyError("half_width must be positive")
        center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        super().__init__(n, half_width, half_width * np.sqrt(n), center)
        self.half_width = float(half_width)
        self.center = center

    def contains(self, x):
        return bool(np.abs(x - self.center).max() <= self.half_width * (1 + 1e-12))

    def contains_many(self, X):
        return np.all(np.abs(X - self.center) <= self.half_width * (1 + 1e-12), axis=1)

    def chord(self, x, u):
        # per coordinate, the faces at +w and -w bound t by (w - d_i)/u_i
        # and (w + d_i)/-u_i, one from above and one from below
        w = self.half_width
        d = (np.asarray(x, dtype=float) - self.center).tolist()
        t_lo, t_hi = -math.inf, math.inf
        for di, ui in zip(d, np.asarray(u, dtype=float).tolist()):
            if ui == 0.0:
                # no face bounds t here, but a NaN anchor must still raise
                if di != di:
                    return _bounded(di, di)
                continue
            up = (w - di) / ui
            down = (w + di) / -ui
            if ui < 0.0:
                up, down = down, up
            if up <= t_hi or up != up:
                t_hi = up
            if down >= t_lo or down != down:
                t_lo = down
        return _bounded(t_lo, t_hi)

    def uniform_law(self, rng):
        return lambda m: self.center + self.half_width * (2.0 * rng.random((m, self.n)) - 1.0)

    def log_volume(self):
        return self.n * math.log(2.0 * self.half_width)


class Polytope(Body):
    """Halfspace intersection {x : A x <= b} with caller-supplied guarantees."""

    kind = "halfspace_polytope"

    def __init__(self, A, b, r, R, x0):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise BodyError("A must be (m, n) with b of length m")
        super().__init__(A.shape[1], r, R, x0)
        if np.any(A @ self.x0 > b + 1e-12):
            raise BodyError("x0 is not inside the polytope")
        self.A = A
        self.b = b

    def contains(self, x):
        return bool((self.A @ x <= self.b + 1e-12).all())

    def contains_many(self, X):
        return np.all(X @ self.A.T <= self.b + 1e-12, axis=1)

    def chord(self, x, u):
        num = self.b - self.A @ np.asarray(x, dtype=float)
        den = self.A @ np.asarray(u, dtype=float)
        return _bounded(*_interval_from_rows(num, den))


class Simplex(Polytope):
    """The standard simplex {x >= 0, sum x <= 1}.

    A polytope in every oracle, kind included, that adds the closed-form
    uniform law, Dirichlet(1, ..., 1), and the log-volume -log n!.
    Guarantees: contains the ball of radius r = 1/((n + 1) sqrt(n))
    around the centroid (a safe inscribed radius), R = diameter bound 1.
    """

    def __init__(self, n):
        A = np.vstack([-np.eye(n), np.ones((1, n))])
        b = np.concatenate([np.zeros(n), [1.0]])
        # distance of centroid to each facet: 1/(n+1) to coordinate facets,
        # (1 - n/(n+1))/sqrt(n) to the diagonal facet.
        r = min(1.0 / (n + 1), 1.0 / ((n + 1) * np.sqrt(n)))
        super().__init__(A, b, r, 1.0, np.full(n, 1.0 / (n + 1)))

    def uniform_law(self, rng):
        # the first n of n + 1 Exp(1) draws over their sum
        n = self.n

        def draw(m):
            E = rng.standard_exponential((m, n + 1))
            return E[:, :n] / E.sum(axis=1, keepdims=True)

        return draw

    def log_volume(self):
        return -math.lgamma(self.n + 1.0)


def simplex(n):
    """Standard simplex {x >= 0, sum x <= 1} in R^n."""
    return Simplex(n)


class BallIntersection(Body):
    """base body intersected with a ball; the DFK phase bodies."""

    kind = "ball_intersection"

    def __init__(self, base, radius, center=None):
        center = base.x0 if center is None else np.asarray(center, dtype=float)
        self.ball = Ball(base.n, radius, center)
        # x0 of the base works whenever the ball is centered at it.
        if not (base.contains(center) and self.ball.contains(center)):
            raise BodyError("ball center must lie inside the base body")
        r = min(base.r, radius)
        R = min(base.R, radius)
        super().__init__(base.n, r, R, center)
        self.base = base

    def contains(self, x):
        return self.ball.contains(x) and self.base.contains(x)

    def contains_many(self, X):
        return self.ball.contains_many(X) & self.base.contains_many(X)

    def chord(self, x, u):
        lo1, hi1 = self.base.chord(x, u)
        lo2, hi2 = self.ball.chord(x, u)
        return (max(lo1, lo2), min(hi1, hi2))


class RestrictedBody(Body):
    """base body cut by extra halfspaces a_i . x <= b_i.

    Used by the cutting-plane driver and the needle decomposition, where
    cells accumulate cuts.  The inscribed-ball guarantee is lost (r = 0);
    callers track their own localization radius.  The body lies in the
    base's ball B(base.x0, base.R), which B(x0, base.R + |x0 - base.x0|)
    contains, so that is the bounding ball around the moved x0.
    """

    kind = "restricted"

    def __init__(self, base, A, b, x0):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        x0 = np.asarray(x0, dtype=float).reshape(base.n)
        R = base.R + float(np.linalg.norm(x0 - base.x0))
        super().__init__(base.n, 0.0, R, x0)
        if np.any(A @ self.x0 > b + 1e-9):
            raise BodyError("x0 violates a restriction halfspace")
        if not base.contains(self.x0):
            raise BodyError("x0 outside the base body")
        self.base = base
        self.A = A
        self.b = b

    def with_cut(self, a, beta, x0):
        A = np.vstack([self.A, np.asarray(a, dtype=float)])
        b = np.concatenate([self.b, [float(beta)]])
        return RestrictedBody(self.base, A, b, x0)

    def contains(self, x):
        return self.base.contains(x) and bool((self.A @ x <= self.b + 1e-12).all())

    def contains_many(self, X):
        return self.base.contains_many(X) & np.all(X @ self.A.T <= self.b + 1e-12, axis=1)

    def chord(self, x, u):
        lo1, hi1 = self.base.chord(x, u)
        num = self.b - self.A @ np.asarray(x, dtype=float)
        den = self.A @ np.asarray(u, dtype=float)
        lo2, hi2 = _interval_from_rows(num, den)
        return (max(lo1, lo2), min(hi1, hi2))


class TransformedBody(Body):
    """Image of a base body under the affine map y = M x + shift."""

    kind = "transformed"

    def __init__(self, base, M, shift=None):
        M = np.asarray(M, dtype=float)
        shift = np.zeros(base.n) if shift is None else np.asarray(shift, dtype=float)
        svals = np.linalg.svd(M, compute_uv=False)
        if svals[-1] <= 0:
            raise BodyError("transform must be invertible")
        x0 = M @ base.x0 + shift
        super().__init__(base.n, base.r * svals[-1], base.R * svals[0], x0)
        self.base = base
        self.M = M
        self.shift = shift
        self._Minv = np.linalg.inv(M)

    def contains(self, x):
        return self.base.contains(self._Minv @ (np.asarray(x, dtype=float) - self.shift))

    def contains_many(self, X):
        return self.base.contains_many((X - self.shift) @ self._Minv.T)

    def chord(self, x, u):
        xb = self._Minv @ (np.asarray(x, dtype=float) - self.shift)
        v = self._Minv @ np.asarray(u, dtype=float)
        return self.base.chord(xb, v)

    def uniform_law(self, rng):
        base = self.base.uniform_law(rng)
        if base is None:
            return None
        return lambda m: base(m) @ self.M.T + self.shift

    def log_volume(self):
        return self.base.log_volume() + float(np.linalg.slogdet(self.M)[1])


def transform_body(body, M, shift=None):
    """Affine image of a body, preserving the kind where that is exact.

    Balls and cubes stay themselves under scalings (plus translation).  A
    transformed body composes into one map over its base,
    M2 (M1 x + s1) + s2, so repeated transforms cost one matvec per oracle
    call, not one per level.  Everything else is wrapped, so the ellipsoid
    {x : x^T E x <= 1} is transform_body(Ball(n), E^{-1/2}).
    """
    M = np.asarray(M, dtype=float)
    shift = np.zeros(body.n) if shift is None else np.asarray(shift, dtype=float)
    if isinstance(body, TransformedBody):
        return transform_body(body.base, M @ body.M, M @ body.shift + shift)
    scalar = M.shape[0] == M.shape[1] and np.allclose(M, M[0, 0] * np.eye(M.shape[0]))
    if scalar and isinstance(body, Ball):
        return Ball(body.n, body.radius * abs(M[0, 0]), M @ body.center + shift)
    if scalar and isinstance(body, AxisCube):
        return AxisCube(body.n, body.half_width * abs(M[0, 0]), M @ body.center + shift)
    return TransformedBody(body, M, shift)
