"""Logconcave densities over convex bodies.

A density is a body plus an unnormalized log-density, evaluated up to an
additive constant and equal to -inf outside the body.  The built-in kinds:

    uniform                 1 on the body
    gaussian(a, center)     exp(-(a/2) |x - center|^2)
    exponential(alpha)      exp(-alpha |x|)
    boltzmann(alpha, c)     exp(-alpha c.x)
    tilted(base, c, B)      exp(c.x - x^T B x / 2) * base(x)
    pushforward(base, M, s) law of y = M x + s for x ~ base

Chord restrictions: for hit-and-run we need the 1-D law along a segment.
Every kind above gives that restriction in closed form,

    log f(x + t u) = -alpha sqrt((t - t*)^2 + d^2) - (a/2) t^2 + b t + const,

where the first term is the exponential's radial part (alpha = 0 for the
other kinds) and the rest is quadratic.  The walk draws from it exactly:
by inverse CDF when alpha = 0 (truncated Gaussian, exponential or
uniform) and by logconcave rejection otherwise.  chord_profile() names
the case for callers that only need to tell the two apart.
"""

from __future__ import annotations

import math

import numpy as np

from .bodies import Body, transform_body
from .linalg import quad_rows

_NEG_INF = float("-inf")


class Density:
    kind = "abstract"

    def __init__(self, body: Body):
        self.body = body
        self.n = body.n

    def log_density(self, x) -> float:
        """Unnormalized log-density; -inf outside the body."""
        if not self.body.contains(x):
            return _NEG_INF
        return self._log_inside(np.asarray(x, dtype=float))

    def log_density_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.full(X.shape[0], _NEG_INF)
        inside = self.body.contains_many(X)
        if np.any(inside):
            out[inside] = self._log_inside_many(X[inside])
        return out

    def _log_inside(self, x) -> float:
        raise NotImplementedError

    def _log_inside_many(self, X) -> np.ndarray:
        return np.array([self._log_inside(row) for row in X])

    def _chord_coeffs(self, x, u):
        """(alpha, t*, d^2, a, b) with log f(x + t u) =
        -alpha sqrt((t - t*)^2 + d^2) - (a/2) t^2 + b t + const."""
        raise NotImplementedError(f"density kind {self.kind!r} has no chord profile")


class Uniform(Density):
    kind = "uniform"

    def _log_inside(self, x):
        return 0.0

    def _log_inside_many(self, X):
        return np.zeros(X.shape[0])

    def _chord_coeffs(self, x, u):
        return (0.0, 0.0, 0.0, 0.0, 0.0)


class Gaussian(Density):
    """exp(-(a/2) |x - center|^2) restricted to the body; a >= 0."""

    kind = "gaussian"

    def __init__(self, body, a=1.0, center=None):
        super().__init__(body)
        if a < 0:
            raise ValueError("gaussian coefficient a must be >= 0")
        self.a = float(a)
        self.center = np.zeros(body.n) if center is None else np.asarray(center, dtype=float)

    def _log_inside(self, x):
        d = x - self.center
        return -0.5 * self.a * float(d @ d)

    def _log_inside_many(self, X):
        D = X - self.center
        return -0.5 * self.a * np.einsum("ij,ij->i", D, D)

    def _chord_coeffs(self, x, u):
        d = np.asarray(x, dtype=float) - self.center
        u = np.asarray(u, dtype=float)
        return (0.0, 0.0, 0.0, self.a * float(u @ u), -self.a * float(u @ d))


class Exponential(Density):
    """exp(-alpha |x|) restricted to the body."""

    kind = "exponential"

    def __init__(self, body, alpha):
        super().__init__(body)
        if alpha <= 0:
            raise ValueError("exponential rate alpha must be positive")
        self.alpha = float(alpha)

    def _log_inside(self, x):
        return -self.alpha * float(np.linalg.norm(x))

    def _log_inside_many(self, X):
        return -self.alpha * np.linalg.norm(X, axis=1)

    def _chord_coeffs(self, x, u):
        # |x + t u| = |u| sqrt((t - t*)^2 + d^2), t* the closest point to the
        # origin; d^2 from that point avoids cancelling |x|^2 - (x.u)^2/|u|^2
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        uu = float(u @ u)
        tstar = -float(x @ u) / uu
        r = x + tstar * u
        return (self.alpha * math.sqrt(uu), tstar, float(r @ r) / uu, 0.0, 0.0)


class Boltzmann(Density):
    """exp(-alpha c.x) restricted to the body."""

    kind = "boltzmann"

    def __init__(self, body, alpha, c):
        super().__init__(body)
        if alpha < 0:
            raise ValueError("boltzmann temperature parameter alpha must be >= 0")
        self.alpha = float(alpha)
        self.c = np.asarray(c, dtype=float).reshape(body.n)

    def _log_inside(self, x):
        return -self.alpha * float(self.c @ x)

    def _log_inside_many(self, X):
        return -self.alpha * (X @ self.c)

    def _chord_coeffs(self, x, u):
        b = -self.alpha * float(self.c @ np.asarray(u, dtype=float))
        return (0.0, 0.0, 0.0, 0.0, b)


class Tilted(Density):
    """exp(c.x - x^T B x / 2) times a base density.

    B may be a scalar t >= 0 (meaning t * I) or a symmetric PSD matrix.
    With a Gaussian-kind base this is the time-t localization density.
    """

    kind = "tilted"

    def __init__(self, base: Density, c, B):
        super().__init__(base.body)
        self.base = base
        self.c = np.asarray(c, dtype=float).reshape(base.n)
        if np.isscalar(B):
            if B < 0:
                raise ValueError("scalar tilt t must be >= 0")
            B = float(B) * np.eye(base.n)
        self.B = 0.5 * (np.asarray(B, dtype=float) + np.asarray(B, dtype=float).T)

    def _log_inside(self, x):
        return self.base._log_inside(x) + float(self.c @ x) - 0.5 * float(x @ self.B @ x)

    def _log_inside_many(self, X):
        return self.base._log_inside_many(X) + X @ self.c - 0.5 * quad_rows(X, self.B)

    def _chord_coeffs(self, x, u):
        alpha, tstar, d2, a, b = self.base._chord_coeffs(x, u)
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        Bu = self.B @ u
        b = b + float(self.c @ u) - float(x @ Bu)
        return (alpha, tstar, d2, a + float(u @ Bu), b)


class Pushforward(Density):
    """Law of y = M x + shift when x follows the base density."""

    kind = "pushforward"

    def __init__(self, base: Density, M, shift=None):
        M = np.asarray(M, dtype=float)
        shift = np.zeros(base.n) if shift is None else np.asarray(shift, dtype=float)
        super().__init__(transform_body(base.body, M, shift))
        self.base = base
        self.M = M
        self.shift = shift
        self._Minv = np.linalg.inv(M)

    def _log_inside(self, x):
        return self.base._log_inside(self._Minv @ (x - self.shift))

    def _log_inside_many(self, X):
        return self.base._log_inside_many((X - self.shift) @ self._Minv.T)

    def _chord_coeffs(self, x, u):
        xb = self._Minv @ (np.asarray(x, dtype=float) - self.shift)
        ub = self._Minv @ np.asarray(u, dtype=float)
        return self.base._chord_coeffs(xb, ub)


class WithBody(Density):
    """The base density's shape restricted to a different support body.

    The unnormalized log-density inside the new body is unchanged, so
    chord profiles carry over; only membership changes.  Used for support
    truncation and for conditioning on a cell of a partition.  The kind
    tag is the base's; walks.exact_sample unwraps to the base for its
    analytic parameters.
    """

    def __init__(self, base: Density, body):
        if body.n != base.n:
            raise ValueError("restriction body has the wrong dimension")
        super().__init__(body)
        self.base = base
        self.kind = base.kind

    def _log_inside(self, x):
        return self.base._log_inside(x)

    def _log_inside_many(self, X):
        return self.base._log_inside_many(X)

    def _chord_coeffs(self, x, u):
        return self.base._chord_coeffs(x, u)


def chord_profile(density, x, u):
    """Classify the 1-D restriction t -> log f(x + t u).

    Returns ("quad", a, b) when the restriction is exp(-(a/2)t^2 + b t)
    up to a constant (a >= 0; a == 0 is the exponential/uniform case),
    else ("generic", g) with g a vectorized log-density of t.
    """
    alpha, _, _, a, b = density._chord_coeffs(x, u)
    if alpha == 0.0:
        return ("quad", a, b)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)

    def g(ts):
        pts = x[None, :] + np.asarray(ts, dtype=float)[:, None] * u[None, :]
        return density._log_inside_many(pts)

    return ("generic", g)


def affine_pushforward(density, M, shift=None):
    """Pushforward under y = M x + shift, keeping the kind where exact.

    Uniform stays uniform on the image body.  Gaussian is preserved by
    similarity maps (scalar times orthogonal).  Boltzmann maps exactly to
    Boltzmann with cost M^{-T} c.  Everything else wraps.
    """
    M = np.asarray(M, dtype=float)
    shift = np.zeros(density.n) if shift is None else np.asarray(shift, dtype=float)
    body = transform_body(density.body, M, shift)
    if isinstance(density, Uniform):
        return Uniform(body)
    if isinstance(density, Boltzmann):
        Minv = np.linalg.inv(M)
        return Boltzmann(body, density.alpha, Minv.T @ density.c)
    if isinstance(density, Gaussian):
        MtM = M.T @ M
        s2 = MtM[0, 0]
        if np.allclose(MtM, s2 * np.eye(density.n)):
            return Gaussian(body, density.a / s2, M @ density.center + shift)
    return Pushforward(density, M, shift)


def body_of(obj):
    """Accept a Body or a Density and return the body."""
    if isinstance(obj, Density):
        return obj.body
    if isinstance(obj, Body):
        return obj
    raise TypeError(f"expected Body or Density, got {type(obj).__name__}")
