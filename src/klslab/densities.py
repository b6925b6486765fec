"""Logconcave densities over convex bodies.

A density is a body plus an unnormalized log-density, evaluated up to an
additive constant and equal to -inf outside the body.  The built-in kinds:

    uniform                 1 on the body
    gaussian(a, center)     exp(-(a/2) |x - center|^2)
    exponential(alpha)      exp(-alpha |x|)
    boltzmann(alpha, c)     exp(-alpha c.x)
    tilted(base, c, B)      exp(c.x - x^T B x / 2) * base(x)

Density.restricted_to(body) is the same density on another support body.

Chord restrictions: for hit-and-run we need the 1-D law along a segment.
Every kind above gives that restriction in closed form,

    log f(x + t u) = -alpha sqrt((t - t*)^2 + d^2) - (a/2) t^2 + b t + const,

where the first term is the exponential's radial part (alpha = 0 for the
other kinds) and the rest is quadratic.  The walk draws from it exactly:
one uniform when it is flat, else by logconcave rejection from a
closed-form envelope for quadratic and radial-only profiles and a
bisection envelope for mixed ones.  chord_profile() names the
quadratic case (alpha = 0) for callers that only need to tell it apart.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .bodies import Body
from .linalg import quad_rows

_NEG_INF = float("-inf")


class Density:
    """Base class.  A kind defines _log_inside_many, its log-density on
    rows inside the body, and _chord_coeffs, its chord restriction;
    log_density and log_density_many add the body's -inf outside."""

    kind = "abstract"

    def __init__(self, body: Body):
        self.body = body
        self.n = body.n

    def log_density(self, x) -> float:
        """Unnormalized log-density; -inf outside the body."""
        if not self.body.contains(x):
            return _NEG_INF
        return float(self._log_inside_many(np.asarray(x, dtype=float)[None, :])[0])

    def log_density_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.full(X.shape[0], _NEG_INF)
        inside = self.body.contains_many(X)
        if np.any(inside):
            out[inside] = self._log_inside_many(X[inside])
        return out

    def _log_inside_many(self, X) -> np.ndarray:
        raise NotImplementedError

    def _chord_coeffs(self, x, u):
        """(alpha, t*, d^2, a, b) with log f(x + t u) =
        -alpha sqrt((t - t*)^2 + d^2) - (a/2) t^2 + b t + const."""
        raise NotImplementedError(f"density kind {self.kind!r} has no chord profile")

    def restricted_to(self, body) -> "Density":
        """This density with its support replaced by body.

        A shallow copy: class, kind, log-density and chord profile are
        unchanged, so only the support changes.  walks.exact_sample
        finds the same unrestricted law and tests membership against the
        new body, and a uniform density takes the new body's
        uniform_law.  On a RestrictedBody the law is the same density's
        law on the base body, conditioned on the cuts, which
        exact_sample draws by rejection with the cuts as the accept
        mask.  sloc's support truncation and needles' partition cells
        are its two uses.
        """
        if body.n != self.n:
            raise ValueError("restriction body has the wrong dimension")
        out = copy.copy(self)
        out.body = body
        return out


class Uniform(Density):
    kind = "uniform"

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

    def _log_inside_many(self, X):
        return -self.alpha * np.linalg.norm(X, axis=1)

    def _chord_coeffs(self, x, u):
        # |x + t u| = |u| sqrt((t - t*)^2 + d^2), t* the closest point to the
        # origin; d^2 from that point avoids cancelling |x|^2 - (x.u)^2/|u|^2.
        # Once per hit-and-run step on a handful of entries, so on floats
        x = x.tolist() if isinstance(x, np.ndarray) else [float(v) for v in x]
        u = u.tolist() if isinstance(u, np.ndarray) else [float(v) for v in u]
        uu = xu = 0.0
        for xi, ui in zip(x, u):
            uu += ui * ui
            xu += xi * ui
        tstar = -xu / uu
        rr = 0.0
        for xi, ui in zip(x, u):
            ri = xi + tstar * ui
            rr += ri * ri
        return (self.alpha * math.sqrt(uu), tstar, rr / uu, 0.0, 0.0)


class Boltzmann(Density):
    """exp(-alpha c.x) restricted to the body."""

    kind = "boltzmann"

    def __init__(self, body, alpha, c):
        super().__init__(body)
        if alpha < 0:
            raise ValueError("boltzmann temperature parameter alpha must be >= 0")
        self.alpha = float(alpha)
        self.c = np.asarray(c, dtype=float).reshape(body.n)

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

    def _log_inside_many(self, X):
        return self.base._log_inside_many(X) + X @ self.c - 0.5 * quad_rows(X, self.B)

    def _chord_coeffs(self, x, u):
        alpha, tstar, d2, a, b = self.base._chord_coeffs(x, u)
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        Bu = self.B @ u
        b = b + float(self.c @ u) - float(x @ Bu)
        return (alpha, tstar, d2, a + float(u @ Bu), b)


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
