"""Shared test plumbing: collects one pass/fail line per acceptance
criterion and prints them in the terminal summary, and holds the exact
oracles and bodies that more than one test module uses."""

import numpy as np
import pytest

from klslab.bodies import Ball, Polytope, transform_body
from klslab.linalg import sym_inv_sqrt

_criterion_lines = []


@pytest.fixture
def criterion_report():
    """Record and assert a single acceptance-criterion verdict."""

    def record(num, ok, detail):
        line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        _criterion_lines.append(line)
        print(line)
        assert ok, line

    return record


def simplex_moments(n):
    """Exact mean and covariance of the uniform law on the standard simplex:
    Dirichlet(1, ..., 1) coordinates, Var = n/((n+1)^2 (n+2)) and
    off-diagonal covariance -1/((n+1)^2 (n+2))."""
    mean = np.full(n, 1.0 / (n + 1))
    c = 1.0 / ((n + 1) ** 2 * (n + 2))
    cov = -c * np.ones((n, n)) + (n + 1) * c * np.eye(n)
    return mean, cov


def plain_polytope(body):
    """A polytope body's halfspaces and guarantees as a plain Polytope,
    which has no closed-form uniform law, so exact draws on it go
    through rejection."""
    return Polytope(body.A, body.b, body.r, body.R, body.x0)


def ellipsoid(E):
    """{x : x^T E x <= 1} for a symmetric positive definite E, as the
    image of the unit ball under E^{-1/2}."""
    E = np.asarray(E, dtype=float)
    return transform_body(Ball(E.shape[0]), sym_inv_sqrt(E))


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
