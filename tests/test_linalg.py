import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from klslab.linalg import (CovMatrix, SingularCovarianceError, power_opnorm,
                           stieltjes_u, sym_inv_sqrt)

# root of 1/(u-1)^2 + 1/u^2 = 2 on u > 1, frozen from an independent
# bracketing root-find (scipy.optimize.brentq at xtol=1e-14)
U_DIAG_1_0 = 1.7712298784187035


def test_covmatrix_caches_match_eigvals():
    gen = np.random.default_rng(0)
    A = gen.standard_normal((6, 6))
    C = CovMatrix(A @ A.T)
    lam = C.eigvals
    assert C.trace == pytest.approx(float(lam.sum()), rel=1e-12)
    assert C.trace_sq == pytest.approx(float((lam ** 2).sum()), rel=1e-12)
    assert C.trace_power(3) == pytest.approx(float((lam ** 3).sum()), rel=1e-10)
    assert C.opnorm == C.eigvals[-1]


def test_power_opnorm_matches_eigh():
    gen = np.random.default_rng(1)
    for n in (2, 5, 16, 32):
        A = gen.standard_normal((n, n))
        S = A @ A.T
        exact = float(np.linalg.eigvalsh(S)[-1])
        assert power_opnorm(S) == pytest.approx(exact, rel=1e-6)


def test_stieltjes_identity():
    # tr((uI - I)^{-2}) = n/(u-1)^2 = n  =>  u = 2
    assert stieltjes_u(np.eye(5)) == pytest.approx(2.0, abs=1e-10)
    assert stieltjes_u(CovMatrix(np.eye(3))) == pytest.approx(2.0, abs=1e-10)


def test_stieltjes_zero_matrix_1d():
    # 1/u^2 = 1  =>  u = 1
    assert stieltjes_u(np.zeros((1, 1))) == pytest.approx(1.0, abs=1e-10)


def test_stieltjes_diag_1_0_oracle():
    assert stieltjes_u(np.diag([1.0, 0.0])) == pytest.approx(U_DIAG_1_0, abs=1e-6)


def test_stieltjes_scaling_invariance():
    # u(sA) relates to the same equation with scaled spectrum; check the
    # defining equation directly as a property
    gen = np.random.default_rng(2)
    A = gen.standard_normal((4, 4))
    S = A @ A.T / 4
    u = stieltjes_u(S)
    lam = np.linalg.eigvalsh(S)
    assert u > lam[-1]
    assert float(np.sum((u - lam) ** -2.0)) == pytest.approx(4.0, abs=1e-8)


def test_stieltjes_accepts_eigenvalue_vector():
    assert stieltjes_u(np.array([1.0, 1.0])) == pytest.approx(2.0, abs=1e-10)


@st.composite
def _spectra(draw):
    """Sorted PSD spectra of n = 1..40 values on a few levels (so values
    repeat), zero among them, scaled to spreads from 1e-8 to 1e4."""
    n = draw(st.integers(min_value=1, max_value=40))
    level = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))
    levels = draw(st.lists(level, min_size=1, max_size=n))
    picks = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    spread = 10.0 ** draw(st.floats(min_value=-8.0, max_value=4.0))
    return np.sort(spread * np.array(picks))


@given(_spectra())
@settings(max_examples=300, deadline=None)
def test_stieltjes_is_the_root_from_above_both_starts(lam):
    n = len(lam)
    top = float(lam[-1])
    u = stieltjes_u(lam)

    def g(v):
        return float(np.sum((v - lam) ** -2.0)) - n

    assert u > top
    assert abs(g(u)) <= 1e-10 * n
    assert u >= top + n ** -0.5 and u >= float(np.mean(lam)) + 1.0
    # the top term alone exceeds n at top + n^{-1/2}/2; every term is at
    # most 1/4 at top + 2
    oracle = brentq(g, top + 0.5 * n ** -0.5, top + 2.0, xtol=1e-300,
                    rtol=4 * np.finfo(float).eps, maxiter=500)
    assert abs(u - oracle) <= 1e-12 * oracle


def test_sym_sqrt_and_inv_sqrt():
    gen = np.random.default_rng(3)
    A = gen.standard_normal((5, 5))
    S = A @ A.T + 5 * np.eye(5)
    Rinv = sym_inv_sqrt(S)
    assert np.allclose(Rinv, Rinv.T, atol=1e-12)
    assert np.allclose(Rinv @ S @ Rinv, np.eye(5), atol=1e-9)
    # its inverse is the symmetric square root of S
    R = np.linalg.inv(Rinv)
    assert np.allclose(R @ R, S, atol=1e-9)


def test_sym_inv_sqrt_singular_raises():
    S = np.diag([1.0, 0.0])
    with pytest.raises(SingularCovarianceError):
        sym_inv_sqrt(S)
