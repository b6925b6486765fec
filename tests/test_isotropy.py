import warnings

import numpy as np
import pytest
from conftest import ellipsoid, plain_polytope

from klslab import walks
from klslab.bodies import AxisCube, simplex, transform_body
from klslab.densities import Uniform
from klslab.isotropy import EIG_WINDOW, estimate_mean_cov, iterated_gaussian_isotropy
from klslab.linalg import sym_inv_sqrt
from klslab.rng import RngStream
from klslab.walks import exact_sample, run_chain


def test_estimate_mean_cov_exact_inputs():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
    mean, cov = estimate_mean_cov(X)
    assert np.allclose(mean, 0.0)
    assert np.allclose(cov.matrix, np.diag([0.5, 2.0]))
    assert cov.trace == pytest.approx(2.5)


def test_estimate_mean_cov_warns_rank_deficient():
    with pytest.warns(UserWarning, match="rank"):
        estimate_mean_cov(np.zeros((3, 5)) + np.arange(5))


def test_cov_error_scales_like_inverse_sqrt_m():
    # operator-norm error of the empirical covariance ~ C sqrt(n/m)
    gen = RngStream(1).generator()
    errs = []
    for m in (500, 8000):
        X = gen.standard_normal((m, 6))
        _, cov = estimate_mean_cov(X)
        errs.append(np.abs(np.linalg.eigvalsh(cov.matrix - np.eye(6))).max())
    shrink = errs[0] / errs[1]
    assert 2.0 < shrink < 8.0  # expect about sqrt(16) = 4


def test_sym_inv_sqrt_whitens_exactly():
    gen = RngStream(4).generator()
    A = gen.standard_normal((3, 3))
    cov = A @ A.T + 0.5 * np.eye(3)
    mean = np.array([1.0, 2.0, 3.0])
    X = gen.multivariate_normal(mean, cov, size=20000)
    m_hat, c_hat = estimate_mean_cov(X)
    W = sym_inv_sqrt(c_hat.matrix)
    _, c_new = estimate_mean_cov((X - m_hat) @ W.T)
    assert np.allclose(c_new.matrix, np.eye(3), atol=1e-8)


def test_rounding_idempotent_on_isotropic_data():
    X = RngStream(5).generator().standard_normal((30000, 4))
    _, c_hat = estimate_mean_cov(X)
    # already isotropic: the whitening is within sampling error of the identity
    assert np.allclose(sym_inv_sqrt(c_hat.matrix), np.eye(4), atol=0.05)


def test_transform_body_membership():
    M, s = np.diag([2.0, 0.5]), np.array([-2.0, 0.0])
    body = AxisCube(2)
    mapped = transform_body(body, M, s)
    gen = RngStream(6).generator()
    pts = exact_sample(Uniform(body), 500, gen)
    assert all(mapped.contains(M @ p + s) for p in pts)


def test_isotropy_map_carries_input_draws_into_final_body():
    # the returned (M, shift) composes every whitening: it must map the
    # input body onto the final body, not just undo the last step
    body = simplex(4)
    with warnings.catch_warnings():
        # three iterations may stop short of the window; the map is
        # checked either way
        warnings.simplefilter("ignore", UserWarning)
        (M, shift), final, log = iterated_gaussian_isotropy(
            body, RngStream(10), max_iters=3)
    assert sum(r["min_eig"] < EIG_WINDOW[0] for r in log) >= 2
    gen = RngStream(11).generator()
    X = exact_sample(Uniform(body), 500, gen)
    assert final.contains_many(X @ M.T + shift).all()
    # and nothing else: membership agrees on points in and around the body
    Y = gen.uniform(-0.5, 1.5, size=(4000, 4))
    inside = body.contains_many(Y)
    assert 0 < inside.sum() < len(Y)
    assert np.array_equal(final.contains_many(Y @ M.T + shift), inside)


def test_iterated_isotropy_rounds_stretched_ellipsoid():
    # start far from round: axis ratios 6:1
    E = np.diag([1.0 / 36.0, 1.0, 1.0])  # x^T E x <= 1
    body = ellipsoid(E)
    _, final, log = iterated_gaussian_isotropy(body, RngStream(7), k=1500)
    assert 1 <= len(log) <= 8
    assert log[-1]["min_eig"] >= 0.4  # inside or nearly inside the window
    # final body covariance of the restricted gaussian is near-isotropic
    gaussians = RngStream(8).generator().standard_normal((60000, 3))
    kept = gaussians[final.contains_many(gaussians)]
    _, cov = estimate_mean_cov(kept)
    evals = cov.eigvals
    assert evals[0] > 0.3 and evals[-1] < 2.0


def test_iterated_isotropy_no_op_when_round():
    body = AxisCube(3, half_width=8.0)  # gaussian barely sees the walls
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (M, shift), final, log = iterated_gaussian_isotropy(body, RngStream(9),
                                                            k=1200)
    assert len(log) == 1
    assert np.array_equal(M, np.eye(3)) and not shift.any()
    assert final is body


def test_isotropy_covariances_obey_brascamp_lieb():
    # a standard Gaussian restricted to a convex body has covariance <= I,
    # so every logged largest eigenvalue stays below 1 up to the sampling
    # error of a k-sample covariance: the Marchenko-Pastur edge
    # (1 + sqrt(n/k))^2 plus 3 sd, sqrt(2/k), of one sample variance
    for body in (ellipsoid(np.diag([1.0 / 36.0, 1.0, 1.0])), simplex(8)):
        k = 64 * body.n
        tol = (1.0 + np.sqrt(body.n / k)) ** 2 + 3.0 * np.sqrt(2.0 / k)
        for seed in range(12, 17):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, _, log = iterated_gaussian_isotropy(body, RngStream(seed))
            assert all(r["max_eig"] <= tol for r in log), log


@pytest.mark.parametrize("n", [8, 16])
def test_simplex_enters_the_window(n):
    for seed in range(10):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, log = iterated_gaussian_isotropy(simplex(n), RngStream(100 + seed))
        assert EIG_WINDOW[0] <= log[-1]["min_eig"] and log[-1]["max_eig"] <= EIG_WINDOW[1]


def test_isotropy_falls_back_to_hit_and_run(monkeypatch):
    # simplex(4)'s halfspaces as a plain polytope have no uniform law, and
    # a standard Gaussian lands in them about once in 1,000 draws: the
    # first iteration spends its budget and runs hit-and-run, and the
    # whitened body that follows takes Gaussian proposals
    kinds = []

    def counted(density, x0, n_samples, walk="hit_and_run", rng=None, **kwargs):
        kinds.append(walk)
        return run_chain(density, x0, n_samples, walk=walk, rng=rng, **kwargs)

    monkeypatch.setattr(walks, "run_chain", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, log = iterated_gaussian_isotropy(plain_polytope(simplex(4)),
                                               RngStream(14))
    assert kinds == ["hit_and_run"]
    assert len(log) >= 2 and log[-1]["min_eig"] >= EIG_WINDOW[0]


def test_isotropy_on_an_ellipsoid_runs_no_chain(monkeypatch):
    # a transformed ball has the exact uniform law, so every iteration of
    # the 6:1 ellipsoid takes exact draws through one of the envelopes
    def no_chain(*args, **kwargs):
        raise AssertionError("the isotropy loop ran a chain")

    monkeypatch.setattr(walks, "run_chain", no_chain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, log = iterated_gaussian_isotropy(
            ellipsoid(np.diag([1.0 / 36.0, 1.0, 1.0])), RngStream(7))
    assert len(log) >= 2
    assert EIG_WINDOW[0] <= log[-1]["min_eig"] and log[-1]["max_eig"] <= EIG_WINDOW[1]
