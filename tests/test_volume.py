import dataclasses
import math

import numpy as np
import pytest
from conftest import ellipsoid
from scipy.special import gammainccinv, gammaln

from klslab import volume
from klslab.bodies import AxisCube, Ball, Polytope, RestrictedBody, simplex
from klslab.densities import Boltzmann, Exponential, Gaussian, Uniform
from klslab.rng import RngStream
from klslab.volume import (OracleInconsistencyError, _batch_means_se, _phase_bound,
                           VolumePhaseError, anneal_optimize, ball_schedule,
                           cutting_plane_feasibility, dfk_volume,
                           exponential_schedule, gaussian_cooling_schedule,
                           gaussian_cooling_volume, lv_annealing_volume,
                           optimize_schedule, ratio_estimator,
                           separation_oracle_for)
from klslab.walks import exact_sample, run_chain

INV_E = 0.36787944117144233

# I(alpha) = integral of exp(-alpha |t|) over [-1, 1] = 2 (1 - e^-alpha)/alpha
I_EXP = {8.0: 0.24991613434302437, 4.0: 0.4908421805556329,
         2.0: 0.8646647167633873, 1.0: 1.2642411176571153}


def test_ratio_estimator_exact_integrals():
    # uniform samples on [-1,1]: E[e^{-a|t|}] = I(a)/2, so the estimator
    # applied to Exponential/Uniform recovers I(a)/2
    body = AxisCube(1)
    X = exact_sample(Uniform(body), 200000, RngStream(1))
    for a in (1.0, 2.0, 4.0):
        est = ratio_estimator(X, Exponential(body, a), Uniform(body))
        assert est.value == pytest.approx(I_EXP[a] / 2.0, abs=4 * est.std_error)
        assert est.value == pytest.approx(I_EXP[a] / 2.0, rel=0.01)


def test_ratio_estimator_disjoint_support_raises():
    X = np.full((100, 1), 0.9)
    inner = Uniform(AxisCube(1, half_width=0.1))
    outer = Uniform(AxisCube(1))
    with pytest.raises(ValueError, match="disjoint"):
        ratio_estimator(X, inner, outer)


def test_ball_schedule_invariants():
    body = AxisCube(4)  # r = 1, R = 2
    sched = ball_schedule(body)
    radii = sched.params
    assert sched.meta["m"] == int(np.ceil(4 * np.log2(2.0)))
    assert radii[0] == pytest.approx(body.r)
    assert radii[-1] >= body.R
    assert np.allclose(radii[1:] / radii[:-1], 2.0 ** 0.25)


def test_exponential_schedule_invariants():
    body = AxisCube(6)  # r = 1, R = sqrt(6)
    sched = exponential_schedule(body)
    a = sched.params
    expected0 = max(2.0 * 6, float(gammainccinv(6, 1e-6)))
    assert a[0] == pytest.approx(expected0)
    assert np.all(np.diff(a) < 0)
    assert a[-1] <= 1.0 / body.R
    assert np.allclose(a[:-1] / a[1:], 1.0 + 1.0 / np.sqrt(6))
    assert sched.meta["truncation_bound"] <= 1.01e-6


def test_gaussian_cooling_schedule_invariants():
    body = AxisCube(4)
    sched = gaussian_cooling_schedule(body)
    a = sched.params
    expected0 = max(16.0, 2.0 * float(gammainccinv(2.0, 1e-6)))
    assert a[0] == pytest.approx(expected0)
    assert a[-1] <= 1.0 / body.R ** 2
    assert sched.meta["truncation_bound"] <= 1.01e-6


def test_gaussian_cooling_requires_well_rounded():
    flat = ellipsoid(np.diag([1.0, 1.0 / 10000.0]))  # R/r = 100 > 4 sqrt(2)
    with pytest.raises(ValueError, match="well-rounded"):
        gaussian_cooling_schedule(flat)


def test_dfk_ball_is_exact_with_zero_phases():
    res = dfk_volume(Ball(3, radius=1.0), RngStream(2))
    assert res.n_phases == 0
    assert res.value == pytest.approx(4.0 * np.pi / 3.0)
    assert res.std_error == 0.0


def test_dfk_volume_square():
    res = dfk_volume(AxisCube(2), RngStream(3), k=4000)
    assert res.value == pytest.approx(4.0, rel=0.08)
    assert res.value == pytest.approx(4.0, abs=4 * res.std_error)
    assert res.n_phases == len(res.phases)
    for row in res.phases:
        assert 0.4 <= row["ratio"] <= 1.0


def test_dfk_cube3_unbiased_over_seeds():
    # every phase is one exact draw of k points; the log error averages
    # out to 0, and the binomial se covers it: z = ln(V / 8) / (se / V)
    # has sd near 1
    errs, zs = [], []
    for seed in range(24):
        res = dfk_volume(AxisCube(3), RngStream(100 + seed), k=2000)
        errs.append(np.log(res.value / 8.0))
        zs.append(errs[-1] / (res.std_error / res.value))
    errs = np.array(errs)
    se = errs.std(ddof=1) / np.sqrt(errs.size)
    assert abs(errs.mean()) <= 3 * se
    assert np.std(zs, ddof=1) <= 1.35


def test_dfk_cube4_exact_phases_unbiased_over_seeds():
    # the cube's law or the ball's, whichever is smaller, draws every
    # phase within the budget of the chains it replaces; the phases are
    # independent, so the summed relative variances are the log variance
    errs, zs = [], []
    for seed in range(30):
        res = dfk_volume(AxisCube(4), RngStream(600 + seed), k=4000)
        assert res.meta["n_exact"] == res.n_phases == 4
        assert all(row["exact"] and np.isnan(row["acceptance"])
                   for row in res.phases)
        errs.append(np.log(res.value / 16.0))
        zs.append(errs[-1] / (res.std_error / res.value))
    errs = np.array(errs)
    se = errs.std(ddof=1) / np.sqrt(errs.size)
    assert abs(errs.mean()) <= 3 * se
    assert np.std(zs, ddof=1) <= 1.35


def _cube_polytope(n, R=None):
    """[-1, 1]^n as a plain Polytope, which has no closed-form uniform
    law: its ball-sequence phases propose from their bounding balls.  R
    is its circumradius guarantee, sqrt(n) unless given."""
    A = np.vstack([np.eye(n), -np.eye(n)])
    R = np.sqrt(n) if R is None else R
    return Polytope(A, np.ones(2 * n), 1.0, R, np.zeros(n))


def _assert_exact_then_chains(res):
    """Some phases exact, the rest chains, exact ones first, and the
    phase records and meta agree on which."""
    exact = [row["exact"] for row in res.phases]
    assert 0 < res.meta["n_exact"] == sum(exact) < res.n_phases
    assert exact == sorted(exact, reverse=True) and exact[0]
    for row in res.phases:
        assert np.isnan(row["acceptance"]) == row["exact"]
        assert row["exact"] or row["acceptance"] == 1.0
    return exact


def test_dfk_falls_back_to_chains_when_the_budget_runs_out():
    # with R = 6 the ball sequence climbs to B(0, 6), whose uniform law
    # lands in [-1, 1]^6 about once in 3,800 proposals: the outer phases
    # keep too few for 500 rows in the 211,200 the budget allows (64
    # proposals per step of a 300 + 500 x 6 step chain) and run
    # hit-and-run chains from the last exact draw's last point
    res = dfk_volume(_cube_polytope(6, R=6.0), RngStream(9), k=500)
    _assert_exact_then_chains(res)
    assert res.value == pytest.approx(64.0, abs=4 * res.std_error)
    again = dfk_volume(_cube_polytope(6, R=6.0), RngStream(9), k=500)
    assert again.value == res.value and again.std_error == res.std_error


def test_lv_falls_back_to_chains_and_keeps_their_sample_guard(monkeypatch):
    # a plain Polytope has no uniform law, so exp(-alpha |x|) proposes
    # from its radial Gamma law alone, which lands in the cube ever more
    # rarely as alpha falls: the last phases outrun the budget and chain
    res = lv_annealing_volume(_cube_polytope(4), RngStream(9), k=500)
    exact = _assert_exact_then_chains(res)
    assert res.value == pytest.approx(16.0, abs=4 * res.std_error)
    again = lv_annealing_volume(_cube_polytope(4), RngStream(9), k=500)
    assert again.value == res.value and again.std_error == res.std_error

    # with every phase's standard error inflated 100-fold, each sample
    # relative variance exceeds REL_VARIANCE_ABORT: the exact phases,
    # whose schedule bound (1 - 1/4)^-4 - 1 = 2.16 is proven, pass, and
    # the first chain phase aborts
    def noisy(*args):
        est = ratio_estimator(*args)
        return dataclasses.replace(est, std_error=100.0 * est.std_error)

    monkeypatch.setattr(volume, "ratio_estimator", noisy)
    with pytest.raises(VolumePhaseError, match="schedule too aggressive") as err:
        lv_annealing_volume(_cube_polytope(4), RngStream(9), k=500)
    assert err.value.phase == exact.index(False)
    res = lv_annealing_volume(AxisCube(4), RngStream(9), k=500)
    assert res.meta["n_exact"] == res.n_phases


def test_batch_means_se_weights_the_short_batches():
    # 10 samples in 4 contiguous batches of sizes 3, 2, 3, 2
    hit = np.array([1, 1, 0, 1, 0, 1, 1, 0, 1, 1], dtype=bool)
    q = hit.mean()
    batches = [hit[0:3], hit[3:5], hit[5:8], hit[8:10]]
    fracs = np.array([b.mean() for b in batches])
    w = np.array([b.size for b in batches]) / hit.size
    want = np.sqrt(4 / 3 * np.sum(w * w * (fracs - q) ** 2))
    assert _batch_means_se(hit, q, 4) == pytest.approx(want, rel=1e-12)
    # equal batch sizes: the sd of the batch fractions over sqrt(B)
    hit = hit[:8]
    fracs = [hit[2 * b:2 * b + 2].mean() for b in range(4)]
    assert _batch_means_se(hit, hit.mean(), 4) == pytest.approx(
        np.std(fracs, ddof=1) / 2.0, rel=1e-12)
    # one batch, or one sample: no spread to measure
    assert _batch_means_se(hit[:1], 1.0, 1) == 0.0


def test_dfk_few_samples():
    res = dfk_volume(AxisCube(2), RngStream(8), k=10)
    assert res.meta["k"] == 10 and res.meta["n_exact"] == res.n_phases
    assert all(row["n_samples"] == 10 for row in res.phases)
    again = dfk_volume(AxisCube(2), RngStream(8), k=10)
    assert again.value == res.value


def test_lv_annealing_interval():
    res = lv_annealing_volume(AxisCube(1), RngStream(4), k=3000)
    assert res.value == pytest.approx(2.0, rel=0.05)
    assert res.method == "exponential_annealing"
    # each phase row records the rate it sampled; rates fall monotonically
    params = [p["param"] for p in res.phases]
    assert params == sorted(params, reverse=True)
    assert res.n_phases == len(res.phases)


def test_lv_annealing_square():
    # thin breaks the walk autocorrelation that the iid phase se ignores
    res = lv_annealing_volume(AxisCube(2), RngStream(5), k=2500, thin=5)
    assert res.value == pytest.approx(4.0, abs=4 * res.std_error)
    assert res.value == pytest.approx(4.0, rel=0.12)


def test_gaussian_cooling_square():
    res = gaussian_cooling_volume(AxisCube(2), RngStream(6), k=2500)
    assert res.value == pytest.approx(4.0, rel=0.10)
    assert res.meta["schedule"] == "reused cooling factor"


@pytest.mark.parametrize("kind", [Exponential, Gaussian])
def test_phase_bound_is_the_relative_variance_on_the_whole_space(kind):
    # on R^n, Z(a) = Gamma(n) n vol(B_n) / a^n for exp(-a |x|) and
    # (2 pi / a)^(n/2) for exp(-(a/2) |x|^2), so the relative variance
    # Z(a) Z(2b - a) / Z(b)^2 - 1 of y = f_b / f_a meets the bound exactly
    n = 4
    if kind is Exponential:
        log_z = lambda a: gammaln(n) + math.log(n) + Ball(n).log_volume() - n * math.log(a)
    else:
        log_z = lambda a: 0.5 * n * math.log(2.0 * math.pi / a)
    body = Ball(n)
    for a, b in [(8.0, 8.0 / 1.5), (8.0, 7.0), (3.0, 1.6), (1.0, 0.999)]:
        truth = math.expm1(log_z(a) + log_z(2.0 * b - a) - 2.0 * log_z(b))
        assert _phase_bound(kind(body, a), kind(body, b), 1.0) == pytest.approx(truth, rel=1e-9)
    # the annealing step 1 + 1/sqrt(n): (1 - 1/n)^-p - 1, p = n or n/2
    p = n if kind is Exponential else n / 2
    assert _phase_bound(kind(body, 6.0), kind(body, 4.0), 1.0) == pytest.approx(
        (1.0 - 1.0 / n) ** -p - 1.0, rel=1e-12)
    # 2b <= a, n = 1's step, has no bound; the last phase's ratio lies in
    # [1, U], U = e^{aR} or e^{aR^2/2}, so its bound is (U - 1)^2 / 4
    assert _phase_bound(kind(body, 2.0), kind(body, 1.0), 1.0) == math.inf
    log_top = 0.5 * 1.5 if kind is Exponential else 0.5 * 0.5 * 1.5 ** 2
    assert _phase_bound(kind(body, 0.5), Uniform(body), 1.5) == pytest.approx(
        math.expm1(log_top) ** 2 / 4.0, rel=1e-12)


@pytest.mark.parametrize("method", [lv_annealing_volume, gaussian_cooling_volume])
@pytest.mark.parametrize("body, truth", [(AxisCube(4), 16.0),
                                         (Ball(5), 8.0 * math.pi ** 2 / 15.0)])
def test_annealed_volume_error_bars_cover_over_seeds(method, body, truth):
    # every phase is an independent exact draw, so the summed relative
    # variances are the log variance: z = ln(V / truth) / (se / V) has sd
    # near 1, the bound dfk's coverage tests use
    errs, zs = [], []
    for seed in range(40):
        res = method(body, RngStream(3000 + seed), k=500)
        assert res.meta["n_exact"] == res.n_phases
        errs.append(np.log(res.value / truth))
        zs.append(errs[-1] / (res.std_error / res.value))
    errs = np.array(errs)
    assert abs(errs.mean()) <= 3 * errs.std(ddof=1) / np.sqrt(errs.size)
    assert np.std(zs, ddof=1) <= 1.35


def test_volume_result_json_and_estimate():
    res = dfk_volume(AxisCube(2), RngStream(7), k=500)
    d = res.to_json_dict()
    assert set(d) >= {"value", "se", "log_value", "n_phases", "method"}
    assert res.estimate.n_samples == sum(p["n_samples"] for p in res.phases)


def test_volume_phase_error_payload():
    err = VolumePhaseError(3, 42.0)
    assert err.phase == 3 and err.rel_variance == 42.0
    assert "phase 3" in str(err)


def test_optimize_schedule_count_and_growth():
    n, R, eps = 9, 3.0, 0.1
    alphas, a0, a_f = optimize_schedule(n, R, 1.0, eps)
    assert a0 == pytest.approx(1.0 / 6.0)
    assert a_f == pytest.approx(90.0)
    assert len(alphas) == int(np.ceil(3.0 * np.log(540.0)))
    assert np.allclose(alphas[1:] / alphas[:-1], np.exp(1.0 / 3.0))
    assert alphas[-1] >= a_f
    with pytest.raises(ValueError):
        optimize_schedule(4, 1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        optimize_schedule(4, 1.0, 1.0, 0.5, alpha0=100.0)


def test_anneal_optimize_cube_linear_objective():
    body = AxisCube(4)
    res = anneal_optimize(body, np.array([1.0, 0, 0, 0]), eps=0.1,
                          rng=RngStream(8), k=400)
    assert res.best_value <= -1.0 + 0.15
    assert res.n_phases == len(res.alphas) == len(res.trace)
    assert res.final_bound_gap <= 0.1
    # phase means decrease overall as the rate rises
    assert res.trace[-1]["mean_objective"] < res.trace[0]["mean_objective"]


def test_anneal_optimize_without_exact_law_runs_the_plain_chains():
    # a ball has no Boltzmann law: each phase is the hit-and-run chain of
    # the chain-only optimizer, on the same stream, bit for bit
    body, c, eps, k = Ball(4), np.array([0.6, -0.8, 0.0, 0.0]), 0.5, 40
    res = anneal_optimize(body, c, eps, rng=RngStream(67), k=k)
    gen = RngStream(67).generator()
    alphas, _, _ = optimize_schedule(4, body.R, 1.0, eps)
    x, best_x, best_val = body.x0, body.x0.copy(), float(c @ body.x0)
    trace = []
    for j, alpha in enumerate(alphas):
        X = run_chain(Boltzmann(body, alpha, c), x, k, burn_in=200, thin=2, rng=gen)
        x = X[-1]
        vals = X @ c
        i_best = int(np.argmin(vals))
        if vals[i_best] < best_val:
            best_val, best_x = float(vals[i_best]), X[i_best].copy()
        trace.append({"phase": j, "alpha": float(alpha),
                      "mean_objective": float(vals.mean()),
                      "se_objective": float(vals.std(ddof=1) / np.sqrt(k)),
                      "best_so_far": best_val, "n_samples": k})
    assert res.best_x.tobytes() == best_x.tobytes()
    assert res.best_value == best_val and res.trace == trace
    assert res.meta["n_exact"] == 0


def test_anneal_optimize_on_cube_draws_each_phase_exactly():
    # on [-1, 1]^8 with c = e1, phase alpha draws x_1 from exp(-alpha t) on
    # [-1, 1], whose mean is 1/alpha - coth(alpha)
    c = np.eye(8)[0]
    res = anneal_optimize(AxisCube(8), c, eps=0.1, rng=RngStream(68), k=500)
    assert res.meta["n_exact"] == res.n_phases == len(res.trace)
    for row in res.trace:
        alpha = row["alpha"]
        truth = 1.0 / alpha - 1.0 / np.tanh(alpha)
        assert abs(row["mean_objective"] - truth) <= 4.0 * row["se_objective"], row


def test_grunbaum_centroid_halfspace_simplex():
    # every halfspace through the centroid keeps at least 1/e of the mass
    body = simplex(3)
    X = exact_sample(Uniform(body), 40000, RngStream(9))
    centroid = X.mean(axis=0)
    gen = RngStream(10).generator()
    dirs = gen.standard_normal((64, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    side = (X - centroid) @ dirs.T <= 0.0
    fractions = side.mean(axis=0)
    worst = min(fractions.min(), 1.0 - fractions.max())
    assert worst >= INV_E - 0.02


def test_cutting_plane_finds_offset_ball():
    target = Ball(3, radius=0.25, center=np.array([0.5, 0.3, 0.0]))
    oracle = separation_oracle_for(target)
    res = cutting_plane_feasibility(oracle, 3, R=2.0, r=0.25,
                                    rng=RngStream(11), target_body=target)
    assert res.found
    assert target.contains(res.point)
    assert res.n_iterations <= int(np.ceil(9.0 * np.log(8.0)))
    assert res.trace[-1]["feasible"]


def test_enclose_cuts_keeps_the_localizer_and_shrinks():
    # ball of radius 1 cut by halfspaces tangent to a small offset ball,
    # as the separation oracle cuts: every uniform point of ball & cuts
    # stays in the ellipsoid, whose volume falls well below the ball's
    n = 4
    gen = RngStream(5).generator()
    target = np.array([0.5, 0.0, 0.0, 0.0])
    A = np.zeros((0, n))
    b = np.zeros(0)
    c, P = np.zeros(n), np.eye(n)
    for _ in range(6):
        u = gen.standard_normal(n)
        a = u / np.linalg.norm(u)
        A = np.vstack([A, a])
        b = np.append(b, float(a @ target) + 0.1)
        c, P = volume._enclose_cuts(c, P, A, b)
    X = gen.standard_normal((200000, n))
    X *= (gen.random(200000) ** (1.0 / n) / np.linalg.norm(X, axis=1))[:, None]
    X = X[np.all(X @ A.T <= b, axis=1)]
    assert X.shape[0] > 1000
    D = X - c
    assert np.einsum("ij,jk,ik->i", D, np.linalg.inv(P), D).max() <= 1.0
    assert 0.5 * np.linalg.slogdet(P)[1] < np.log(0.7)
    # one dimension keeps the interval as it was
    c1, P1 = volume._enclose_cuts(np.zeros(1), np.eye(1), np.array([[1.0]]), np.array([0.0]))
    assert c1 == 0.0 and P1 == 1.0


def test_cutting_plane_draws_every_localizer_exactly(monkeypatch):
    # the enclosing ellipsoid keeps the accept rate up: on the benchmark's
    # offset-ball instance no iteration falls back to its chain
    exact = []
    real = volume.exact_or_chain

    def spy(*args, **kwargs):
        X, ok = real(*args, **kwargs)
        exact.append(ok)
        return X, ok

    monkeypatch.setattr(volume, "exact_or_chain", spy)
    target = Ball(4, radius=0.1, center=np.array([0.5, 0.0, 0.0, 0.0]))
    for seed in range(10):
        res = cutting_plane_feasibility(separation_oracle_for(target), 4, R=1.0,
                                        r=0.1, rng=RngStream(seed), target_body=target)
        assert res.found
    assert len(exact) >= 30 and all(exact)


def test_cutting_plane_detects_non_separating_oracle():
    # claims a cut that does not actually separate the query point
    bad = lambda x: (np.array([1.0, 0.0]), float(x[0]) + 1.0)
    with pytest.raises(OracleInconsistencyError):
        cutting_plane_feasibility(bad, 2, R=1.0, r=0.1, rng=RngStream(12))


def test_cutting_plane_detects_inconsistent_acceptance():
    # oracle says feasible near the origin, but the declared target sits
    # far away: the acceptance must be flagged
    target = Ball(2, radius=0.05, center=np.array([1.5, 0.0]))
    accept_all = lambda x: None
    with pytest.raises(OracleInconsistencyError):
        cutting_plane_feasibility(accept_all, 2, R=2.0, r=0.05,
                                  rng=RngStream(13), target_body=target)


def test_separation_oracle_polytope_rows_normalized():
    body = simplex(2)
    oracle = separation_oracle_for(body)
    outside = np.array([2.0, 2.0])
    a, b = oracle(outside)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    assert a @ outside > b
    assert oracle(np.array([0.2, 0.2])) is None


def test_separation_oracle_rejects_unknown_kind():
    class Odd:
        kind = "odd"
    with pytest.raises(ValueError):
        separation_oracle_for(Odd())
    # a restricted body has rows A, b of its cuts alone; an oracle built
    # from them would accept [3, 0], outside the unit ball it restricts
    with pytest.raises(ValueError):
        separation_oracle_for(RestrictedBody(Ball(2, 1.0), [[1.0, 0.0]], [5.0],
                                             np.zeros(2)))
