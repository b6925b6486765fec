import numpy as np
import pytest
from scipy.special import gammainccinv

from klslab.bodies import AxisCube, Ball, Ellipsoid, simplex
from klslab.densities import Boltzmann, Exponential, Uniform
from klslab.rng import RngStream
from klslab.volume import (DFK_CHAINS, OracleInconsistencyError,
                           VolumePhaseError, anneal_optimize, ball_schedule,
                           cutting_plane_feasibility, dfk_volume,
                           exponential_schedule, gaussian_cooling_schedule,
                           gaussian_cooling_volume, log_ball_volume,
                           lv_annealing_volume, optimize_schedule,
                           ratio_estimator, separation_oracle_for)
from klslab.walks import exact_sample

VOL_BALL_5 = 5.263789013914324  # pi^(5/2) / Gamma(7/2)
INV_E = 0.36787944117144233

# I(alpha) = integral of exp(-alpha |t|) over [-1, 1] = 2 (1 - e^-alpha)/alpha
I_EXP = {8.0: 0.24991613434302437, 4.0: 0.4908421805556329,
         2.0: 0.8646647167633873, 1.0: 1.2642411176571153}


def test_log_ball_volume_known_values():
    assert np.exp(log_ball_volume(2)) == pytest.approx(np.pi)
    assert np.exp(log_ball_volume(5)) == pytest.approx(VOL_BALL_5)
    assert np.exp(log_ball_volume(1)) == pytest.approx(2.0)


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
    flat = Ellipsoid(np.diag([1.0, 1.0 / 10000.0]))  # R/r = 100 > 4 sqrt(2)
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
    # 64 lockstep chains per phase; the log error averages out to 0
    errs = []
    for seed in range(24):
        res = dfk_volume(AxisCube(3), RngStream(100 + seed), k=2000)
        assert res.meta["chains"] == DFK_CHAINS
        errs.append(np.log(res.value / 8.0))
    errs = np.array(errs)
    se = errs.std(ddof=1) / np.sqrt(errs.size)
    assert abs(errs.mean()) <= 3 * se


def test_dfk_fewer_samples_than_chains():
    res = dfk_volume(AxisCube(2), RngStream(8), k=10)
    assert res.meta["chains"] == 10
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
