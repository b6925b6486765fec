import math

import numpy as np
import pytest
from conftest import plain_polytope
from scipy.special import ndtr
from scipy.stats import chi2, ncx2

from klslab import sloc, walks
from klslab.bodies import AxisCube, Ball, BallIntersection, simplex
from klslab.densities import Boltzmann, Gaussian, Uniform
from klslab.diagnostics import BallSet, HalfspaceSet
from klslab.rng import RngStream
from klslab.sloc import (LocalizationState, ObservablePool, SlocError,
                         default_h, default_q, moment_inequality_check,
                         sloc_init, sloc_run, sloc_step)
from klslab.walks import advance_ensemble, exact_sample

ABS3_GAUSS = 1.5957691216057308  # E|x|^3 for x ~ N(0,1)

# a NaN or a masked log(0) in the ensemble or the pool must fail here, not
# pass with a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _std_gaussian(n, radius=None):
    radius = 50.0 * np.sqrt(n) if radius is None else radius
    return Gaussian(Ball(n, radius), a=1.0)


def test_default_q_and_h():
    assert default_q(2) == 2
    assert default_q(8) == 6
    assert default_q(100) == 10
    assert default_h(100.0) == pytest.approx(0.01)
    assert default_h(1e6) == pytest.approx(1e-4)


def test_closed_form_run_matches_analytic():
    # p_t = N(c/(1+t), I/(1+t)) for the standard Gaussian
    state = sloc_init(_std_gaussian(4), closed_form=True,
                      tracked_sets={"E0": HalfspaceSet(np.eye(4)[0], 0.0)})
    assert np.array_equal(state.mean, np.zeros(4))
    assert np.array_equal(state.cov.matrix, np.eye(4))
    assert state.phi == pytest.approx(4.0)
    assert state.u == pytest.approx(2.0)
    assert state.g["E0"] == pytest.approx(0.5)
    assert state.meta["t0_pool"] == "closed_form"
    gen = RngStream(5).generator()
    for _ in range(10):
        sloc_step(state, 0.1, gen)
    t = state.t
    assert t == pytest.approx(1.0)
    assert state.phi == pytest.approx(4.0 / (1.0 + t) ** 2, rel=1e-12)
    assert state.u == pytest.approx(1.0 / (1.0 + t) + 1.0, rel=1e-12)
    var = 1.0 / (1.0 + t)
    assert np.allclose(state.mean, state.c * var)
    assert np.allclose(state.cov.matrix, var * np.eye(4))
    expected_g = float(ndtr((0.0 - state.mean[0]) / math.sqrt(var)))
    assert state.g["E0"] == pytest.approx(expected_g, rel=1e-12)
    # deterministic part: B accumulated exactly t * I
    assert np.allclose(state.B, t * np.eye(4))
    assert state.meta["refresh"] == "closed_form"
    state.check_invariants()


def test_closed_form_phi_strictly_decreasing():
    state = sloc_init(_std_gaussian(3), closed_form=True)
    gen = RngStream(6).generator()
    phis = [state.phi]
    for _ in range(20):
        sloc_step(state, 0.05, gen)
        phis.append(state.phi)
    assert all(b < a for a, b in zip(phis, phis[1:]))


def test_closed_form_mode_validation():
    with pytest.raises(ValueError, match="standard-Gaussian"):
        sloc_init(Uniform(AxisCube(3)), closed_form=True)
    with pytest.raises(ValueError, match="standard-Gaussian"):
        sloc_init(Gaussian(Ball(3, 10.0), a=2.0), closed_form=True)
    with pytest.raises(ValueError, match="identity"):
        sloc_init(_std_gaussian(3), closed_form=True,
                  control="inverse_sqrt_cov")


def test_init_validation():
    with pytest.raises(ValueError, match="control"):
        sloc_init(_std_gaussian(2), control="banana", rng=RngStream(0))
    with pytest.raises(ValueError, match=">= 2"):
        sloc_init(_std_gaussian(2), q=1, rng=RngStream(0))
    with pytest.raises(ValueError, match="halfspace or a ball"):
        sloc_init(_std_gaussian(2), tracked_sets={"E0": object()},
                  rng=RngStream(0))
    # a set needs a name: bare sets, alone or in a list, are refused
    E = HalfspaceSet(np.eye(2)[0], 0.0)
    for bare in (E, [E]):
        with pytest.raises(ValueError, match=r"\(name, set\) pairs"):
            sloc_init(_std_gaussian(2), tracked_sets=bare, rng=RngStream(0))


def test_inner_steps_below_one_refused():
    # inner_steps = 0 left the t=0 exact draw no budget and its chain
    # fallback no steps, whose acceptance rate divided by zero; a body with
    # an exact uniform law ran no step at all and passed silently
    for dens in (Gaussian(Ball(3)), Uniform(simplex(3))):
        with pytest.raises(ValueError, match="inner_steps"):
            sloc_init(dens, k=64, inner_steps=0, rng=RngStream(0))
        for h in (None, 0.05):
            with pytest.raises(ValueError, match="inner_steps"):
                sloc_run(dens, 0.1, h=h, k=64, inner_steps=0, rng=RngStream(0))


def test_tracked_measure_window_enforced():
    # ndtr(3) = 0.9987 falls outside [1/4, 3/4]
    with pytest.raises(ValueError, match="outside"):
        sloc_init(_std_gaussian(3), closed_form=True,
                  tracked_sets={"E0": HalfspaceSet(np.eye(3)[0], 3.0)})


def test_identity_drift_without_noise():
    state = sloc_init(Uniform(AxisCube(3)), k=64, rng=RngStream(7))
    c0 = state.c.copy()
    mean0 = state.mean.copy()
    sloc_step(state, 0.01, RngStream(8), noise=np.zeros(3))
    assert np.allclose(state.c, c0 + 0.01 * mean0, atol=1e-15)
    assert np.allclose(state.B, 0.01 * np.eye(3))
    assert state.t == pytest.approx(0.01)


def test_inverse_sqrt_cov_drift_without_noise():
    # the control is C = Sigma^-1 of the estimates before the step, so
    # with zero noise B = h Sigma^-1 and c = h Sigma^-1 mu
    state = sloc_init(Gaussian(Ball(3, 30.0)), control="inverse_sqrt_cov",
                      k=512, rng=RngStream(19))
    mean0, inv0 = state.mean.copy(), np.linalg.inv(state.cov.matrix)
    h = 0.01
    sloc_step(state, h, RngStream(20), noise=np.zeros(3))
    np.testing.assert_allclose(state.B, h * inv0, rtol=1e-10, atol=1e-15)
    np.testing.assert_allclose(state.c, h * inv0 @ mean0, rtol=1e-10, atol=1e-15)
    assert state.t == h
    state.check_invariants()


def test_init_without_rng_uses_seed_zero():
    s_default = sloc_init(Uniform(AxisCube(2)), k=32)
    s_zero = sloc_init(Uniform(AxisCube(2)), k=32, rng=0)
    assert np.array_equal(s_default.ensemble, s_zero.ensemble)
    assert np.array_equal(s_default.mean, s_zero.mean)


def test_t0_g_se_matches_across_init_spread():
    # 40 independent inits on the isotropic 8-cube: the across-init sd of
    # g_0 over the mean reported g_se lies in the chi^2_39 99.9% band
    dens = Uniform(AxisCube(8, half_width=np.sqrt(3.0)))
    sets = {"E0": HalfspaceSet(np.eye(8)[0], 0.0)}
    states = [sloc_init(dens, tracked_sets=sets, rng=RngStream(3000 + i))
              for i in range(40)]
    g = np.array([s.g["E0"] for s in states])
    ratio = np.std(g, ddof=1) / np.mean([s.g_se["E0"] for s in states])
    lo, hi = np.sqrt(chi2.ppf([0.0005, 0.9995], 39) / 39)
    assert lo <= ratio <= hi


def _count_init_work(monkeypatch, dens, **kwargs):
    """sloc_init with its work counted: (state, tuning calls, refresh
    calls, rejection proposals per exact draw).  Tuning rounds take 4
    ensemble steps, refreshes inner_steps = 8."""
    steps, proposals = [], []
    rejection = walks._rejection

    def counted_steps(density, X, logf, n_steps, delta, gen):
        steps.append(n_steps)
        return advance_ensemble(density, X, logf, n_steps, delta, gen)

    def counted_rejection(propose, accept_mask, count, max_batches):
        proposals.append(0)

        def counted_propose(m):
            proposals[-1] += m
            return propose(m)

        return rejection(counted_propose, accept_mask, count, max_batches)

    monkeypatch.setattr(sloc, "advance_ensemble", counted_steps)
    monkeypatch.setattr(walks, "_rejection", counted_rejection)
    state = sloc_init(dens, rng=RngStream(21), **kwargs)
    return state, steps.count(4), steps.count(8), proposals


def test_init_work_counts(monkeypatch):
    # exact law: the pool is exact snapshots and no chain runs, not even
    # to tune its proposal radius
    state, tune, refresh, _ = _count_init_work(
        monkeypatch, Uniform(AxisCube(8, half_width=np.sqrt(3.0))))
    assert state.meta["t0_pool"] == "exact"
    assert tune == 0 and refresh == 0
    assert state.log_ensemble is None and state.delta == 0.0
    assert len(state.pool.groups) == 8
    # no exact law: tuning plus init_refreshes refreshes
    state, tune, refresh, _ = _count_init_work(
        monkeypatch, Boltzmann(Ball(3), 1.0, np.ones(3)))
    assert state.meta["t0_pool"] == "chain"
    assert 1 <= tune <= 12 and refresh == 8
    # the simplex has a closed-form uniform law; the same halfspaces as a
    # plain polytope have none, and rejection from the bounding ball
    # accepts about 1% (k = 256): the 5 snapshots spend at most the
    # refreshes' 5 * 8 * 256 proposals, run out, and the refreshes fill
    # the pool from k exact chain starts
    state, tune, refresh, proposals = _count_init_work(
        monkeypatch, Uniform(simplex(4)), init_refreshes=5)
    assert state.meta["t0_pool"] == "exact"
    assert tune == 0 and refresh == 0 and proposals == []
    state, tune, refresh, proposals = _count_init_work(
        monkeypatch, Uniform(plain_polytope(simplex(4))), init_refreshes=5)
    assert state.meta["t0_pool"] == "chain"
    assert 1 <= tune <= 12 and refresh == 5
    assert len(state.pool.groups) == 5
    assert len(proposals) == 2 and proposals[0] <= 5 * 8 * 256


def test_simplex8_init_pool_is_exact():
    # rejection from the bounding ball accepted about 6e-6 on simplex(8)
    # and spent its whole budget before the chains took over
    state = sloc_init(Uniform(simplex(8)), rng=RngStream(23))
    assert state.meta["t0_pool"] == "exact"
    assert state.log_ensemble is None


def _count_run_work(monkeypatch, dens, n_steps, **kwargs):
    """sloc_init plus n_steps steps of h = 0.01 with the work of the steps
    counted: (state, ensemble-step calls, outcome of each exact_sample
    call, rejection proposals per exact call)."""
    steps, outcomes, proposals = [], [], []
    exact, rejection = sloc.exact_sample, walks._rejection

    def counted_steps(density, X, logf, n_steps, delta, gen):
        steps.append(n_steps)
        return advance_ensemble(density, X, logf, n_steps, delta, gen)

    def counted_exact(density, count, gen, max_batches=10000):
        proposals.append(0)
        try:
            X = exact(density, count, gen, max_batches=max_batches)
        except (walks.NoExactSampler, walks.WalkError) as exc:
            outcomes.append(type(exc).__name__)
            raise
        outcomes.append("ok")
        return X

    def counted_rejection(propose, accept_mask, count, max_batches):
        def counted_propose(m):
            proposals[-1] += m
            return propose(m)

        return rejection(counted_propose, accept_mask, count, max_batches)

    gen = RngStream(22).generator()
    state = sloc_init(dens, rng=gen, **kwargs)
    monkeypatch.setattr(sloc, "advance_ensemble", counted_steps)
    monkeypatch.setattr(sloc, "exact_sample", counted_exact)
    monkeypatch.setattr(walks, "_rejection", counted_rejection)
    for _ in range(n_steps):
        sloc_step(state, 0.01, gen)
    return state, steps, outcomes, proposals


def test_refresh_work_counts(monkeypatch):
    # identity control on a uniform cube and on a Gaussian: every refresh
    # is one exact call and no chain ever steps
    for dens in (Uniform(AxisCube(4, half_width=np.sqrt(3.0))), _std_gaussian(4)):
        state, steps, outcomes, _ = _count_run_work(monkeypatch, dens, 6)
        assert steps == [] and outcomes == ["ok"] * 6
        assert state.meta["refresh"] == "exact" and state.accept_rate == 1.0
        assert state.log_ensemble is None
        monkeypatch.undo()
    # inverse_sqrt_cov makes B non-scalar: the first refresh's call raises
    # before it draws, and the chains tune once and then step every time
    state, steps, outcomes, proposals = _count_run_work(
        monkeypatch, Uniform(AxisCube(4, half_width=np.sqrt(3.0))), 6,
        control="inverse_sqrt_cov")
    assert outcomes == ["NoExactSampler"] and proposals == [0]
    assert state.meta["refresh"] == "chain"
    assert steps.count(8) == 6 and 1 <= steps.count(4) <= 12
    monkeypatch.undo()
    # at t = 0.01 the tilted law of the uniform ball is N(c/t, I/t) on
    # the ball, far wider than the ball: uniform proposals under the
    # exact sup of the Gaussian on the ball accept nearly all, and every
    # refresh stays exact
    state, steps, outcomes, _ = _count_run_work(
        monkeypatch, Uniform(Ball(8)), 6, k=128)
    assert state.meta["t0_pool"] == "exact"
    assert steps == [] and outcomes == ["ok"] * 6
    assert state.meta["refresh"] == "exact"
    monkeypatch.undo()
    # the unit ball as a ball intersection (it lies inside the cube) has
    # an exact t=0 law by rejection from its bounding ball, but no uniform
    # law for the tilt's envelope, and Gaussian proposals almost never
    # hit it: the budget of 8 batches of max(k, 256) proposals is spent
    # once, and the run stays on the chains as the tilt grows
    state, steps, outcomes, proposals = _count_run_work(
        monkeypatch, Uniform(BallIntersection(AxisCube(8), 1.0)), 6, k=128)
    assert state.meta["t0_pool"] == "exact"
    assert outcomes == ["WalkError"] and proposals == [8 * 256]
    assert state.meta["refresh"] == "chain"
    assert steps.count(8) == 6 and 1 <= steps.count(4) <= 12
    monkeypatch.undo()
    # the plain simplex(4) at k = 256 fills its t=0 pool from the chains;
    # the first t > 0 refresh tries the exact law once more, spends its
    # 8 batches of 256 proposals, and the tuned chains step from then on
    state, steps, outcomes, proposals = _count_run_work(
        monkeypatch, Uniform(plain_polytope(simplex(4))), 6, k=256)
    assert state.meta["t0_pool"] == "chain"
    assert outcomes == ["WalkError"] and proposals == [8 * 256]
    assert state.meta["refresh"] == "chain"
    assert steps == [8] * 6
    monkeypatch.undo()
    # a Boltzmann density has no exact law on a ball: one attempt, no proposal
    state, steps, outcomes, proposals = _count_run_work(
        monkeypatch, Boltzmann(Ball(3), 1.0, np.ones(3)), 6)
    assert state.meta["t0_pool"] == "chain"
    assert outcomes == ["NoExactSampler"] and proposals == [0]
    assert state.meta["refresh"] == "chain"
    assert steps == [8] * 6
    monkeypatch.undo()
    # the closed form samples nothing at any t
    _, summary = sloc_run(_std_gaussian(4), 0.05, h=0.01, closed_form=True,
                          rng=RngStream(22))
    assert summary["t0_pool"] == "closed_form"
    assert summary["refresh"] == "closed_form"


def test_state_invariants_detect_tampering():
    state = sloc_init(Uniform(AxisCube(2)), k=64, rng=RngStream(9))
    state.check_invariants()
    state.phi += 0.5
    with pytest.raises(SlocError, match="phi"):
        state.check_invariants()


def test_pool_reweighting_is_exact():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
    pool = ObservablePool(window=4)
    pool.push(np.zeros(2), np.zeros((2, 2)), X)
    c1 = np.array([0.3, -0.2])
    E = HalfspaceSet(np.array([1.0, 0.0]), 0.0)
    mu, cov, g, ess = pool.estimate(c1, np.zeros((2, 2)), [("E0", E)])
    w = np.exp(X @ c1)
    w /= w.sum()
    assert np.allclose(mu, w @ X)
    assert np.allclose(cov.matrix, X.T @ (X * w[:, None]) - np.outer(w @ X, w @ X))
    assert g["E0"][0] == pytest.approx(float(w @ (X[:, 0] <= 0.0)))
    assert ess == pytest.approx(1.0 / float(w @ w))


def test_pool_drops_stale_group_keeps_fresh():
    # base N(0, I): tilt c turns it into N(c, I).  Each group is pushed
    # with the tilt it was actually drawn under, as the simulator does.
    gen = RngStream(10).generator()
    b = np.array([3.0, 0.0])
    X_old = gen.standard_normal((200, 2))         # drawn at tilt 0
    X_new = gen.standard_normal((200, 2)) + b     # drawn at tilt b
    pool = ObservablePool(window=4, min_ess_frac=0.05)
    pool.push(np.zeros(2), np.zeros((2, 2)), X_old)
    pool.push(b, np.zeros((2, 2)), X_new)
    # querying at tilt b: the old group's overlap collapses (ESS ~ 200 e^-9)
    mu, _, _, ess = pool.estimate(b, np.zeros((2, 2)), ())
    assert ess == pytest.approx(200.0)            # fresh group, unit weights
    assert np.allclose(mu, X_new.mean(axis=0))


def test_pool_never_returns_empty_estimate():
    # a query far from every snapshot falls back to the freshest group
    X = RngStream(11).generator().standard_normal((100, 2))
    pool = ObservablePool(window=4, min_ess_frac=0.05)
    pool.push(np.zeros(2), np.zeros((2, 2)), X)
    mu, cov, _, ess = pool.estimate(np.array([50.0, 0.0]),
                                    np.zeros((2, 2)), ())
    assert np.all(np.isfinite(mu))
    assert np.all(np.isfinite(cov.matrix))
    assert ess >= 1.0


def test_pool_window_eviction():
    pool = ObservablePool(window=2)
    for i in range(5):
        pool.push(np.zeros(1), np.zeros((1, 1)), np.full((3, 1), float(i)))
    assert len(pool.groups) == 2
    assert pool.groups[0][0][0, 0] == 3.0
    # only the two newest snapshots (values 3 and 4) enter the estimate
    mu, _, _, ess = pool.estimate(np.zeros(1), np.zeros((1, 1)))
    assert mu[0] == pytest.approx(3.5)
    assert ess == pytest.approx(6.0)


def test_pool_validation():
    with pytest.raises(ValueError, match="window"):
        ObservablePool(window=0)
    for frac in (-0.1, 1.5):
        with pytest.raises(ValueError, match="min_ess_frac"):
            ObservablePool(min_ess_frac=frac)
    with pytest.raises(ValueError, match="empty pool"):
        ObservablePool().estimate(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        ObservablePool().push(np.zeros(2), np.zeros((2, 2)), np.zeros((0, 2)))


def _pool_oracle(groups, c, B, tracked, min_ess_frac):
    """Snapshot-by-snapshot reference estimate: three-operand einsum and
    sums in insertion order.  Returns the estimate and how many snapshots
    it kept (0 when it fell back to the freshest one)."""
    def group_weights(c_s, B_s, X):
        logw = X @ (c - c_s) - 0.5 * np.einsum("ij,jk,ik->i", X, B - B_s, X)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        return w, 1.0 / float(w @ w)

    kept = []
    for c_s, B_s, X in groups:
        w, ess = group_weights(c_s, B_s, X)
        if ess >= min_ess_frac * len(X):
            kept.append((X, w, ess))
    n_kept = len(kept)
    if not kept:
        c_s, B_s, X = groups[-1]
        kept = [(X, *group_weights(c_s, B_s, X))]
    n = len(c)
    mu, second, total = np.zeros(n), np.zeros((n, n)), 0.0
    acc = dict.fromkeys((name for name, _ in tracked), 0.0)
    for X, w, ess in kept:
        mu += ess * (w @ X)
        second += ess * (X.T @ (X * w[:, None]))
        for name, E in tracked:
            acc[name] += ess * float(w @ (E.signed_distance(X) >= 0.0))
        total += ess
    mu /= total
    cov = second / total - np.outer(mu, mu)
    g = {}
    for name, a in acc.items():
        val = a / total
        g[name] = (val, math.sqrt(max(val * (1.0 - val), 0.0) / total))
    return (mu, cov, g, total), n_kept


def test_pool_matches_per_snapshot_oracle():
    gen = np.random.default_rng(77)
    n = 4

    def psd(scale):
        L = gen.standard_normal((n, n))
        return scale * (L @ L.T)

    c = gen.standard_normal(n)
    B = psd(0.3)
    direction = np.ones(n) / 2.0
    groups = []
    # snapshots drawn at tilts ever further from the query, so the far
    # ones fall under min_ess_frac and are skipped
    for offset in (3.0, 2.0, 0.0, 1.5, 0.5, 1.0, 0.25):
        c_s = c + offset * direction
        B_s = B + psd(0.05)
        groups.append((c_s, B_s, gen.standard_normal((int(gen.integers(60, 140)), n))))
    tracked = [("H", HalfspaceSet(np.array([1.0, 0.0, 0.0, 0.0]), 0.1)),
               ("S", BallSet(np.zeros(n), 2.0))]
    pool = ObservablePool(window=len(groups), min_ess_frac=0.3)
    for c_s, B_s, X in groups:
        pool.push(c_s, B_s, X)

    # the near query keeps some snapshots and skips others; the far one
    # skips all and falls back to the freshest
    for query, near in ((c, True), (c + 40.0 * direction, False)):
        (mu, cov, g, ess), n_kept = _pool_oracle(groups, query, B, tracked, 0.3)
        assert (0 < n_kept < len(groups)) if near else n_kept == 0
        got_mu, got_cov, got_g, got_ess = pool.estimate(query, B, tracked)
        np.testing.assert_allclose(got_mu, mu, rtol=1e-10)
        np.testing.assert_allclose(got_cov.matrix, cov, rtol=1e-10)
        assert got_ess == pytest.approx(ess, rel=1e-10)
        for name in g:
            np.testing.assert_allclose(got_g[name], g[name], rtol=1e-10)


def test_singular_covariance_raises_sloc_error():
    state = sloc_init(_std_gaussian(3), control="inverse_sqrt_cov", k=1,
                      window=1, init_refreshes=1, rng=RngStream(11))
    with pytest.raises(SlocError, match="increase k"):
        sloc_step(state, 0.01, RngStream(12))


def test_truncation_info_for_unbounded_gaussian():
    dens = Gaussian(Ball(4, radius=1000.0), a=1.0)
    state = sloc_init(dens, k=64, rng=RngStream(13))
    assert state.truncation is not None
    assert state.truncation["radius"] == pytest.approx(20.0)
    assert state.truncation["mass_bound"] < 1e-12
    # the working base is the same gaussian on the truncated support
    assert type(state.base) is Gaussian and state.base is not dens
    assert isinstance(state.base.body, BallIntersection)
    assert dens.body.radius == 1000.0


def test_sloc_run_record_grid_and_determinism():
    dens = Uniform(AxisCube(3, half_width=np.sqrt(3.0)))
    sets = {"E0": HalfspaceSet(np.eye(3)[0], 0.0)}
    records, summary = sloc_run(dens, T=0.2, h=0.02, k=96, n_runs=3,
                                tracked_sets=sets, rng=RngStream(14),
                                record_every=2, init_refreshes=4)
    assert len(records) == 3
    r = records[0]
    assert r.t[0] == 0.0
    assert r.t[-1] == pytest.approx(0.2)
    assert len(r.t) == 1 + 5          # initial + steps 2,4,6,8,10
    assert r.columns() == ["run", "t", "phi", "phi_q", "opnorm", "u",
                           "g_E0", "accept_rate"]
    assert len(list(r.rows())) == len(r.t)
    assert summary["n_runs"] == 3
    assert summary["t0_pool"] == "exact"
    assert summary["refresh"] == "exact"
    assert np.all(r.accept_rate == 1.0)
    assert set(summary["sets"]["E0"]) >= {
        "g0_mean", "gT_mean", "combined_se", "martingale_dev",
        "martingale_ok", "max_dev_sigma", "balance_frequency"}
    assert 0.0 <= summary["balance_frequency_all"] <= 1.0
    assert set(summary["phi_ratio_quantiles"]) == {"q10", "q50", "q90"}

    records2, _ = sloc_run(dens, T=0.2, h=0.02, k=96, n_runs=3,
                           tracked_sets=sets, rng=RngStream(14),
                           record_every=2, init_refreshes=4)
    for a, b in zip(records, records2):
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.g["E0"], b.g["E0"])


def test_sloc_run_validation():
    dens = _std_gaussian(2)
    with pytest.raises(ValueError):
        sloc_run(dens, T=0.0, rng=RngStream(0))
    with pytest.raises(ValueError):
        sloc_run(dens, T=1.0, n_runs=0, rng=RngStream(0))
    with pytest.raises(ValueError, match="substream"):
        sloc_run(dens, T=1.0, rng=RngStream(0).generator())


def test_sampled_gaussian_tracks_closed_form():
    # the sampled simulator against its analytic twin on N(0, I_4); every
    # refresh is exact, and inner_steps only sets its rejection budget
    records, summary = sloc_run(_std_gaussian(4), T=0.5, h=0.025, k=256,
                                n_runs=2, rng=RngStream(15), record_every=5,
                                keep_cov=True, inner_steps=24)
    for r in records:
        for t, phi, cov in zip(r.t, r.phi, r.cov_list):
            target = np.eye(4) / (1.0 + t)
            err = np.abs(np.linalg.eigvalsh(cov - target)).max()
            assert err <= 0.16
            assert phi == pytest.approx(4.0 / (1.0 + t) ** 2, abs=0.4)
    assert summary["phiT_mean"] == pytest.approx(4.0 / 1.5 ** 2, rel=0.1)


def test_moment_check_gaussian_cloud():
    X = RngStream(16).generator().standard_normal((4000, 4))
    out = moment_inequality_check(X, k=3)
    assert out["ok"]
    assert out["norm_moment"]["ok"]
    assert 0.0 < out["norm_moment"]["ratio"] < 0.05
    assert out["pair_third_moment"]["constant"] > 0.0
    assert np.isfinite(out["quadratic_drift"]["constant"])


def test_moment_check_one_dim_oracle():
    X = RngStream(17).generator().standard_normal((40000, 1))
    out = moment_inequality_check(X, k=3)
    assert out["norm_moment"]["lhs"] == pytest.approx(ABS3_GAUSS, rel=0.05)
    assert out["norm_moment"]["bound"] == pytest.approx(
        216.0 * float(np.mean(X ** 2)) ** 1.5)


def test_moment_check_fourth_order_and_validation():
    X = RngStream(18).generator().standard_normal((2000, 3))
    out = moment_inequality_check(X, k=4)
    assert out["k"] == 4 and out["norm_moment"]["ok"]
    with pytest.raises(ValueError):
        moment_inequality_check(X, k=5)
    with pytest.raises(ValueError):
        moment_inequality_check(X[:, 0])
    with pytest.raises(ValueError):
        moment_inequality_check(X[:4])


def test_ball_set_tracking_in_closed_form():
    # P(|x| <= rho) for N(0, I_3): rho chosen so the measure sits mid-window
    state = sloc_init(_std_gaussian(3), closed_form=True,
                      tracked_sets={"B": BallSet(np.zeros(3), 1.5)})
    from scipy.stats import chi2
    assert state.g["B"] == pytest.approx(float(chi2.cdf(1.5 ** 2, 3)), rel=1e-10)


def test_ball_measure_is_ncx2_cdf_bit_for_bit():
    # _gaussian_set_measure calls scipy.special directly, so that klslab
    # never imports scipy.stats; it must return ncx2.cdf's bits, at nc = 0
    # (a ball centered on the mean) and at nc > 0
    gen = RngStream(11).generator()
    for _ in range(500):
        n = int(gen.integers(1, 13))
        mean = gen.normal(size=n)
        var = float(gen.uniform(0.01, 10.0))
        for center in (mean.copy(), mean + gen.normal(size=n) * gen.uniform(0.01, 5.0)):
            E = BallSet(center, gen.uniform(0.01, 6.0))
            nc = float(np.sum((mean - E.center) ** 2)) / var
            want = float(ncx2.cdf(E.rho ** 2 / var, df=n, nc=nc))
            assert sloc._gaussian_set_measure(mean, var, E) == want, (n, var, nc)
