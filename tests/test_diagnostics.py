import numpy as np
import pytest
from scipy import ndimage, stats

from klslab.bodies import AxisCube
from klslab.densities import Gaussian, Uniform
from klslab.diagnostics import (BallSet, HalfspaceSet, SlabSet,
                                _half_bin_keys, _kde_1d, _log_cheeger_weight,
                                _sorted_quantile,
                                ball_walk_mixing_estimate, compute_constants,
                                conductance_tv_bound, default_shell_width,
                                default_test_functions, direction_family,
                                halfspace_isoperimetry,
                                linear_test, log_cheeger_halfspace,
                                mixing_bounds, poincare_family_min,
                                poincare_ratio,
                                quadratic_test, silverman_bandwidth,
                                slicing_constant, subset_isoperimetry,
                                thin_shell)
from klslab.estimates import Estimate, bootstrap_se
from klslab.rng import RngStream
from klslab.walks import exact_sample

# a masked log(1/0) or a NaN in an estimator's array pass must fail here,
# not pass with a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# closed-form targets for the standard normal
PSI_GAUSS = 0.7978845608028654          # sqrt(2/pi), halfspace cut at 0
INV_SQRT3 = 0.5773502691896258          # axis cut of the isotropic cube
VAR_CHI16 = 0.4919542013589737          # Var |x|, x ~ N(0, I_16)
SLICING_GAUSS = 0.3989422804014327      # (2 pi)^(-1/2) = f(0)^(1/n)


def _gaussian_cloud(n, count, seed):
    return RngStream(seed).generator().standard_normal((count, n))


def test_estimate_json_schema_and_mean():
    # the external schema is exactly value, se and n; the method stays out
    e = Estimate(2.5, 0.6454972243679028, 4, "mc_mean")
    assert e.to_json_dict() == {"value": 2.5, "se": 0.6454972243679028, "n": 4}
    assert str(e) == "2.5 +/- 0.65 (n=4, mc_mean)"


def test_bootstrap_se_scaling():
    gen = RngStream(2).generator()
    v = gen.standard_normal(4000)
    se = bootstrap_se(v, lambda z: z.mean(), RngStream(3).generator())
    assert se == pytest.approx(1.0 / np.sqrt(4000), rel=0.5)


def test_direction_family_shape():
    X = _gaussian_cloud(5, 400, 0)
    dirs = direction_family(X, RngStream(1).generator(), n_random=7, n_eig=2)
    assert dirs.shape == (5 + 7 + 2, 5)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_halfspace_psi_gaussian():
    X = _gaussian_cloud(8, 20000, 5)
    est = halfspace_isoperimetry(X, rng=RngStream(6).generator())
    assert abs(est.value - PSI_GAUSS) < 0.05
    assert est.std_error > 0


def test_halfspace_psi_rotation_invariant():
    X = _gaussian_cloud(6, 12000, 7)
    Q = np.linalg.qr(RngStream(8).generator().standard_normal((6, 6)))[0]
    a = halfspace_isoperimetry(X, rng=RngStream(9).generator())
    b = halfspace_isoperimetry(X @ Q.T, rng=RngStream(9).generator())
    assert abs(a.value - b.value) < 0.06


def test_halfspace_psi_isotropic_cube_axis_cut():
    # the flat axis marginal beats every skew direction: psi -> 1/sqrt(3)
    dens = Uniform(AxisCube(6, half_width=np.sqrt(3.0)))
    X = exact_sample(dens, 20000, RngStream(10).generator())
    est, detail = halfspace_isoperimetry(X, rng=RngStream(11).generator(),
                                         full_output=True)
    assert abs(est.value - INV_SQRT3) < 0.06
    best = detail["direction"]
    # winning direction is essentially a coordinate axis
    assert np.max(np.abs(best)) > 0.99


def test_log_cheeger_gaussian_center_cut():
    # min over s of f(s) / (m sqrt(1 + ln(1/m))) sits at s = 0 for the
    # normal; the closed form is phi(0) / (0.5 sqrt(1 + ln 2))
    X = _gaussian_cloud(4, 20000, 12)
    oracle = stats.norm.pdf(0.0) / (0.5 * np.sqrt(1.0 + np.log(2.0)))
    est = log_cheeger_halfspace(X, rng=RngStream(13).generator())
    assert abs(est.value - oracle) < 0.05


@pytest.mark.parametrize("estimator", [halfspace_isoperimetry,
                                       log_cheeger_halfspace])
def test_halfspace_scan_needs_thresholds_above_floor(estimator):
    # one sample: the empirical CDF is 0 or 1 at every threshold
    X = np.ones((1, 3))
    with pytest.raises(ValueError, match="CDF floor"):
        estimator(X, rng=RngStream(15).generator())


@pytest.mark.parametrize("estimator", [halfspace_isoperimetry,
                                       log_cheeger_halfspace])
def test_halfspace_scan_needs_thresholds_above_floor_in_every_resample(estimator):
    # two samples: the full sample's CDF reaches 1/2, but a resample that
    # draws one point twice has no threshold above the floor
    X = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="a resample .* CDF floor"):
        estimator(X, rng=RngStream(15).generator())


# Textbook reference for the halfspace scan: np.percentile and np.histogram
# on each column as given, np.sort for the CDF, the whole projection matrix
# gathered per bootstrap.  A resample keeps the full sample's grid and
# kernel width.  The package must reproduce it bit for bit.


def _ref_silverman(z):
    std = z.std()
    q75, q25 = np.percentile(z, [75, 25])
    spread = min(std, (q75 - q25) / 1.34) if q75 > q25 else std
    if spread <= 0:
        spread = max(abs(z).max(), 1.0) * 1e-6
    return 0.9 * spread * z.size ** (-0.2)


def _ref_grid(z):
    """(edges, sigma) of z's KDE: sigma = h / dx, the kernel width in bins."""
    h = _ref_silverman(z)
    edges = np.linspace(z.min() - 4 * h, z.max() + 4 * h, 1025)
    return edges, h / (edges[1] - edges[0])


def _ref_kde(z, edges, sigma):
    n = z.size
    dx = edges[1] - edges[0]
    counts, _ = np.histogram(z, bins=edges)
    smooth = ndimage.gaussian_filter1d(counts.astype(float), sigma=sigma,
                                       mode="constant", truncate=6.0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    cdf = np.searchsorted(np.sort(z), centers, side="right") / n
    return centers, smooth / (n * dx), cdf


def _ref_profile_min(z, grid, weight):
    centers, density, cdf = _ref_kde(z, *grid)
    m = np.minimum(cdf, 1.0 - cdf)
    ok = m >= 0.01
    ratio = density[ok] / weight(m[ok])
    i = int(np.argmin(ratio))
    return float(ratio[i]), float(centers[ok][i])


def _ref_scan(X, rng, n_boot, weight):
    directions = direction_family(X, rng)
    Z = X @ directions.T
    cols = range(directions.shape[0])
    grids = [_ref_grid(Z[:, j]) for j in cols]
    per_dir, thresholds = map(np.array, zip(*(
        _ref_profile_min(Z[:, j], grids[j], weight) for j in cols)))
    boots = []
    for _ in range(n_boot):
        idx = rng.integers(0, X.shape[0], size=X.shape[0])
        Zb = Z[idx]
        boots.append(min(_ref_profile_min(Zb[:, j], grids[j], weight)[0]
                         for j in cols))
    return directions, per_dir, thresholds, float(np.std(boots, ddof=1))


def test_halfspace_scan_matches_textbook_reference_bit_for_bit():
    # one decimal makes ties along every axis direction
    X = np.round(_gaussian_cloud(4, 3000, 16), 1)
    X[:, 3] = RngStream(17).generator().uniform(-1.0, 1.0, 3000)

    dirs, per_dir, thresholds, se = _ref_scan(
        X, RngStream(18).generator(), 16, lambda m: m)
    est, detail = halfspace_isoperimetry(X, rng=RngStream(18).generator(),
                                         full_output=True)
    best = int(np.argmin(per_dir))
    assert (est.value, est.std_error) == (per_dir[best], se)
    np.testing.assert_array_equal(detail["per_direction"], per_dir)
    np.testing.assert_array_equal(detail["thresholds"], thresholds)
    assert detail["direction_index"] == best
    np.testing.assert_array_equal(detail["direction"], dirs[best])

    # kappa comes from the same scan: same directions, same resamples
    _, per_dir, _, se = _ref_scan(X, RngStream(18).generator(), 16,
                                  _log_cheeger_weight)
    kappa = detail["log_cheeger"]
    assert (kappa.value, kappa.std_error) == (per_dir.min(), se)
    assert log_cheeger_halfspace(X, rng=RngStream(18).generator()) == kappa


def test_log_cheeger_scan_matches_reference_on_a_gaussian_cloud():
    X = _gaussian_cloud(8, 20000, 28)
    _, per_dir, _, se = _ref_scan(X, RngStream(29).generator(), 16,
                                  _log_cheeger_weight)
    est = log_cheeger_halfspace(X, rng=RngStream(29).generator())
    assert (est.value, est.std_error) == (per_dir.min(), se)


def test_halfspace_se_calibrated_over_independent_clouds():
    # the bootstrap se must match the spread of psi-hat and kappa-hat
    # across clouds; one scan gives both
    ests = []
    for seed in range(40):
        psi, detail = halfspace_isoperimetry(
            _gaussian_cloud(4, 5000, 300 + seed),
            rng=RngStream(400 + seed).generator(), full_output=True)
        ests.append((psi, detail["log_cheeger"]))
    for column in zip(*ests):
        values = [e.value for e in column]
        ses = [e.std_error for e in column]
        assert 0.7 <= np.std(values, ddof=1) / np.mean(ses) <= 1.4


def _closed_last_bin_column():
    # the maximum is so large that max + 4h rounds back to the maximum, so
    # it sits exactly on the last edge, which only a closed bin counts
    z = np.append(RngStream(20).generator().uniform(0.0, 1.0, 999), 2.0 ** 60)
    assert z.max() + 4 * silverman_bandwidth(z) == z.max()
    return z


@pytest.mark.parametrize("column", [
    lambda: RngStream(21).generator().standard_normal(2000),
    lambda: np.round(RngStream(22).generator().standard_normal(2000), 1),
    lambda: RngStream(23).generator().integers(0, 3, 500).astype(float),
    lambda: np.full(300, 3.0),
    _closed_last_bin_column,
], ids=["normal", "ties", "three-values", "constant", "closed-last-bin"])
def test_kde_matches_textbook_reference_bit_for_bit(column):
    z = column()
    got = _kde_1d(z)
    edges, sigma = _ref_grid(z)
    want = (edges, sigma, *_ref_kde(z, edges, sigma))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("column", [
    lambda: RngStream(21).generator().standard_normal(2000),
    lambda: np.round(RngStream(22).generator().standard_normal(2000), 1),
    lambda: np.full(300, 3.0),
    _closed_last_bin_column,
], ids=["normal", "ties", "constant", "closed-last-bin"])
def test_half_bin_keys_follow_histogram_bins(column):
    z = column()
    edges, _, centers, _, _ = _kde_1d(z)
    up, down = np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)
    probe = np.concatenate([z, edges, centers, up[:-1], down[1:],
                            np.nextafter(centers, np.inf)])
    keys = _half_bin_keys(probe, edges, centers)
    # each value's bin is the one np.histogram counts it in; the center
    # itself belongs to the left half
    bins = np.array([np.argmax(np.histogram([v], bins=edges)[0]) for v in probe])
    np.testing.assert_array_equal(keys, 2 * bins + (probe > centers[bins]))
    last = 2 * (edges.size - 2)  # left half of the last bin
    on_edges = _half_bin_keys(edges[[0, 5, -1]], edges, centers)
    on_centers = _half_bin_keys(centers[[0, 5, -1]], edges, centers)
    assert list(on_edges) == [0, 10, last + 1]
    assert list(on_centers) == [0, 10, last]


@pytest.mark.parametrize("column", [
    lambda: RngStream(24).generator().standard_normal(1001),
    lambda: RngStream(25).generator().standard_normal(1000),
    lambda: np.round(RngStream(26).generator().standard_normal(998), 1),
    lambda: RngStream(27).generator().integers(0, 3, 11).astype(float),
    lambda: np.full(6, -2.5),
    lambda: np.array([4.0]),
    # numpy's two interpolation forms differ in the last bit on these:
    # q75 at gamma 3/4, and q25 at gamma exactly 1/2
    lambda: np.array([0.87, 0.29]),
    lambda: np.array([0.64, 0.04, 0.27]),
], ids=["odd", "even", "ties", "three-values", "constant", "one", "two",
        "three"])
def test_sorted_quantile_matches_percentile_bit_for_bit(column):
    z = column()
    zs = np.sort(z)
    q75, q25 = np.percentile(zs, [75, 25])
    assert float(_sorted_quantile(zs, 0.75)).hex() == float(q75).hex()
    assert float(_sorted_quantile(zs, 0.25)).hex() == float(q25).hex()
    # the public bandwidth sorts its own copy; z stays in its order
    assert float(silverman_bandwidth(z)).hex() == float(_ref_silverman(z)).hex()


def test_subset_halfspace_matches_density():
    X = _gaussian_cloud(4, 40000, 14)
    est, rows = subset_isoperimetry(X, [HalfspaceSet(np.eye(4)[0], 0.0)],
                                    full_output=True)
    assert abs(est.value - PSI_GAUSS) < 0.05
    assert rows[0]["measure"] == pytest.approx(0.5, abs=0.02)


def test_subset_ball_set_chi_law():
    # for N(0, I_2): P(|x| <= 1) = 1 - e^{-1/2}, radial pdf at 1 = e^{-1/2}
    X = _gaussian_cloud(2, 40000, 15)
    inside = 1.0 - np.exp(-0.5)
    ratio = np.exp(-0.5) / inside
    est = subset_isoperimetry(X, [BallSet(np.zeros(2), 1.0)], eps=0.05)
    assert abs(est.value - ratio) < 0.12


def test_subset_slab_and_validation():
    X = _gaussian_cloud(3, 8000, 16)
    est = subset_isoperimetry(X, [SlabSet(np.eye(3)[0], -1.0, 1.0)])
    assert est.value > 0
    with pytest.raises(ValueError):
        SlabSet(np.eye(3)[0], 1.0, -1.0)
    far = [HalfspaceSet(np.eye(3)[0], 50.0)]  # full measure
    with pytest.raises(ValueError):
        subset_isoperimetry(X, far)


def test_default_shell_width():
    assert default_shell_width(16) == pytest.approx(0.2)


def test_thin_shell_chi_16():
    X = _gaussian_cloud(16, 40000, 17)
    est, var_est = thin_shell(X, full_output=True)
    assert abs(var_est.value - VAR_CHI16) < 0.04
    assert est.value == pytest.approx(np.sqrt(var_est.value))


def test_slicing_constant_gaussian():
    X = _gaussian_cloud(6, 20000, 18)
    est = slicing_constant(X, rng=RngStream(19).generator())
    assert abs(est.value - SLICING_GAUSS) < 0.03


def _ref_slicing(X, rng):
    # the estimator as first written: every resample gathers whole rows
    N, n = X.shape
    mu = X.mean(axis=0)
    xc = X - mu
    cov = xc.T @ xc / N
    sd = np.sqrt(np.maximum(np.diag(cov), 1e-300))
    Z = xc / sd
    h = (4.0 / (n + 2.0)) ** (1.0 / (n + 4.0)) * N ** (-1.0 / (n + 4.0))

    def value_of(Zm):
        sq = np.einsum("ij,ij->i", Zm, Zm)
        log_kernel = -0.5 * sq / (h * h)
        peak = log_kernel.max()
        s = np.exp(log_kernel - peak).sum()
        logp = (peak + np.log(s) - np.log(Zm.shape[0])
                - 0.5 * n * np.log(2 * np.pi) - n * np.log(h))
        logp = logp - np.log(sd).sum()
        return np.exp(logp / n) * np.sqrt(1.0 + h * h)

    boots = []
    for _ in range(16):
        idx = rng.integers(0, N, size=N)
        boots.append(value_of(Z[idx]))
    return float(value_of(Z)), float(np.std(boots, ddof=1))


@pytest.mark.parametrize("seed", [30, 31, 32])
def test_slicing_constant_matches_row_gathering_reference(seed):
    X = _gaussian_cloud(8, 5000, seed)
    est = slicing_constant(X, rng=RngStream(seed + 10).generator())
    assert (est.value, est.std_error) == _ref_slicing(
        X, RngStream(seed + 10).generator())


def test_slicing_warns_on_anisotropy():
    X = _gaussian_cloud(3, 4000, 20) * np.array([3.0, 1.0, 1.0])
    with pytest.warns(UserWarning, match="isotropic"):
        slicing_constant(X, rng=RngStream(21).generator())


def test_poincare_linear_and_quadratic_gaussian():
    X = _gaussian_cloud(5, 30000, 22)
    lin = poincare_ratio(X, linear_test(np.eye(5)[0]))
    assert lin.value == pytest.approx(1.0, abs=0.05)
    # g = |x|^2: E|grad|^2 = 4n, Var = 2n, ratio exactly 2
    quad = poincare_ratio(X, quadratic_test(np.eye(5)))
    assert quad.value == pytest.approx(2.0, abs=0.15)


def test_poincare_family_min_reports_linear():
    X = _gaussian_cloud(4, 20000, 23)
    best, all_ests = poincare_family_min(
        X, default_test_functions(4, RngStream(24).generator()))
    assert best.value == pytest.approx(1.0, abs=0.06)
    assert best.value == min(e.value for e in all_ests)
    with pytest.raises(ValueError):
        poincare_ratio(np.zeros((50, 2)), linear_test([1.0, 0.0]))


def test_conductance_tv_bound_exact_values():
    assert conductance_tv_bound(0.1, 4.0, 0) == pytest.approx(2.0)
    assert conductance_tv_bound(0.1, 4.0, 1) == pytest.approx(2.0 * 0.995)
    assert conductance_tv_bound(0.5, 1.0, 10) == pytest.approx(0.875 ** 10)


def test_conductance_bound_hits_epsilon_at_classic_time():
    # t = ceil(2 ln(sqrt(M)/eps) / phi^2) forces the envelope under eps
    for phi in (0.02, 0.1, 0.3, 0.9):
        for M in (1.5, 4.0, 100.0):
            for eps in (0.25, 0.01):
                t = int(np.ceil(2.0 * np.log(np.sqrt(M) / eps) / phi ** 2))
                assert conductance_tv_bound(phi, M, t) <= eps


def test_conductance_bound_validation():
    with pytest.raises(ValueError):
        conductance_tv_bound(1.5, 4.0, 1)
    with pytest.raises(ValueError):
        conductance_tv_bound(0.5, 0.5, 1)
    with pytest.raises(ValueError):
        conductance_tv_bound(0.5, 4.0, -1)


def test_mixing_bounds_and_ball_walk_plugin():
    lo, hi = mixing_bounds(0.2, np.e ** 4)
    assert lo == pytest.approx(5.0)
    assert hi == pytest.approx(100.0)
    assert ball_walk_mixing_estimate(10, 0.5) == pytest.approx(400.0)
    with pytest.raises(ValueError):
        mixing_bounds(0.0, 4.0)
    with pytest.raises(ValueError):
        ball_walk_mixing_estimate(10, 0.0)


def test_compute_constants_scans_once():
    # psi and kappa come from one halfspace_isoperimetry call, and the
    # estimators after it draw from the generator in this order
    X = _gaussian_cloud(8, 4000, 33)
    report = compute_constants(X, RngStream(34).generator())
    psi, detail = halfspace_isoperimetry(X, RngStream(34).generator(),
                                         full_output=True)
    assert (report.psi_halfspace, report.kappa_log_cheeger) == (
        psi, detail["log_cheeger"])
    gen = RngStream(34).generator()
    halfspace_isoperimetry(X, gen)
    sigma, sigma_var = thin_shell(X, full_output=True)
    lhat = slicing_constant(X, gen)
    zeta, _ = poincare_family_min(X, default_test_functions(8, gen))
    assert (report.sigma_thin_shell, report.sigma_thin_shell_variance,
            report.slicing_l, report.poincare_zeta) == (
        sigma, sigma_var, lhat, zeta)


def test_compute_constants_report():
    X = _gaussian_cloud(8, 12000, 26)
    report = compute_constants(X, RngStream(27).generator(),
                               test_sets=[HalfspaceSet(np.eye(8)[0], 0.0)])
    assert abs(report.psi_halfspace.value - PSI_GAUSS) < 0.08
    assert report.psi_subsets is not None
    d = report.to_json_dict()
    for key in ("psi_halfspace", "sigma_thin_shell", "slicing_l",
                "poincare_zeta", "kappa_log_cheeger", "psi_subsets"):
        assert set(d[key]) == {"value", "se", "n"}
    assert d["n_dim"] == 8 and d["n_samples"] == 12000
    assert "sigma_psi_product" in d["notes"]
