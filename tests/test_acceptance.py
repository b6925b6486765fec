"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (collected again in the
terminal summary) with the measured quantity and its tolerance.  All
runs are seeded, so the measured values are reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from klslab import cli
from klslab.bodies import AxisCube, Ball
from klslab.densities import Gaussian, Uniform
from klslab.diagnostics import (HalfspaceSet, conductance_tv_bound,
                                mixing_bounds)
from klslab.isotropy import estimate_mean_cov
from klslab.linalg import stieltjes_u
from klslab.rng import RngStream
from klslab.sloc import moment_inequality_check, sloc_run
from klslab.volume import (anneal_optimize, cutting_plane_feasibility,
                           dfk_volume, lv_annealing_volume,
                           separation_oracle_for)
from klslab.walks import exact_sample

PSI_GAUSS = 0.7978845608028654          # sqrt(2/pi)
VOL_BALL_5 = 5.263789013914324          # pi^2 * 8/15


def _opnorm(M):
    return float(np.abs(np.linalg.eigvalsh(M)).max())


def test_criterion_01_gaussian_halfspace_isoperimetry(tmp_path, criterion_report):
    # constants subcommand on 1e5 exact standard-Gaussian samples, n=8;
    # the cube's truncation at 12 sd removes no mass in double precision,
    # so the coordinatewise truncated-normal draws are exact N(0, I)
    # samples
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text('[body]\nkind = "cube"\nn = 8\nhalf_width = 12.0\n'
                        '[density]\nkind = "gaussian"\n'
                        "[walk]\nexact = true\nn_samples = 100000\n")
    out = tmp_path / "out"
    t0 = time.perf_counter()
    rc = cli.main(["constants", "--config", str(cfg_file), "--out", str(out),
                   "--seed", "0"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    payload = json.loads((out / "constants_seed0.json").read_text())
    psi = payload["constants"]["psi_halfspace"]["value"]
    dev = abs(psi - PSI_GAUSS)
    ok = dev <= 0.03 and elapsed < 30.0
    criterion_report(1, ok, f"psi_halfspace {psi:.4f} vs sqrt(2/pi) "
                            f"{PSI_GAUSS:.4f}, |dev| {dev:.4f} <= 0.03, "
                            f"{elapsed:.1f}s < 30s")


def test_criterion_02_covariance_sample_complexity(criterion_report):
    n, eps = 20, 0.5
    m = int(10 * n / eps ** 2)
    t0 = time.perf_counter()
    hits = 0
    worst = 0.0
    for seed in range(100):
        X = RngStream(seed).generator().standard_normal((m, n))
        _, Y = estimate_mean_cov(X)
        err = _opnorm(Y.matrix - np.eye(n))
        worst = max(worst, err)
        hits += err <= eps
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and elapsed < 60.0
    criterion_report(2, ok, f"m={m}, n={n}: |Y-I| <= {eps} in {hits}/100 "
                            f"trials (need >= 95), worst {worst:.3f}, "
                            f"{elapsed:.1f}s < 60s")


def test_criterion_03_volume_two_bodies_two_schedules(criterion_report):
    cases = [
        ("dfk", "cube4", AxisCube(4), 16.0, lambda b, r: dfk_volume(b, r, k=4000)),
        ("dfk", "ball5", Ball(5), VOL_BALL_5, lambda b, r: dfk_volume(b, r, k=4000)),
        ("lv", "cube4", AxisCube(4), 16.0,
         lambda b, r: lv_annealing_volume(b, r, k=3000, thin=4)),
        ("lv", "ball5", Ball(5), VOL_BALL_5,
         lambda b, r: lv_annealing_volume(b, r, k=3000, thin=5)),
    ]
    ok = True
    details = []
    for method, label, body, truth, fn in cases:
        worst_rel = 0.0
        t0 = time.perf_counter()
        for seed in (0, 1, 2):
            res = fn(body, RngStream(seed))
            worst_rel = max(worst_rel, abs(res.value - truth) / truth)
        elapsed = time.perf_counter() - t0
        ok = ok and worst_rel <= 0.10 and elapsed < 300.0
        details.append(f"{method}/{label} worst rel {worst_rel:.3f} "
                       f"({elapsed:.0f}s)")
    criterion_report(3, ok, "3 seeds each, tol 10%: " + ", ".join(details))


def test_criterion_04_grunbaum_and_cutting_plane(criterion_report):
    # part 1: centroid halfspaces on the isotropic cube keep at least a
    # 1/e - 0.02 fraction, measured over 1000 random cut directions
    gen = RngStream(0).generator()
    body = AxisCube(4, half_width=np.sqrt(3.0))
    X = exact_sample(Uniform(body), 4000, gen)
    centroid = X.mean(axis=0)
    U = gen.standard_normal((1000, 4))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    side = (X - centroid) @ U.T <= 0.0
    min_frac = float(side.mean(axis=0).min())
    grunbaum_ok = min_frac >= 1.0 / math.e - 0.02

    # part 2: feasibility on the offset-ball instance within the
    # ceil(3 n log(R/r)) iteration budget in >= 90% of 50 seeds
    n, R, r = 4, 1.0, 0.1
    center = np.zeros(n)
    center[0] = 0.5
    target = Ball(n, radius=r, center=center)
    budget = math.ceil(3 * n * math.log(R / r))
    wins = 0
    for seed in range(50):
        res = cutting_plane_feasibility(separation_oracle_for(target), n,
                                        R=R, r=r, rng=RngStream(seed),
                                        target_body=target)
        wins += res.found and res.n_iterations <= budget
    cut_ok = wins >= 45
    criterion_report(4, grunbaum_ok and cut_ok,
                     f"min retained fraction {min_frac:.3f} >= "
                     f"{1.0 / math.e - 0.02:.3f}; cutting plane "
                     f"{wins}/50 within {budget} iterations (need >= 45)")


def test_criterion_05_annealed_optimization(criterion_report):
    n, eps = 8, 0.1
    body = AxisCube(n)
    c = np.zeros(n)
    c[0] = 1.0
    res = anneal_optimize(body, c, eps, RngStream(0))
    # the schedule starts at alpha_0 = 1/(2 R |c|) and stops at n/eps
    expected = math.ceil(math.sqrt(n) * math.log((n / eps) / (1.0 / (2.0 * body.R))))
    value_ok = res.best_value <= -1.0 + 0.15
    phases_ok = abs(res.n_phases - expected) <= 1
    criterion_report(5, value_ok and phases_ok,
                     f"objective {res.best_value:.4f} <= -0.85; phases "
                     f"{res.n_phases} vs ceil(sqrt(n) ln(a_f/a_0)) = "
                     f"{expected} +- 1")


def test_criterion_06_localization_oracle_agreement(criterion_report):
    density = Gaussian(Ball(8, 50.0 * np.sqrt(8.0)), a=1.0)
    t0 = time.perf_counter()
    records, _ = sloc_run(density, T=1.0, h=0.005, k=512, n_runs=1,
                          rng=RngStream(0), keep_cov=True)
    elapsed = time.perf_counter() - t0
    rec = records[0]
    errs = np.array([_opnorm(cov - np.eye(8) / (1.0 + t))
                     for t, cov in zip(rec.t, rec.cov_list)])
    sup_err = float(errs.max())
    phi_ratio = rec.phi[-1] / (8.0 / 4.0)
    ok = sup_err <= 0.15 and abs(phi_ratio - 1.0) <= 0.20 and elapsed < 300.0
    criterion_report(6, ok, f"sup_t |A_t - I/(1+t)| = {sup_err:.3f} <= 0.15 "
                            f"over {len(errs)} points; phi_T/(n/4) = "
                            f"{phi_ratio:.3f} in [0.8, 1.2]; {elapsed:.0f}s "
                            f"< 300s")


def test_criterion_07_martingale_balance(criterion_report):
    n = 8
    density = Uniform(AxisCube(n, half_width=np.sqrt(3.0)))
    E = HalfspaceSet(np.eye(n)[0], 0.0)
    T = 0.25 / math.sqrt(float(n))  # Phi_0 = tr(I^2) = n for isotropic bases
    _, summary = sloc_run(density, T=T, n_runs=100, tracked_sets=[("E0", E)],
                          rng=RngStream(0), threads=4)
    s = summary["sets"]["E0"]
    dev = abs(s["gT_mean"] - s["g0_mean"])
    mart_ok = dev <= 3.0 * s["combined_se"] and s["martingale_ok"]
    start_ok = abs(s["g0_mean"] - 0.5) <= 0.02
    bal_ok = s["balance_frequency"] >= 0.5
    criterion_report(7, mart_ok and start_ok and bal_ok,
                     f"g_0 {s['g0_mean']:.4f} ~ 1/2; |mean g_T - g_0| = "
                     f"{dev:.4f} <= 3 x {s['combined_se']:.4f}; balance "
                     f"frequency {s['balance_frequency']:.2f} >= 0.5")


def test_criterion_08_moment_inequalities(criterion_report):
    m = 6000
    ok = True
    worst_spread = 0.0
    for base in ("gaussian", "cube"):
        for n in (4, 8, 16):
            vals = {"norm": [], "pair": [], "drift": []}
            for seed in (0, 1, 2):
                gen = RngStream(seed).generator()
                if base == "gaussian":
                    X = gen.standard_normal((m, n))
                else:
                    X = gen.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(m, n))
                rep = moment_inequality_check(X, k=3)
                ok = ok and rep["norm_moment"]["ok"] \
                    and rep["pair_third_moment"]["ok"] \
                    and rep["quadratic_drift"]["ok"]
                vals["norm"].append(rep["norm_moment"]["ratio"])
                vals["pair"].append(rep["pair_third_moment"]["constant"])
                vals["drift"].append(rep["quadratic_drift"]["constant"])
            for v in vals.values():
                v = np.asarray(v)
                ok = ok and np.all(np.isfinite(v))
                spread = float(np.abs(v - v.mean()).max() / v.mean())
                worst_spread = max(worst_spread, spread)
    ok = ok and worst_spread <= 0.20
    criterion_report(8, ok, f"all checks pass on 2 bases x n in (4,8,16) x "
                            f"3 seeds; worst cross-seed spread "
                            f"{worst_spread:.3f} <= 0.20")


def test_criterion_09_stieltjes_potential(criterion_report):
    dev_eye = max(abs(stieltjes_u(np.eye(k)) - 2.0) for k in (1, 2, 5))
    # independent 1-D root-find for A = diag(1, 0):
    # 1/(u-1)^2 + 1/u^2 = 2 on u > 1
    oracle = brentq(lambda u: 1.0 / (u - 1.0) ** 2 + 1.0 / u ** 2 - 2.0,
                    1.0 + 1e-9, 10.0, xtol=1e-14)
    got = stieltjes_u(np.diag([1.0, 0.0]))
    dev_diag = abs(got - oracle)
    ok = dev_eye <= 1e-10 and dev_diag <= 1e-6
    criterion_report(9, ok, f"u(I) = 2 within {dev_eye:.1e} (tol 1e-10); "
                            f"u(diag(1,0)) = {got:.10f} vs root-find oracle "
                            f"{oracle:.10f}, |dev| {dev_diag:.1e} <= 1e-6")


def test_criterion_10_thread_count_determinism(tmp_path, criterion_report):
    # a run that actually fans out over workers: 4 localization runs
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text('[body]\nkind = "cube"\nn = 3\n'
                        '[density]\nkind = "gaussian"\n'
                        '[sloc]\nn_runs = 4\nk = 32\nT = 0.06\nh = 0.02\n'
                        'inner_steps = 4\nsets = ["halfspace 0 0.0"]\n')
    blobs = []
    for tag, threads in (("t1a", "1"), ("t1b", "1"), ("t8a", "8"), ("t8b", "8")):
        out = tmp_path / tag
        rc = cli.main(["sloc", "--config", str(cfg_file), "--out", str(out),
                       "--seed", "11", "--threads", threads])
        assert rc == 0
        blobs.append((out / "sloc_seed11.csv").read_bytes()
                     + (out / "sloc_seed11.json").read_bytes())
    ok = all(b == blobs[0] for b in blobs[1:])
    criterion_report(10, ok, "sloc artifacts byte-identical across reruns "
                             "and thread counts 1 vs 8")


def test_criterion_11_mixing_bound_calculator(criterion_report):
    exact = conductance_tv_bound(0.1, 4.0, 0)
    plug_ok = exact == 2.0
    grid_ok = True
    for phi in (0.02, 0.05, 0.1, 0.3, 0.9):
        for M in (1.5, 4.0, 100.0):
            lower, upper = mixing_bounds(phi, M)
            plug_ok = plug_ok and lower == 1.0 / phi \
                and upper == float(np.log(M)) / (phi * phi)
            for eps in (0.5, 0.25, 0.01, 1e-4):
                t = math.ceil(2.0 * math.log(math.sqrt(M) / eps) / phi ** 2)
                grid_ok = grid_ok and conductance_tv_bound(phi, M, t) <= eps
    criterion_report(11, plug_ok and grid_ok,
                     f"tv bound at (0.1, 4, t=0) = {exact} == 2.0; bound <= "
                     f"eps at t = ceil(2 log(sqrt(M)/eps)/phi^2) on a "
                     f"5x3x4 grid")
