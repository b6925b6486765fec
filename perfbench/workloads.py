"""The benchmark's workloads: fixed lists of klslab CLI jobs and their gates.

A job is one `klslab <subcommand> --config ... --seed ... --threads 1`
invocation.  Its seed is derived from the workload seed and the job name,
so one benchmark seed fixes every input.  Each job carries a gate that
reads the artifacts the job wrote and applies the fixed tolerances of the
acceptance criterion the job's config comes from.

Gates that already fail at the commit that added this benchmark are listed
in KNOWN_DEFECTS.  They still run and still count toward fail_frac; they
only keep the run's `correct` flag from flipping on a defect that predates
the benchmark.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

PSI_GAUSS = math.sqrt(2.0 / math.pi)

# gate name -> why it fails at the commit that added this benchmark
KNOWN_DEFECTS = {
    "isotropy.window": "iterated_gaussian_isotropy never enters the [1/2, 2] "
                       "eigenvalue window for n >= 6; it stops at max_iters",
    "volume_lv.tolerance": "the benchmark runs lv at k=500 with the default thin "
                           "(the CLI passes none), far below criterion 3's "
                           "k=3000 with thin=4/5, which meets 10%; at k=500 "
                           "the estimate misses 10% on about 7 seeds in 10. "
                           "volume_lv.log_tolerance is the lv gate that counts",
    "volume_lv.phase_abort": "the CLI's lv at the default thin aborts with "
                             "VolumePhaseError (a phase's relative variance "
                             "over 10) on 3 of 440 cube4/ball5 jobs over "
                             "seeds 0-219; seed 147's ball5 job aborts at "
                             "k=1000 too and passes with thin=5",
    "sloc.martingale": "the 3-se check trips on about 1 seed in 40 (z = 3.83 on "
                       "the 40-run cube job); over 40 seeds the z-scores have "
                       "sd 1.19, so combined_se is about 20% too small",
}


@dataclass(frozen=True)
class Job:
    name: str          # unique within the workload; names the output dir
    subcommand: str
    metric: str        # per-subcommand seconds metric this job adds to
    config: str        # config file text
    gate: object       # gate(job, out_dir, seed) -> list of (check, ok, detail)


def job_seed(workload, job, seed):
    """Job seed in [0, 2^63) from the workload seed; stable across runs."""
    digest = hashlib.sha256(f"{workload}/{job}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def artifact_paths(job, out_dir, seed):
    stem = os.path.join(out_dir, f"{job.subcommand}_seed{seed}")
    return [p for p in (stem + ".csv", stem + ".json") if os.path.exists(p)]


def artifact_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def _json(out_dir, job, seed):
    with open(os.path.join(out_dir, f"{job.subcommand}_seed{seed}.json")) as fh:
        return json.load(fh)[job.subcommand]


def _csv_rows(out_dir, job, seed):
    with open(os.path.join(out_dir, f"{job.subcommand}_seed{seed}.csv")) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def _check(name, ok, detail):
    return (name, bool(ok), detail)


def exit_check(job, status, output):
    """The failed check of a job that raised or exited non-zero."""
    if status == 2 and "schedule too aggressive" in output:
        # VolumePhaseError, reported by the CLI as an estimation failure
        return _check(f"{job.metric[:-2]}.phase_abort", False, output)
    return _check("exit", False, f"status {status!r}")


# ---------------------------------------------------------------------------
# gates, one per subcommand shape


# The lv jobs run at k=500 with the default thin, which is too small for
# the acceptance criterion's 10%.  Over workload seeds 0-219, ln(estimate /
# truth) had sd 0.20 on cube4 and 0.24 on ball5, and its largest magnitude
# was 0.75 (ball5, seed 59).  A hit-and-run chord sampler that draws at 1.5
# times the Exponential's rate gives about -2.6 on both bodies; one that
# draws uniformly on the chord gives over +9.
LV_LOG_TOLERANCE = 1.25


def _volume_gate(truth, log_tolerance=None):
    """Within 10% of the closed form; with log_tolerance, also
    |ln(value / truth)| <= log_tolerance."""
    def gate(job, out_dir, seed):
        value = _json(out_dir, job, seed)["value"]
        rel = abs(value - truth) / truth
        checks = [_check(f"{job.metric[:-2]}.tolerance", rel <= 0.10,
                         f"volume {value:.6g} vs {truth:.6g}, rel err {rel:.3f} <= 0.10")]
        if log_tolerance is not None:
            log_err = abs(math.log(value / truth)) if value > 0 else math.inf
            checks.append(_check(f"{job.metric[:-2]}.log_tolerance",
                                 log_err <= log_tolerance,
                                 f"|ln(volume / truth)| {log_err:.3f} <= {log_tolerance}"))
        return checks
    return gate


def _optimize_gate(n, eps, half_width):
    # the schedule runs from alpha_0 = 1/(2 R |c|) to n/eps with |c| = 1
    alpha0 = 1.0 / (2.0 * half_width * math.sqrt(n))
    expected = math.ceil(math.sqrt(n) * math.log((n / eps) / alpha0))

    def gate(job, out_dir, seed):
        res = _json(out_dir, job, seed)
        return [_check("optimize.value", res["best_value"] <= -0.85,
                       f"best {res['best_value']:.4f} <= -0.85"),
                _check("optimize.phases", abs(res["n_phases"] - expected) <= 1,
                       f"phases {res['n_phases']} vs {expected} +- 1")]
    return gate


def _cutplane_gate(n, R, r):
    budget = math.ceil(3 * n * math.log(R / r))

    def gate(job, out_dir, seed):
        res = _json(out_dir, job, seed)
        return [_check("cutplane.found", res["found"] and res["n_iterations"] <= budget,
                       f"found={res['found']} after {res['n_iterations']} <= {budget}")]
    return gate


def _needles_gate(job, out_dir, seed):
    meta = _json(out_dir, job, seed)["meta"]
    rows = _csv_rows(out_dir, job, seed)[1:]
    weight = sum(float(row[2]) for row in rows)
    return [_check("needles.cells", len(rows) == meta["n_cells"] and abs(weight - 1.0) <= 1e-9,
                   f"{len(rows)} cell rows for n_cells={meta['n_cells']}, "
                   f"weights sum {weight:.12f}")]


def _isotropy_gate(job, out_dir, seed):
    last = _csv_rows(out_dir, job, seed)[-1]
    lo, hi = float(last[1]), float(last[2])
    return [_check("isotropy.window", 0.5 <= lo and hi <= 2.0,
                   f"final eigenvalues [{lo:.3g}, {hi:.3g}] within [0.5, 2] "
                   f"after {last[0]} iterations")]


def _sloc_balance_gate(job, out_dir, seed):
    s = _json(out_dir, job, seed)["sets"]["E0"]
    return [_check("sloc.martingale", s["martingale_ok"],
                   f"|gT - g0| {s['martingale_dev']:.4f} <= 3 x {s['combined_se']:.4f}"),
            _check("sloc.g0", abs(s["g0_mean"] - 0.5) <= 0.02,
                   f"g0 {s['g0_mean']:.4f} within 0.02 of 1/2"),
            _check("sloc.balance", s["balance_frequency"] >= 0.5,
                   f"balance {s['balance_frequency']:.2f} >= 0.5")]


def _sloc_phi_gate(n):
    def gate(job, out_dir, seed):
        ratio = _json(out_dir, job, seed)["phiT_mean"] / (n / 4.0)
        return [_check("sloc.phi", abs(ratio - 1.0) <= 0.20,
                       f"phi_T/(n/4) {ratio:.3f} within 20% of 1")]
    return gate


def _constants_gate(job, out_dir, seed):
    psi = _json(out_dir, job, seed)["psi_halfspace"]["value"]
    return [_check("constants.psi", abs(psi - PSI_GAUSS) <= 0.03,
                   f"psi {psi:.4f} within 0.03 of sqrt(2/pi)")]


def _sample_gate(count, n, radius):
    def gate(job, out_dir, seed):
        rows = _csv_rows(out_dir, job, seed)
        header, data = rows[0], rows[1:]
        shape_ok = (header == [f"x{i + 1}" for i in range(n)] and len(data) == count
                    and all(len(row) == n for row in data))
        X = np.array(data, dtype=float) if shape_ok else np.zeros((1, n))
        # %.17g is the CLI's float format: every field must re-print to the
        # same text
        bad = sum("%.17g" % v != text for row, values in zip(data, X.tolist())
                  for text, v in zip(row, values))
        worst = float(np.max(np.einsum("ij,ij->i", X, X)))
        return [_check("sample.rows", shape_ok, f"{len(data)} rows of {n} for {count}"),
                _check("sample.roundtrip", bad == 0, f"{bad} fields change on re-print"),
                _check("sample.inside", worst <= radius ** 2 * (1 + 1e-9),
                       f"max |x|^2 {worst:.6g} <= {radius ** 2:.6g}")]
    return gate


# ---------------------------------------------------------------------------
# workloads

_CUBE_VOLUME = '[body]\nkind = "cube"\nn = {n}\n[schedule]\nmethod = "{method}"\nk = {k}\n'
_BALL_VOLUME = '[body]\nkind = "ball"\nn = {n}\n[schedule]\nmethod = "{method}"\nk = {k}\n'
VOL_BALL_5 = math.pi ** 2 * 8.0 / 15.0

ROOT3 = math.sqrt(3.0)
ROOT8 = math.sqrt(8.0)

WORKLOADS = {
    # every hit-and-run step targets an Exponential, which has no
    # closed-form chord: the quadrature chord sampler does most of the work
    "anneal-generic": [
        Job("lv_cube4", "volume", "volume_lv_s",
            _CUBE_VOLUME.format(n=4, method="lv", k=500),
            _volume_gate(16.0, LV_LOG_TOLERANCE)),
        Job("lv_ball5", "volume", "volume_lv_s",
            _BALL_VOLUME.format(n=5, method="lv", k=500),
            _volume_gate(VOL_BALL_5, LV_LOG_TOLERANCE)),
    ],
    # scalar chains whose chord draws are all closed form, plus the ball
    # walk and Metropolis: zero generic-chord calls
    "anneal-closed": [
        Job("optimize_cube8", "optimize", "optimize_s",
            '[body]\nkind = "cube"\nn = 8\n[schedule]\n'
            "c = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]\neps = 0.1\nk = 250\n",
            _optimize_gate(8, 0.1, 1.0)),
        Job("dfk_cube4", "volume", "volume_dfk_s",
            _CUBE_VOLUME.format(n=4, method="dfk", k=4000), _volume_gate(16.0)),
        Job("needles_cube6", "needles", "needles_s",
            '[body]\nkind = "cube"\nn = 6\n[needles]\nk = 256\nmax_depth = 3\n', _needles_gate),
        Job("cutplane_ball4", "cutplane", "cutplane_s",
            '[body]\nkind = "ball"\nn = 4\n[cutplane]\ntarget_radius = 0.1\n'
            "target_offset = [0.5, 0.0, 0.0, 0.0]\n", _cutplane_gate(4, 1.0, 0.1)),
        Job("isotropy_simplex8", "isotropy", "isotropy_s",
            '[body]\nkind = "simplex"\nn = 8\n[isotropy]\nmax_iters = 4\n',
            _isotropy_gate),
    ],
    # the batched Metropolis ensemble, ObservablePool reweighting and
    # linalg carry the load; scalar chains run only at init
    "sloc-ensemble": [
        Job("sloc_cube8", "sloc", "sloc_s",
            f'[body]\nkind = "cube"\nn = 8\nhalf_width = {ROOT3!r}\n[sloc]\n'
            f'T = {0.25 / ROOT8!r}\nn_runs = 40\nsets = ["halfspace 0 0.0"]\n',
            _sloc_balance_gate),
        Job("sloc_gauss8", "sloc", "sloc_s",
            f'[body]\nkind = "ball"\nn = 8\nradius = {50.0 * ROOT8!r}\n'
            '[density]\nkind = "gaussian"\n[sloc]\nT = 1.0\nh = 0.005\nk = 512\n',
            _sloc_phi_gate(8)),
    ],
    # no MCMC: vectorized exact samplers, the diagnostics estimators and
    # CSV artifact writing
    "exact-io": [
        Job("constants_gauss8", "constants", "constants_s",
            '[body]\nkind = "cube"\nn = 8\nhalf_width = 12.0\n[density]\n'
            'kind = "gaussian"\n[walk]\nexact = true\nn_samples = 100000\n',
            _constants_gate),
        Job("sample_ball20", "sample", "sample_s",
            '[body]\nkind = "ball"\nn = 20\n[walk]\nexact = true\nn_samples = 100000\n',
            _sample_gate(100000, 20, 1.0)),
    ],
}

SUBCOMMAND_METRICS = ("volume_lv_s", "volume_dfk_s", "optimize_s", "needles_s",
                      "cutplane_s", "isotropy_s", "sloc_s", "constants_s",
                      "sample_s")
