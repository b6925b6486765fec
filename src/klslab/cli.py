"""Command-line experiment harness.

Every subcommand reads an optional config file, draws randomness from a
single seeded stream, writes deterministically named CSV/JSON artifacts
into the output directory, and prints a one-line summary.  Flags beat
environment variables (KLSLAB_CONFIG, KLSLAB_SEED, KLSLAB_OUT,
KLSLAB_THREADS), which beat the config file.

Exit codes: 0 success, 1 input/config error, 2 runtime estimation
failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .bodies import Ball, BodyError
from .config import (ConfigError, ExperimentConfig, make_body, make_density,
                     make_tracked_sets, parse_config, parse_set_descriptor)
from .diagnostics import compute_constants
from .isotropy import iterated_gaussian_isotropy
from .linalg import SingularCovarianceError
from .needles import CELL_COLUMNS, needle_decompose
from .rng import RngStream
from .sloc import SlocError, sloc_run
from .volume import (OracleInconsistencyError, VolumePhaseError,
                     anneal_optimize, cutting_plane_feasibility, dfk_volume,
                     gaussian_cooling_volume, lv_annealing_volume,
                     separation_oracle_for)
from .walks import WalkError, exact_sample, run_chain, warm_start

ENV_PREFIX = "KLSLAB_"
_CSV_BLOCK = 4096  # rows per write of a float array

_RUNTIME_ERRORS = (WalkError, VolumePhaseError, OracleInconsistencyError,
                   SlocError, SingularCovarianceError)
_INPUT_ERRORS = (ConfigError, BodyError, ValueError)


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not argparse's default 2
    def error(self, message):
        raise ConfigError([message])


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _json_default(v):
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


class _Artifacts:
    def __init__(self, cfg):
        self.cfg = cfg
        self.dir = cfg.out
        os.makedirs(self.dir, exist_ok=True)
        self.stem = f"{cfg.subcommand}_seed{cfg.seed}"
        self.paths = []

    def _meta_lines(self):
        return [f"# version={__version__}",
                f"# config_hash={self.cfg.config_hash()}",
                f"# seed={self.cfg.seed}"]

    def write_csv(self, columns, rows):
        """Write the meta lines, the header and one line per row.

        A float64 array (a sample cloud: millions of values) is written
        in blocks of rows, one "%.17g" format per row over the block's
        tolist(): no per-value isinstance test, and no copy of the whole
        file in memory.  Its Python floats format exactly as _fmt formats
        numpy floats, so the bytes are the same.  Short mixed-type tables
        (bools, ints) go through _fmt value by value.
        """
        path = os.path.join(self.dir, self.stem + ".csv")
        head = self._meta_lines() + [",".join(columns)]
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(head) + "\n")
            if isinstance(rows, np.ndarray) and rows.dtype == np.float64 \
                    and rows.ndim == 2:
                line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
                for a in range(0, len(rows), _CSV_BLOCK):
                    fh.write("".join(line % tuple(row) for row
                                     in rows[a:a + _CSV_BLOCK].tolist()))
            else:
                fh.writelines(",".join(_fmt(v) for v in row) + "\n"
                              for row in rows)
        self.paths.append(path)
        return path

    def write_json(self, payload):
        path = os.path.join(self.dir, self.stem + ".json")
        body = {"meta": {"version": __version__,
                         "config_hash": self.cfg.config_hash(),
                         "seed": self.cfg.seed}}
        body.update(payload)
        with open(path, "w", newline="\n") as fh:
            json.dump(body, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        self.paths.append(path)
        return path


def _draw_samples(cfg, density, gen):
    walk = cfg.walk
    count = walk.get("n_samples", 1000)
    if walk.get("exact", False):
        return exact_sample(density, count, gen)
    x0 = warm_start(density, gen)
    return run_chain(density, x0, count, walk=walk.get("kind", "hit_and_run"),
                     burn_in=walk.get("burn_in", 0), thin=walk.get("thin"),
                     rng=gen, delta=walk.get("delta"))


# ---------------------------------------------------------------------------
# subcommand handlers: cfg -> one-line summary string


def _cmd_sample(cfg, art):
    body = make_body(cfg)
    density = make_density(cfg, body)
    gen = RngStream(cfg.seed).generator()
    X = _draw_samples(cfg, density, gen)
    art.write_csv([f"x{i + 1}" for i in range(body.n)], X)
    norms = np.linalg.norm(X, axis=1)
    se = float(norms.std(ddof=1) / np.sqrt(len(norms)))
    return f"sample: {len(X)} points, mean |x| = {norms.mean():.6g} +- {se:.2g}"


def _cmd_constants(cfg, art):
    body = make_body(cfg)
    density = make_density(cfg, body)
    gen = RngStream(cfg.seed).generator()
    X = _draw_samples(cfg, density, gen)
    report = compute_constants(X, rng=gen)
    art.write_json({"constants": report.to_json_dict()})
    psi = report.psi_halfspace
    return f"constants: psi_halfspace = {psi.value:.6g} +- {psi.std_error:.2g}"


def _cmd_volume(cfg, art):
    body = make_body(cfg)
    gen = RngStream(cfg.seed).generator()
    method = cfg.schedule.get("method", "dfk")
    k = cfg.schedule.get("k", 1000)
    fn = {"dfk": dfk_volume, "lv": lv_annealing_volume,
          "cooling": gaussian_cooling_volume}[method]
    result = fn(body, gen, k=k)
    art.write_csv(["phase", "param", "ratio", "se", "acceptance", "n_samples"],
                  [[p["phase"], p["param"], p["ratio"], p["se"],
                    p["acceptance"], p["n_samples"]] for p in result.phases])
    art.write_json({"volume": result.to_json_dict()})
    return (f"volume[{method}]: {result.value:.6g} +- {result.std_error:.2g} "
            f"({result.n_phases} phases)")


def _cmd_optimize(cfg, art):
    body = make_body(cfg)
    c = cfg.schedule.get("c")
    if c is None:
        raise ConfigError(["optimize needs [schedule] c (objective vector)"])
    if len(c) != body.n:
        raise ConfigError([f"[schedule] c has length {len(c)}, body n={body.n}"])
    eps = cfg.schedule.get("eps", 0.1)
    k = cfg.schedule.get("k", 500)
    gen = RngStream(cfg.seed).generator()
    result = anneal_optimize(body, np.asarray(c, float), eps, gen, k=k)
    art.write_csv(["phase", "alpha", "mean_objective", "se_objective",
                   "best_so_far", "n_samples"],
                  [[t["phase"], t["alpha"], t["mean_objective"],
                    t["se_objective"], t["best_so_far"], t["n_samples"]]
                   for t in result.trace])
    art.write_json({"optimize": {
        "best_value": result.best_value,
        "best_x": result.best_x.tolist(),
        "final_bound_gap": result.final_bound_gap,
        "n_phases": result.n_phases}})
    return (f"optimize: best objective {result.best_value:.6g} "
            f"(bound gap {result.final_bound_gap:.3g}, {result.n_phases} phases)")


def _cmd_cutplane(cfg, art):
    body = make_body(cfg)
    if not isinstance(body, Ball):
        raise ConfigError(["cutplane needs [body] kind = \"ball\" (the outer ball)"])
    spec = cfg.cutplane
    r = spec.get("target_radius", 0.1)
    offset = spec.get("target_offset", [0.0] * body.n)
    if len(offset) != body.n:
        raise ConfigError([f"[cutplane] target_offset length {len(offset)}, "
                           f"body n={body.n}"])
    target = Ball(body.n, radius=r, center=np.asarray(offset, float))
    gen = RngStream(cfg.seed).generator()
    result = cutting_plane_feasibility(
        separation_oracle_for(target), body.n, R=body.radius, r=r, rng=gen,
        m_per_iter=spec.get("m_per_iter"), max_iters=spec.get("max_iters"),
        target_body=target)
    art.write_csv(["iteration", "discarded", "retained", "feasible"],
                  [[t["iteration"], t["discarded"], t["retained"],
                    t["feasible"]] for t in result.trace])
    art.write_json({"cutplane": {"found": result.found,
                                 "point": result.point.tolist(),
                                 "n_iterations": result.n_iterations}})
    verdict = "feasible point found" if result.found else "no point found"
    return f"cutplane: {verdict} after {result.n_iterations} iterations"


def _cmd_sloc(cfg, art):
    body = make_body(cfg)
    density = make_density(cfg, body)
    spec = cfg.sloc
    tracked = make_tracked_sets(cfg, body.n)
    records, summary = sloc_run(
        density, T=spec.get("T", 1.0), h=spec.get("h"), k=spec.get("k"),
        n_runs=spec.get("n_runs", 1), tracked_sets=tracked,
        control=spec.get("control", "identity"), q=spec.get("q"),
        rng=RngStream(cfg.seed), inner_steps=spec.get("inner_steps", 8),
        window=spec.get("window", 16),
        closed_form=spec.get("closed_form", False),
        threads=cfg.threads)
    rows = []
    for rec in records:
        rows.extend(rec.rows())
    art.write_csv(records[0].columns(), rows)
    art.write_json({"sloc": summary})
    phi = summary["phiT_mean"]
    return (f"sloc: {summary['n_runs']} runs to T={summary['T']:.4g}, "
            f"mean phi_T = {phi:.6g}, balance = "
            f"{summary['balance_frequency_all']:.2f}")


def _cmd_needles(cfg, art):
    body = make_body(cfg)
    density = make_density(cfg, body)
    spec = cfg.needles
    set_text = spec.get("set", "halfspace 0 0.0")
    E = parse_set_descriptor(set_text, body.n)
    result = needle_decompose(density, E, eps=spec.get("eps", 0.5),
                              max_depth=spec.get("max_depth", 6),
                              k=spec.get("k", 256), rng=RngStream(cfg.seed))
    art.write_csv(CELL_COLUMNS, [c.row() for c in result.cells])
    art.write_json({"needles": {"meta": result.meta,
                                "curve": [[v, f] for v, f in result.curve]}})
    frac = result.mass_fraction_below(1.0)
    return (f"needles: {result.meta['n_cells']} cells, mass fraction with "
            f"variance <= 1: {frac:.3f}")


def _cmd_isotropy(cfg, art):
    body = make_body(cfg)
    gen = RngStream(cfg.seed).generator()
    spec = cfg.isotropy
    T, final_body, log = iterated_gaussian_isotropy(
        body, gen, max_iters=spec.get("max_iters", 20), k=spec.get("k"))
    art.write_csv(["iteration", "min_eig", "max_eig", "samples_used"],
                  [[r["iteration"], r["min_eig"], r["max_eig"],
                    r["samples_used"]] for r in log])
    M, shift = T.as_matrix_shift()
    art.write_json({"isotropy": {"matrix": M.tolist(), "shift": shift.tolist(),
                                 "iterations": len(log)}})
    last = log[-1]
    return (f"isotropy: {len(log)} iterations, eigenvalue window "
            f"[{last['min_eig']:.3g}, {last['max_eig']:.3g}]")


_HANDLERS = {
    "sample": _cmd_sample,
    "constants": _cmd_constants,
    "volume": _cmd_volume,
    "optimize": _cmd_optimize,
    "cutplane": _cmd_cutplane,
    "sloc": _cmd_sloc,
    "needles": _cmd_needles,
    "isotropy": _cmd_isotropy,
}


def run_experiment(cfg):
    """Dispatch a validated config; returns the process exit code."""
    if cfg.subcommand not in _HANDLERS:
        print(f"error: unknown or missing subcommand {cfg.subcommand!r}",
              file=sys.stderr)
        return 1
    art = _Artifacts(cfg)
    try:
        summary = _HANDLERS[cfg.subcommand](cfg, art)
    except _RUNTIME_ERRORS as exc:
        # checked first: SingularCovarianceError is also a ValueError
        print(f"estimation failure: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


def _build_parser():
    parser = _Parser(
        prog="klslab",
        description="Sampling, volume, optimization and localization "
                    "experiments over convex bodies.",
        epilog="Environment overrides: KLSLAB_CONFIG, KLSLAB_SEED, "
               "KLSLAB_OUT, KLSLAB_THREADS (flags win).")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--seed", type=int, help="RNG seed (u64)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--threads", type=int,
                       help="worker threads that run sloc runs; output is "
                            "byte-identical for every value")
    return parser


def _env(name):
    return os.environ.get(ENV_PREFIX + name)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        config_path = args.config or _env("CONFIG")
        if config_path:
            try:
                with open(config_path) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError([f"cannot read config: {exc}"]) from None
            cfg = parse_config(text)
        else:
            cfg = ExperimentConfig()
        cfg.subcommand = args.subcommand

        seed = args.seed if args.seed is not None else _env("SEED")
        if seed is not None:
            try:
                cfg.seed = int(seed)
            except ValueError:
                raise ConfigError([f"seed must be an integer, got {seed!r}"]) from None
            if not 0 <= cfg.seed < 2 ** 64:
                raise ConfigError([f"seed out of range: {cfg.seed}"])
        out = args.out if args.out is not None else _env("OUT")
        if out is not None:
            cfg.out = out
        threads = args.threads if args.threads is not None else _env("THREADS")
        if threads is not None:
            try:
                cfg.threads = int(threads)
            except ValueError:
                raise ConfigError([f"threads must be an integer, got {threads!r}"]) from None
            if cfg.threads < 1:
                raise ConfigError([f"threads must be >= 1, got {cfg.threads}"])
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
