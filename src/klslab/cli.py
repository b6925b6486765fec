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
from .walks import WalkError, exact_sample, run_chain

ENV_PREFIX = "KLSLAB_"
# rows per write of a float array; at 1024, _format_rows' temporaries stay
# below what the per-value "%" loop it replaced held at 4096 rows
_CSV_BLOCK = 1024

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


# ---------------------------------------------------------------------------
# "%.17g" of float64 blocks in numpy
#
# %g writes x in fixed notation when the decimal exponent d of x rounded to
# 17 significant digits is in [-4, 16], with trailing zeros and a bare point
# dropped.  For such x the 17-digit significand is N = round(|x| 10**(16-d)):
# 10**(16-d) is an exact double, Dekker's two-product gives the product
# exactly as hi + lo, and hi is an even integer >= 1e16, so hi + rint(lo)
# rounds half to even on the exact product, as CPython's dtoa does.  Each
# value is laid out in a 32-byte slot of zero bytes: the sign and a "0.000"
# prefix right-aligned in bytes 0-6, the leading digit in byte 7, the other
# 16 digits in bytes 8-23, and the separator right after the last digit
# kept.  When 0 <= d < 16 the digits after the point move one byte right and
# the point takes the byte they left.  Dropping the zero bytes joins the
# slots.

_POW10 = 10.0 ** np.arange(21)  # 10**(16-d); powers up to 10**22 are exact
_SPLITTER = 134217729.0  # 2**27 + 1


def _dekker_split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _dekker_split(_POW10)


def _u64_rows(chunks):
    """Byte strings of one length as rows of little-endian uint64 words."""
    return np.frombuffer(b"".join(chunks), "<u8").reshape(len(chunks), -1)


_K4 = np.arange(10000)
# the digits of "%04d" % k as ASCII bytes, first digit in the lowest byte,
# and the number of its trailing zeros
_ASCII4 = ((_K4[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
           .view("<u4").ravel().astype(np.uint64))
_TZ4 = sum(_K4 % 10 ** j == 0 for j in range(1, 5))
# bytes 0-7 of a slot, indexed by 2 (d + 4) + (x < 0)
_PREFIX = _u64_rows([((b"-" if neg else b"")
                      + (b"0." + b"0" * (-d - 1) if d < 0 else b"")
                      ).rjust(7, b"\0") + b"\0"
                     for d in range(-4, 17) for neg in (0, 1)]).ravel()
# _FIRST[n]: the mask of the first n of bytes 8-31, as 3 words; _WORDS is
# its transpose, for one take per word
_FIRST = _u64_rows([b"\xff" * n + b"\0" * (24 - n) for n in range(18)])
_WORDS = _FIRST.T.copy()
# _POINT[d]: the point at byte 8 + d, after digit d
_POINT = _u64_rows([b"\0" * n + b"." + b"\0" * (23 - n) for n in range(16)])


def _scaled(a, d):
    """hi + lo == a * 10**(16 - d) exactly (Dekker's two-product)."""
    k = 16 - d
    p = a * _POW10[k]
    ah, al = _dekker_split(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _format_rows(block):
    """The bytes of "%.17g" of each value of a 2-D float64 block, "," between
    values and "\n" after each row."""
    rows, cols = block.shape
    x = block.ravel()
    with np.errstate(all="ignore"):  # the values left to the fallback
        a = np.abs(x)
        # fmax sends nan to -4, where the range test below fails it
        d = np.fmin(np.fmax(np.floor(np.log10(a)), -4), 16).astype(np.int64)
        hi, lo = _scaled(a, d)
        # log10 is off by one next to a power of ten: test the exact product
        low = ~(hi >= 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        fix = np.flatnonzero(low | high)
        d[fix] += high[fix].astype(np.int64) - low[fix]
        fix = fix[(d[fix] >= -4) & (d[fix] <= 16)]
        hi[fix], lo[fix] = _scaled(a[fix], d[fix])
        N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # N == 10**17 would be a carry into the next decade; no double in the
    # range rounds that close to a power of ten, so the test is a guard
    slow = np.flatnonzero((d < -4) | (d > 16) | (N >= 10 ** 17))
    N[slow] = 10 ** 16
    d[slow] = -1

    # the 17 digits: a leading one, then four groups of four
    top = N // 10 ** 8
    lo8 = N - top * 10 ** 8
    lead = top // 10 ** 8
    hi8 = top - lead * 10 ** 8
    g1 = hi8 // 10 ** 4
    g2 = hi8 - g1 * 10 ** 4
    g3 = lo8 // 10 ** 4
    g4 = lo8 - g3 * 10 ** 4
    # N's trailing zeros give the digits kept after the point and the byte
    # after the last one kept, where the separator goes
    z4, z34 = g4 == 0, lo8 == 0
    tz = _TZ4[g4] + z4 * (_TZ4[g3] + z34 * (
        _TZ4[g2] + (z34 & (g2 == 0)) * _TZ4[g1]))
    frac = 16 - d - tz
    end = np.where(frac > 0, np.where(d < 0, 24, 25) - tz, 8 + d)

    w = np.empty((len(x), 4), "<u8")  # little-endian: byte j of a slot
    w[:, 0] = _PREFIX[2 * d + 8 + np.signbit(x)] | (
        lead.astype(np.uint64) + 48) << 56
    w[:, 1] = _ASCII4[g1] | _ASCII4[g2] << 32
    w[:, 2] = _ASCII4[g3] | _ASCII4[g4] << 32
    w[:, 3] = 0
    mid = np.flatnonzero((d >= 0) & (frac > 0))  # a point among the digits
    if mid.size:
        p = d[mid]
        v = w[mid, 1:]
        s = v << 8
        s[:, 1:] |= v[:, :-1] >> 56
        w[mid, 1:] = (v & _FIRST[p]) | (s & ~_FIRST[p + 1]) | _POINT[p]
    for i in range(3):
        w[:, i + 1] &= _WORDS[i][end - 8]
    b = w.view(np.uint8).reshape(rows, cols * 32)
    sep = np.full(cols, ord(","), np.uint8)
    sep[-1] = ord("\n")
    b[np.arange(rows)[:, None],
      32 * np.arange(cols) + end.reshape(rows, cols)] = sep
    b = b.reshape(-1, 32)
    if slow.size:
        ends = np.where(slow % cols == cols - 1, "\n", ",").tolist()
        text = "".join(("%.17g" % v + c).ljust(32, "\0")
                       for v, c in zip(x[slow].tolist(), ends))
        b[slow] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 32)
    return b[b != 0].tobytes()


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

        A 2-D float64 array (a sample cloud: millions of values) is written
        in blocks of _CSV_BLOCK rows, each formatted in numpy by
        _format_rows with the bytes of "%.17g", so no copy of the whole
        file is held in memory.  Values in %g's fixed-notation range
        (decimal exponent -4 to 16 after rounding to 17 digits) take the
        vectorized path; the rest (scientific notation, +-0, subnormals,
        inf, nan) are formatted by "%.17g" one at a time inside it.  Short
        mixed-type tables (bools, ints) go through _fmt value by value.
        """
        path = os.path.join(self.dir, self.stem + ".csv")
        head = self._meta_lines() + [",".join(columns)]
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(head) + "\n")
            if isinstance(rows, np.ndarray) and rows.dtype == np.float64 \
                    and rows.ndim == 2:
                for a in range(0, len(rows), _CSV_BLOCK):
                    fh.write(_format_rows(rows[a:a + _CSV_BLOCK]).decode())
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
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.paths.append(path)
        return path


def _rows(columns, records):
    """One CSV row per record dict, its values in column order."""
    return [[r[c] for c in columns] for r in records]


def _draw_samples(cfg, density, gen):
    walk = cfg.walk
    count = walk.get("n_samples", 1000)
    if walk.get("exact", False):
        return exact_sample(density, count, gen)
    return run_chain(density, None, count, walk=walk.get("kind", "hit_and_run"),
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
    columns = ["phase", "param", "ratio", "se", "acceptance", "n_samples", "exact"]
    art.write_csv(columns, _rows(columns, result.phases))
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
    result = anneal_optimize(body, np.asarray(c, float), eps, gen, k=k,
                             alpha0=cfg.schedule.get("alpha0"))
    columns = ["phase", "alpha", "mean_objective", "se_objective",
               "best_so_far", "n_samples"]
    art.write_csv(columns, _rows(columns, result.trace))
    art.write_json({"optimize": {
        "best_value": result.best_value,
        "best_x": result.best_x.tolist(),
        "final_bound_gap": result.final_bound_gap,
        "n_phases": result.n_phases,
        "meta": result.meta}})
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
    # the hidden ball must sit inside the outer one: the iteration count
    # ceil(3 n ln(R/r)) and the first cut both assume it
    reach = float(np.linalg.norm(offset))
    if not reach + r < body.radius:
        raise ConfigError([f"[cutplane] |target_offset| = {reach:g} plus "
                           f"target_radius = {r:g} must be below the [body] "
                           f"radius {body.radius:g}"])
    target = Ball(body.n, radius=r, center=np.asarray(offset, float))
    gen = RngStream(cfg.seed).generator()
    result = cutting_plane_feasibility(
        separation_oracle_for(target), body.n, R=body.radius, r=r, rng=gen,
        m_per_iter=spec.get("m_per_iter"), max_iters=spec.get("max_iters"),
        target_body=target)
    columns = ["iteration", "discarded", "retained", "feasible"]
    art.write_csv(columns, _rows(columns, result.trace))
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
    (M, shift), _, log = iterated_gaussian_isotropy(
        body, gen, max_iters=spec.get("max_iters", 20), k=spec.get("k"))
    columns = ["iteration", "min_eig", "max_eig", "samples_used"]
    art.write_csv(columns, _rows(columns, log))
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
        if cfg.subcommand not in (None, args.subcommand):
            raise ConfigError([f"config names subcommand {cfg.subcommand!r} but "
                               f"the command line runs {args.subcommand!r}"])
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
