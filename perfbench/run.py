"""klslab benchmark: run one workload's CLI jobs in-process and report metrics.

    python3 perfbench/run.py --workload anneal-generic --seed 0 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ./src.  Each
pass runs the workload's job list once through klslab.cli.main(argv) at
--threads 1 with BLAS pinned to one thread; passes repeat until --seconds
is used up.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: the median over passes of the job
list's time, the median set-up time and the peak RSS.  Both times are
normalized to a reference loop timed around each job (see REF_NOMINAL_S).
--trace 1 runs one untraced pass and two traced passes and reports the
per-layer metrics (see tracing.py).  The line before the result is a JSON
report with the machine record, every job's gate checks, artifact digests
and raw timings.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings

# pin BLAS before numpy loads: one thread, so runs do not fight over the
# two cores and timings do not depend on the pool size
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402  (after the pin)
import workloads as wl  # noqa: E402

SRC = "src"
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
DEFAULT_SEED = 0

END_TO_END_UNITS = {"jobs_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Typical time of reference_seconds() on the 2-vCPU VM recorded in
# baseline.json.  A reported time is the measured time scaled by
# REF_NOMINAL_S / (mean of the reference times taken just before and just
# after it): on a shared host the same job's time swings by half from one
# minute to the next, and the reference loop swings with it.
REF_NOMINAL_S = 0.04


def reference_seconds():
    """Time of a fixed computation shaped like the package's work: small
    numpy calls in a Python loop, as in the walks, then one vectorized pass."""
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(8000):
        x = rng.standard_normal(8)
        acc += float(np.sqrt(x @ x)) + min(abs(x[0]), 1.0)
    X = rng.standard_normal((100000, 8))
    acc += float(np.einsum("ij,ij->i", X, X).sum())
    return time.perf_counter() - t0


def normalized(seconds, ref_before, ref_after):
    """Measured seconds as seconds at the reference speed."""
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the set-up child process measured by setup_s
    p.add_argument("--setup-child", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _write_configs(workload, out_root):
    paths = {}
    for job in wl.WORKLOADS[workload]:
        os.makedirs(os.path.join(out_root, job.name), exist_ok=True)
        path = os.path.join(out_root, job.name, "job.cfg")
        with open(path, "w") as fh:
            fh.write(job.config)
        paths[job.name] = path
    return paths


def _setup_child(workload, out_root):
    """What a user pays before the first job: import plus input generation."""
    sys.path.insert(0, SRC)
    import klslab.cli  # noqa: F401
    _write_configs(workload, out_root)


def _measure_setup(args):
    """Median normalized time of SETUP_REPEATS fresh set-up processes."""
    times, raw = [], []
    for i in range(SETUP_REPEATS):
        out_root = os.path.join(WORK_DIR, f"setup{os.getpid()}_{i}")
        ref = reference_seconds()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", args.workload, "--setup-child", out_root],
                       check=True)
        raw.append(time.perf_counter() - t0)
        times.append(normalized(raw[-1], ref, reference_seconds()))
        shutil.rmtree(out_root, ignore_errors=True)
    return statistics.median(times), raw


def _machine():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "job_threads": 1}


def run_job(cli, job, seed, cfg_path, out_dir):
    """One CLI job: (seconds, exit code or traceback, output, warnings)."""
    argv = [job.subcommand, "--config", cfg_path, "--out", out_dir,
            "--seed", str(seed), "--threads", "1"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception:
            status = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
    notes = sorted({str(w.message) for w in caught})
    return seconds, status, (out.getvalue() + err.getvalue()).strip(), notes


def run_pass(cli, workload, seed, cfg_paths, out_root, tracer=None):
    """Run the job list once; returns per-job records and the pass wall time.

    A record's `seconds` is normalized; `raw_s` is the measured time.
    """
    jobs = []
    t0 = time.perf_counter()
    ref = reference_seconds()
    for job in wl.WORKLOADS[workload]:
        s = wl.job_seed(workload, job.name, seed)
        out_dir = os.path.join(out_root, job.name)
        for path in wl.artifact_paths(job, out_dir, s):
            os.remove(path)
        if tracer is not None:
            tracer.begin_job(job.subcommand)
        seconds, status, output, notes = run_job(cli, job, s, cfg_paths[job.name], out_dir)
        if tracer is not None:
            tracer.end_job()
        ref_after = reference_seconds()
        paths = wl.artifact_paths(job, out_dir, s)
        jobs.append({"job": job.name, "metric": job.metric, "seed": s,
                     "seconds": normalized(seconds, ref, ref_after), "raw_s": seconds,
                     "status": status, "output": output,
                     "warnings": notes, "digest": wl.artifact_digest(paths)})
        ref = ref_after
    return jobs, time.perf_counter() - t0


def evaluate_gates(workload, records, out_root):
    """Apply each job's gate to the artifacts of the pass just run."""
    for job, rec in zip(wl.WORKLOADS[workload], records):
        if rec["status"] != 0:
            rec["checks"] = [wl.exit_check(job, rec["status"], rec["output"])]
        else:
            try:
                rec["checks"] = job.gate(job, os.path.join(out_root, job.name),
                                         rec["seed"])
            except (OSError, KeyError, ValueError, IndexError) as exc:
                rec["checks"] = [("artifacts", False, f"unreadable: {exc!r}")]
        failed = [name for name, ok, _ in rec["checks"] if not ok]
        rec["ok"] = not failed
        rec["unexpected"] = [name for name in failed if name not in wl.KNOWN_DEFECTS]


def _summary(records, digest_ok):
    """attempted/failed/correct over the gated jobs of one pass.

    failed counts jobs that raised, exited non-zero, or failed a gate not
    in KNOWN_DEFECTS; fail_frac counts every gate failure.
    """
    attempted = len(records)
    unexpected = sum(bool(r["unexpected"]) for r in records)
    fail_frac = sum(not r["ok"] for r in records) / attempted
    return {"correct": digest_ok and unexpected == 0, "attempted": attempted,
            "failed": unexpected, "fail_frac": fail_frac}


def _per_subcommand(records):
    out = {}
    for rec in records:
        out[rec["metric"]] = out.get(rec["metric"], 0.0) + rec["seconds"]
    return out


def measure(args, cli, cfg_paths, out_root):
    """Untraced passes until --seconds is used up.

    Every pass must reproduce the first pass's artifacts.  The gates run
    after the last pass, outside the measured time.
    """
    passes, walls = [], []
    t_start = time.perf_counter()
    while True:
        records, wall = run_pass(cli, args.workload, args.seed, cfg_paths, out_root)
        passes.append(records)
        walls.append(wall)
        used = time.perf_counter() - t_start
        if used + statistics.median(walls) > args.seconds:
            break
    # before the gates, which hold a whole CSV in memory
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = passes[0]
    digest_ok = all(r["digest"] == f["digest"] for p in passes[1:]
                    for r, f in zip(p, first))
    evaluate_gates(args.workload, passes[-1], out_root)
    return passes, walls, digest_ok, rss_mb


def _report_jobs(records):
    return [{k: r[k] for k in ("job", "seed", "seconds", "raw_s", "status", "checks",
                               "ok", "digest", "warnings", "output")
             if k in r} for r in records]


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "klslab")):
        print(f"error: no {SRC}/klslab here; run from the klslab repository root",
              file=sys.stderr)
        return 2
    if args.setup_child is not None:
        _setup_child(args.workload, args.setup_child)
        return 0

    os.makedirs(WORK_DIR, exist_ok=True)
    out_root = os.path.join(WORK_DIR, f"run{os.getpid()}")
    try:
        setup = _measure_setup(args) if args.trace == 0 else None
        sys.path.insert(0, SRC)
        from klslab import cli
        cfg_paths = _write_configs(args.workload, out_root)
        report = {"workload": args.workload, "seed": args.seed,
                  "machine": _machine()}
        if args.trace == 0:
            result = _untraced(args, cli, cfg_paths, out_root, setup, report)
        else:
            result = _traced(args, cli, cfg_paths, out_root, report)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


def _untraced(args, cli, cfg_paths, out_root, setup, report):
    passes, walls, digest_ok, rss_mb = measure(args, cli, cfg_paths, out_root)
    summary = _summary(passes[-1], digest_ok)
    subs = [_per_subcommand(p) for p in passes]
    values = {"jobs_s": statistics.median(sum(s.values()) for s in subs),
              "setup_s": setup[0], "peak_rss_mb": rss_mb}
    report.update({
        "passes": len(passes), "pass_wall_s": walls,
        "raw_jobs_s": statistics.median(sum(r["raw_s"] for r in p) for p in passes),
        "raw_setup_s": setup[1],
        "per_subcommand_s": {m: statistics.median(s[m] for s in subs) for m in subs[0]},
        "fail_frac": summary["fail_frac"], "replay_ok": digest_ok,
        "jobs": _report_jobs(passes[-1])})
    return {"correct": summary["correct"],
            "attempted": summary["attempted"] * len(passes),
            "failed": summary["failed"] * len(passes),
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in values.items()}}


def _traced(args, cli, cfg_paths, out_root, report):
    """One untraced pass, then two traced passes; per-layer metrics."""
    import tracing

    base, base_wall = run_pass(cli, args.workload, args.seed, cfg_paths, out_root)
    evaluate_gates(args.workload, base, out_root)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runs = []
        for _ in range(2):
            tracer.reset()
            records, wall = run_pass(cli, args.workload, args.seed, cfg_paths,
                                     out_root, tracer=tracer)
            runs.append((records, wall, tracer.exact_counts(),
                         tracer.layer_values(), tracer.self_by_subcommand()))
    finally:
        tracer.uninstall()
    digest_ok = all(r["digest"] == b["digest"] for records, *_ in runs
                    for r, b in zip(records, base))
    counts_ok = runs[0][2] == runs[1][2]
    summary = _summary(base, digest_ok and counts_ok)

    units = tracing.PER_LAYER_UNITS
    values = {k: int(a) if units[k] in ("count", "B") else 0.5 * (a + runs[1][3][k])
              for k, a in runs[0][3].items()}
    # normalized job times, so a host slowdown between passes does not show
    untraced_s = sum(r["seconds"] for r in base)
    values["trace.overhead_frac"] = statistics.mean(
        sum(r["seconds"] for r in records) for records, *_ in runs) / untraced_s - 1.0
    values["fail_frac"] = summary["fail_frac"]
    sub = _per_subcommand(base)
    for m in wl.SUBCOMMAND_METRICS:
        values[m] = sub.get(m, 0.0)
    report.update({"untraced_wall_s": base_wall,
                   "traced_wall_s": [r[1] for r in runs],
                   "replay_ok": digest_ok, "counts_repeat": counts_ok,
                   "self_s_by_subcommand": runs[0][4],
                   "jobs": _report_jobs(base)})
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


if __name__ == "__main__":
    sys.exit(main())
