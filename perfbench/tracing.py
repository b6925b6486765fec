"""Traced runs: per-layer spans recorded by wrapping klslab at runtime.

The wrappers live here, not in the package: install() replaces the public
functions and methods of each module (every binding of them, including
names other modules imported) with timing shims, and uninstall() puts the
originals back.  Spans are kept in memory.  A span's self time is its
duration minus the time of the spans it called.  The shims read their
arguments and results but never touch a generator, so a traced job must
write byte-identical artifacts; the run checks that.

Time metrics are self time: `.us` and `.s` are totals over one pass,
`ns_per_row` divides by the rows handled.  `sloc.init.s` is the one
inclusive time.  Counts are exact and must repeat between the two traced
passes.
"""

import os
import time
from collections import defaultdict

import workloads as wl

# every Body.kind whose class defines chord(); restricted and transformed
# bodies delegate to an inner body's chord, so bodies.chord.calls counts
# both the outer and the nested call
CHORD_KINDS = ("axis_cube", "ball", "ball_intersection", "restricted",
               "transformed", "halfspace_polytope", "ellipsoid")
WALK_KINDS = ("ball_walk", "metropolis", "hit_and_run")
CHORD_PROFILES = ("gauss", "exp", "uniform", "generic")
LINALG_FNS = ("power_opnorm", "stieltjes_u", "eigvalsh")
ESTIMATORS = ("halfspace_isoperimetry", "thin_shell", "slicing_constant",
              "poincare_family_min", "log_cheeger_halfspace")

# every per-layer metric the traced run prints, with its unit
PER_LAYER_UNITS = {
    "bodies.chord.calls": "count",
    **{f"bodies.chord.{k}.us": "us" for k in CHORD_KINDS},
    "bodies.contains.calls": "count",
    "bodies.contains.us": "us",
    "bodies.contains_many.rows": "count",
    "bodies.contains_many.ns_per_row": "ns",
    **{f"walks.steps.{k}": "count" for k in WALK_KINDS},
    **{f"walks.step.{k}.us": "us" for k in WALK_KINDS},
    **{f"walks.accept_ratio.{k}": "ratio" for k in WALK_KINDS},
    **{f"walks.chord_draw.{p}.{m}": u for p in CHORD_PROFILES
       for m, u in (("calls", "count"), ("us", "us"))},
    "walks.exact_sample.rows": "count",
    "walks.exact_sample.accept_ratio": "ratio",
    "walks.exact_sample.ns_per_row": "ns",
    "densities.log_density.calls": "count",
    "densities.log_density.us": "us",
    "densities.log_density_many.rows": "count",
    "densities.log_density_many.ns_per_row": "ns",
    "volume.phases": "count",
    "volume.ratio_estimator.us": "us",
    "sloc.steps": "count",
    "sloc.step.self_us": "us",
    "sloc.pool_estimate.us": "us",
    "sloc.pool_ess": "samples",
    "sloc.init.s": "s",
    **{f"linalg.{f}.{m}": u for f in LINALG_FNS
       for m, u in (("calls", "count"), ("us", "us"))},
    **{f"diagnostics.{e}.s": "s" for e in ESTIMATORS},
    "needles.cells": "count",
    "needles.balanced_split.us": "us",
    "isotropy.iterations": "count",
    "cli.self_s": "s",
    "cli.artifact_s": "s",
    "cli.artifact_bytes": "B",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
    **{m: "s" for m in wl.SUBCOMMAND_METRICS},
}


class _Proxy:
    """Attribute view of `target` with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _chord_profile_kind(chord_profile, density, x, u):
    prof = chord_profile(density, x, u)
    if prof[0] == "generic":
        return "generic"
    a, b = prof[1], prof[2]
    if a > 1e-300:
        return "gauss"
    return "uniform" if b == 0.0 else "exp"


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.stack = []          # open spans: [name, child_ns, extra dict]
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.by_job = defaultdict(lambda: defaultdict(int))
        self.job = None
        self._patches = []

    # -- recording -------------------------------------------------------

    def reset(self):
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()
        self.incl_ns.clear()
        self.by_job.clear()

    def begin_job(self, subcommand):
        self.job = subcommand

    def end_job(self):
        self.job = None

    def wrap(self, name, fn, before=None, after=None):
        """Shim recording a span around fn.

        name is a string or a callable of the call's arguments.  before()
        runs outside the timed region and returns a context handed to
        after(ctx, args, result, span_extra).  The time of name(), before()
        and after() counts in no span's self time.
        """
        tracer = self
        clock = time.perf_counter_ns

        def shim(*args, **kwargs):
            stack = tracer.stack
            t_enter = clock()
            label = name if isinstance(name, str) else name(args, kwargs)
            ctx = before(args, kwargs) if before is not None else None
            frame = [label, 0, {}]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[1]
                tracer.self_ns[label] += own
                tracer.incl_ns[label] += dur
                tracer.calls[label] += 1
                tracer.by_job[tracer.job][label] += own
                # the parent's self time excludes this span and the
                # shim's own work around it (label, before, bookkeeping)
                if stack:
                    stack[-1][1] += clock() - t_enter
            if after is not None:
                t_after = clock()
                after(ctx, args, result, frame[2])
                if stack:
                    stack[-1][1] += clock() - t_after
            return result

        shim.__wrapped__ = fn
        return shim

    def count(self, key, value=1):
        self.counts[key] += value

    def parent(self):
        return self.stack[-1] if self.stack else None

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, modules, module, attr, name, **hooks):
        """Replace module.attr and every other module's binding of it."""
        original = getattr(module, attr)
        shim = self.wrap(name, original, **hooks)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, shim)

    def patch_method(self, cls, attr, name, **hooks):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], **hooks))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        import numpy as np

        import klslab
        from klslab import (bodies, cli, densities, diagnostics, isotropy,
                            linalg, needles, sloc, volume, walks)
        modules = [klslab, bodies, cli, densities, diagnostics, isotropy,
                   linalg, needles, sloc, volume, walks]
        fn = self.patch_function

        def rows_of(key):
            def after(ctx, args, result, extra):
                self.count(key, len(args[1]))
            return after

        # bodies: every class that defines its own oracle
        def contains_many_after(ctx, args, result, extra):
            self.count("bodies.contains_many.rows", len(args[1]))
            parent = self.parent()
            if parent is not None and parent[0] == "walks.exact_sample":
                parent[2]["proposed"] = parent[2].get("proposed", 0) + len(args[1])
                parent[2]["accepted"] = parent[2].get("accepted", 0) + int(result.sum())

        for cls in vars(bodies).values():
            if not (isinstance(cls, type) and issubclass(cls, bodies.Body)):
                continue
            if "chord" in cls.__dict__:
                self.patch_method(cls, "chord",
                                  lambda a, kw: f"bodies.chord.{a[0].kind}")
            if "contains" in cls.__dict__:
                self.patch_method(cls, "contains", "bodies.contains")
            if "contains_many" in cls.__dict__:
                self.patch_method(cls, "contains_many", "bodies.contains_many",
                                  after=contains_many_after)

        # densities
        self.patch_method(densities.Density, "log_density", "densities.log_density")
        self.patch_method(densities.Density, "log_density_many",
                          "densities.log_density_many",
                          after=rows_of("densities.log_density_many.rows"))

        # walks: steps per kind with accepted moves, chord draws per profile
        def accepted_before(args, kwargs):
            return args[1].proposals_accepted

        def accepted_after(kind):
            def after(ctx, args, result, extra):
                self.count(f"walks.accepted.{kind}",
                           result.proposals_accepted - ctx)
            return after

        for kind in WALK_KINDS:
            fn(modules, walks, f"{kind}_step", f"walks.step.{kind}",
               before=accepted_before, after=accepted_after(kind))
        chord_profile = densities.chord_profile
        fn(modules, walks, "sample_chord_point",
           lambda a, kw: "walks.chord_draw." + _chord_profile_kind(
               chord_profile, a[0], a[1], a[2]))

        def exact_after(ctx, args, result, extra):
            rows = len(result)
            self.count("walks.exact_sample.rows", rows)
            self.count("walks.exact_sample.proposed", extra.get("proposed", rows))
            self.count("walks.exact_sample.accepted", extra.get("accepted", rows))

        fn(modules, walks, "exact_sample", "walks.exact_sample", after=exact_after)
        fn(modules, walks, "run_chain", "walks.run_chain")
        fn(modules, walks, "warm_start", "walks.warm_start")

        # volume
        def phases_after(ctx, args, result, extra):
            self.count("volume.phases", result.n_phases)

        for attr in ("dfk_volume", "lv_annealing_volume", "gaussian_cooling_volume"):
            fn(modules, volume, attr, f"volume.{attr}", after=phases_after)
        fn(modules, volume, "anneal_optimize", "volume.anneal_optimize")
        fn(modules, volume, "cutting_plane_feasibility", "volume.cutting_plane")
        fn(modules, volume, "ratio_estimator", "volume.ratio_estimator")

        # sloc
        def ess_after(ctx, args, result, extra):
            self.count("sloc.pool_ess_sum", result[3])

        fn(modules, sloc, "sloc_run", "sloc.run")
        fn(modules, sloc, "sloc_init", "sloc.init")
        fn(modules, sloc, "sloc_step", "sloc.step")
        self.patch_method(sloc.ObservablePool, "estimate", "sloc.pool_estimate",
                          after=ess_after)

        # linalg, with numpy's eigvalsh seen through linalg's own `np`
        fn(modules, linalg, "power_opnorm", "linalg.power_opnorm")
        fn(modules, linalg, "stieltjes_u", "linalg.stieltjes_u")
        eigvalsh = self.wrap("linalg.eigvalsh", np.linalg.eigvalsh)
        self._set(linalg, "np", _Proxy(np, linalg=_Proxy(np.linalg, eigvalsh=eigvalsh)))

        # diagnostics, needles, isotropy
        fn(modules, diagnostics, "compute_constants", "diagnostics.compute_constants")
        for attr in ESTIMATORS:
            fn(modules, diagnostics, attr, f"diagnostics.{attr}")

        def cells_after(ctx, args, result, extra):
            self.count("needles.cells", len(result.cells))

        def iterations_after(ctx, args, result, extra):
            self.count("isotropy.iterations", len(result[2]))

        fn(modules, needles, "needle_decompose", "needles.decompose", after=cells_after)
        fn(modules, needles, "balanced_split", "needles.balanced_split")
        fn(modules, isotropy, "iterated_gaussian_isotropy", "isotropy.iterate",
           after=iterations_after)

        # cli: the subcommand span and artifact writing
        def bytes_after(ctx, args, result, extra):
            self.count("cli.artifact_bytes", os.path.getsize(result))

        fn(modules, cli, "main", "cli")
        self.patch_method(cli._Artifacts, "write_csv", "cli.artifact", after=bytes_after)
        self.patch_method(cli._Artifacts, "write_json", "cli.artifact", after=bytes_after)

    # -- results ---------------------------------------------------------

    def exact_counts(self):
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update({k: v for k, v in self.counts.items() if k != "sloc.pool_ess_sum"})
        return out

    def layer_values(self):
        us = {k: v / 1e3 for k, v in self.self_ns.items()}
        calls, counts = self.calls, self.counts

        def total(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        def ratio(num, den):
            return num / den if den else 0.0

        v = {"bodies.chord.calls": total("bodies.chord.", calls),
             "bodies.contains.calls": calls["bodies.contains"],
             "bodies.contains.us": us.get("bodies.contains", 0.0),
             "bodies.contains_many.rows": counts["bodies.contains_many.rows"],
             "bodies.contains_many.ns_per_row": ratio(
                 1e3 * us.get("bodies.contains_many", 0.0),
                 counts["bodies.contains_many.rows"])}
        for k in CHORD_KINDS:
            v[f"bodies.chord.{k}.us"] = us.get(f"bodies.chord.{k}", 0.0)
        for k in WALK_KINDS:
            steps = calls[f"walks.step.{k}"]
            v[f"walks.steps.{k}"] = steps
            v[f"walks.step.{k}.us"] = us.get(f"walks.step.{k}", 0.0)
            v[f"walks.accept_ratio.{k}"] = ratio(counts[f"walks.accepted.{k}"], steps)
        for p in CHORD_PROFILES:
            v[f"walks.chord_draw.{p}.calls"] = calls[f"walks.chord_draw.{p}"]
            v[f"walks.chord_draw.{p}.us"] = us.get(f"walks.chord_draw.{p}", 0.0)
        rows = counts["walks.exact_sample.rows"]
        v["walks.exact_sample.rows"] = rows
        v["walks.exact_sample.accept_ratio"] = ratio(
            counts["walks.exact_sample.accepted"], counts["walks.exact_sample.proposed"])
        v["walks.exact_sample.ns_per_row"] = ratio(
            1e3 * us.get("walks.exact_sample", 0.0), rows)
        v["densities.log_density.calls"] = calls["densities.log_density"]
        v["densities.log_density.us"] = us.get("densities.log_density", 0.0)
        lrows = counts["densities.log_density_many.rows"]
        v["densities.log_density_many.rows"] = lrows
        v["densities.log_density_many.ns_per_row"] = ratio(
            1e3 * us.get("densities.log_density_many", 0.0), lrows)
        v["volume.phases"] = counts["volume.phases"]
        v["volume.ratio_estimator.us"] = us.get("volume.ratio_estimator", 0.0)
        v["sloc.steps"] = calls["sloc.step"]
        v["sloc.step.self_us"] = us.get("sloc.step", 0.0)
        v["sloc.pool_estimate.us"] = us.get("sloc.pool_estimate", 0.0)
        v["sloc.pool_ess"] = ratio(counts["sloc.pool_ess_sum"], calls["sloc.pool_estimate"])
        v["sloc.init.s"] = self.incl_ns["sloc.init"] / 1e9
        for f in LINALG_FNS:
            v[f"linalg.{f}.calls"] = calls[f"linalg.{f}"]
            v[f"linalg.{f}.us"] = us.get(f"linalg.{f}", 0.0)
        for e in ESTIMATORS:
            v[f"diagnostics.{e}.s"] = us.get(f"diagnostics.{e}", 0.0) / 1e6
        v["needles.cells"] = counts["needles.cells"]
        v["needles.balanced_split.us"] = us.get("needles.balanced_split", 0.0)
        v["isotropy.iterations"] = counts["isotropy.iterations"]
        v["cli.self_s"] = us.get("cli", 0.0) / 1e6
        v["cli.artifact_s"] = us.get("cli.artifact", 0.0) / 1e6
        v["cli.artifact_bytes"] = counts["cli.artifact_bytes"]
        return v

    def self_by_subcommand(self):
        return {job: sorted(([k, ns / 1e9] for k, ns in spans.items()),
                            key=lambda kv: -kv[1])
                for job, spans in self.by_job.items()}
