"""The benchmark's traced mode patches klslab by name at runtime.  A rename
or deletion of a traced function breaks `perfbench/run.py --trace 1`; this
test catches that in the ordinary suite, and checks that uninstalling the
tracer restores every binding it replaced."""

import ast
import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _bindings():
    """Every module attribute and class member of the loaded klslab modules."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "klslab" and not name.startswith("klslab."):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def _changed(before, after):
    return sorted(k for k in before if after.get(k) is not before[k])


def test_tracer_install_and_uninstall_restore_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    for sub in ("bodies", "cli", "densities", "diagnostics", "isotropy",
                "linalg", "needles", "sloc", "volume", "walks"):
        importlib.import_module(f"klslab.{sub}")
    before = _bindings()

    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = _changed(before, _bindings())
    finally:
        tracer.uninstall()

    assert ("klslab.linalg", "power_opnorm") in patched
    assert ("klslab.sloc", "ObservablePool", "estimate") in patched
    # the layer metrics cli.artifact_s and diagnostics.<estimator>.s
    assert ("klslab.cli", "_Artifacts", "write_csv") in patched
    for estimator in ("halfspace_isoperimetry", "thin_shell", "slicing_constant",
                      "poincare_family_min", "log_cheeger_halfspace"):
        assert ("klslab.diagnostics", estimator) in patched
    # the per-layer metrics walks.steps.*, bodies.chord.<kind>.us and
    # densities.log_density.calls
    for step in ("metropolis_step", "hit_and_run_step", "ball_walk_step"):
        assert ("klslab.walks", step) in patched
    for cls in ("AxisCube", "Polytope", "RestrictedBody"):
        assert ("klslab.bodies", cls, "chord") in patched
    assert ("klslab.densities", "Density", "log_density") in patched
    assert _changed(before, _bindings()) == []


def test_every_body_kind_is_a_traced_chord_kind():
    # tracing.CHORD_KINDS names the bodies.chord.<kind>.us metrics; a kind
    # left out of it would be timed under no metric.  The file is read,
    # not imported, so this holds without the tracer on the path
    from klslab import bodies

    with open(os.path.join(PERFBENCH, "tracing.py")) as fh:
        tree = ast.parse(fh.read())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["CHORD_KINDS"])
    kinds = {cls.kind for cls in vars(bodies).values()
             if isinstance(cls, type) and issubclass(cls, bodies.Body)
             and cls is not bodies.Body and "kind" in cls.__dict__}
    assert len(kinds) == 6
    assert sorted(kinds - set(traced)) == []


def test_tracer_counts_every_run_chain_step(monkeypatch):
    # walks.steps.<kind> counts calls of walks.<kind>_step; run_chain must
    # reach the steppers through walks' module bindings on every call, or
    # a traced run reads 0 steps
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    import numpy as np

    from klslab import walks
    from klslab.bodies import AxisCube
    from klslab.densities import Gaussian, Uniform

    cube = AxisCube(3)
    targets = {"hit_and_run": Gaussian(cube, a=1.0),
               "metropolis": Gaussian(cube, a=1.0),
               "ball_walk": Uniform(cube)}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for walk, density in targets.items():
            label = f"walks.step.{walk}"
            before = tracer.calls[label]
            walks.run_chain(density, np.zeros(3), 7, walk=walk, burn_in=5,
                            thin=2, rng=0)
            assert tracer.calls[label] - before == 5 + 7 * 2, walk
    finally:
        tracer.uninstall()


def test_tracer_counts_read_the_return_shapes(monkeypatch):
    # isotropy.iterations and needles.cells are read off the results of the
    # traced calls (result[2] and result.cells); a change to either return
    # shape must fail here, not skew a traced run
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    import warnings

    import numpy as np

    from klslab import isotropy, needles
    from klslab.bodies import AxisCube, simplex
    from klslab.densities import Uniform
    from klslab.diagnostics import HalfspaceSet
    from klslab.rng import RngStream

    tracer = tracing.Tracer()
    try:
        tracer.install()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            _, _, log = isotropy.iterated_gaussian_isotropy(
                simplex(3), RngStream(1), max_iters=2, k=60)
        result = needles.needle_decompose(
            Uniform(AxisCube(2)), HalfspaceSet(np.eye(2)[0], 0.0), eps=0.05,
            max_depth=1, k=64, rng=RngStream(2))
        counts = tracer.counts
        assert counts["isotropy.iterations"] == len(log) >= 1
        assert counts["needles.cells"] == len(result.cells) >= 1
    finally:
        tracer.uninstall()
