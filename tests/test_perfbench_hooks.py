"""The benchmark's traced mode patches klslab by name at runtime.  A rename
or deletion of a traced function breaks `perfbench/run.py --trace 1`; this
test catches that in the ordinary suite, and checks that uninstalling the
tracer restores every binding it replaced."""

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
