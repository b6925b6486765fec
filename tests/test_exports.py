"""Every name the package exports has a caller inside the package, no
module imports a private name from another, and __init__.py is the one
export list."""

import ast
import pathlib

import klslab

SRC = pathlib.Path(klslab.__file__).parent

# exported names that no package code references, each with why it stays
ALLOWED_UNREFERENCED = {
    "power_opnorm": "the benchmark's tracer patches it; the benchmark "
                    "refresh removes it with its traced metrics",
    "chord_profile": "the benchmark's tracer classifies chord draws with it",
    "conductance_tv_bound": "acceptance criterion 11",
    "mixing_bounds": "acceptance criterion 11",
    "moment_inequality_check": "acceptance criterion 8",
    "ball_walk_mixing_estimate": "the plug-in bound that measured step "
                                 "counts are to be compared with",
    "SlabSet": "the tracked-set kind planned for slab experiments",
}


def _exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _referenced_names():
    """Name ids and attribute names used anywhere in the package's modules
    except __init__.py, leaving out uses inside the module-level def or
    class of the same name, so that recursion or a class naming itself
    does not count as a caller."""
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    seen.add(name)
    return seen


def test_every_exported_name_has_a_caller():
    exported = _exported_names()
    referenced = _referenced_names()
    unreferenced = sorted(exported - referenced - set(ALLOWED_UNREFERENCED))
    assert unreferenced == [], (
        f"exported but never referenced inside the package: "
        f"{', '.join(unreferenced)}; add a package caller or an allow-list "
        f"entry with its reason")
    stale = sorted(name for name in ALLOWED_UNREFERENCED
                   if name not in exported or name in referenced)
    assert stale == [], (
        f"allow-listed but exported with a caller, or not exported: "
        f"{', '.join(stale)}; remove the allow-list entry")


def test_no_module_imports_a_private_name_from_a_sibling():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").startswith("klslab"))):
                continue
            found += [f"{path.name}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.endswith("__")]
    assert found == [], (
        f"private names imported across modules: {', '.join(found)}; make "
        f"the name public or keep its use inside its module")


def test_no_module_defines_all():
    # __init__.py is the one export list; a second list per module drifts
    found = sorted({path.name for path in SRC.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Name) and node.id == "__all__"})
    assert found == [], f"modules defining __all__: {', '.join(found)}"
