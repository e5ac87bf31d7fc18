"""The public surface: every exported name, and every public method and
property of the package's classes, has a caller inside the package.

A name in a module's ``__all__``, or a method or property not named with a
leading underscore, that nothing in ``src/thetareg`` uses is surface that
only tests hold up. It belongs in ``tests/oracles.py`` or nowhere, unless
KEPT names a reason to keep it. Methods are keyed ``Class.name``; a use is
any load of the name or attribute read of it, so a call through any object
counts.
"""

import ast
from collections import Counter
from pathlib import Path

import thetareg

PACKAGE = Path(thetareg.__file__).resolve().parent

# name (or Class.name) -> why it stays public without a caller in the package
KEPT = {
    "eval_sum": "wrapped by perfbench/spans.py (thetasum.eval_sum)",
    "extract_kappa": "wrapped by perfbench/spans.py (collapse.extract_kappa)",
    "rational_phase": "counted by perfbench/spans.py; the reference of the "
                      "phase-array tests",
    "irrational_phase": "the reference of the phase-array tests",
    "mean_square_on_grid": "becomes the p = 2 case of the block L^p spectra "
                           "or goes (ROADMAP item 3)",
    "SupNormResult.refinement_gain": "read per sup_norm by perfbench/spans.py",
}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level def, class and assignment nodes by the name they bind."""
    out: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    out[t.id] = node
    return out


def _uses(node: ast.AST) -> Counter:
    """How often each name is loaded, or read as an attribute, under node."""
    used: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
    return used


def _public_methods(tree: ast.Module):
    """(Class.name, def node) for each public method and property of the
    module's top-level classes."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    yield f"{cls.name}.{node.name}", node


def _unused_surface() -> dict[str, str]:
    """Exported name or Class.name -> its module, for names used nowhere in
    the package outside their own definition. Import lines do not count as
    uses."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = {module: _uses(tree) for module, tree in trees.items()}
    total = sum(uses.values(), Counter())
    unused = {}
    for module, tree in trees.items():
        defs = _definitions(tree)
        for name in _exports(tree):
            own = _uses(defs[name])[name] if name in defs else 0
            if total[name] == own:
                unused[name] = module
        for key, node in _public_methods(tree):
            if total[node.name] == _uses(node)[node.name]:
                unused[key] = module
    return unused


def test_every_export_has_a_caller_in_the_package():
    unused = _unused_surface()
    stray = {name: module for name, module in unused.items() if name not in KEPT}
    assert not stray, (f"public but unused in src/thetareg: {stray}; "
                       "delete them, move them to tests/oracles.py, "
                       "or give a reason in KEPT")
    # a kept name that gained a caller, or left the surface, leaves KEPT too
    stale = sorted(set(KEPT) - set(unused))
    assert not stale, f"KEPT names that no longer need keeping: {stale}"


# name -> the one function of src/thetareg that may use it
ONE_ROUTE = {
    "np.fft": "grid_values",
    "rational_phase_array": "phase_vector",
    "quadratic_phase_array": "phase_vector",
}


def _route_uses(tree: ast.Module):
    """(name, top-level function) for each reference to np.fft and each
    call of a phase-array builder in the module."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
            else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and isinstance(node.value, ast.Name) and node.value.id == "np"):
                yield "np.fft", owner
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                if name in ONE_ROUTE:
                    yield name, owner


def test_one_transform_and_one_phase_builder():
    stray = sorted(
        (f"{path.stem}.{owner}", name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, owner in _route_uses(ast.parse(path.read_text()))
        if owner != ONE_ROUTE[name])
    assert not stray, (f"used outside their one route {ONE_ROUTE}: {stray}")
