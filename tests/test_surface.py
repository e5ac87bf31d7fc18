"""The public surface: every exported name, and every public method and
property of the package's classes, has a caller inside the package.

A name in a module's ``__all__``, or a method or property not named with a
leading underscore, that nothing in ``src/thetareg`` uses is surface that
only tests hold up. It belongs in ``tests/oracles.py`` or nowhere, unless
KEPT names a reason to keep it. Methods are keyed ``Class.name``; a use is
any load of the name or attribute read of it, so a call through any object
counts.

Options are held to the same rule: a parameter with a default, on an
exported function or on a public method or constructor of an exported
class, must be passed by keyword or by position from some call in the
package, or sit in KEPT as ``name.param`` with its reason. A call is
matched by the name it calls through (the function, the method, or the
class for its constructor), so ``name`` is that name.

Imports are held to it too: a module-level import that nothing in its
module reads is dead weight, the re-exports of ``__init__`` aside.
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
    "SupNormResult.refinement_gain": "read per sup_norm by perfbench/spans.py",
    "WeightVector.l2_squared": "read by perfbench/workloads.py for the smooth "
                               "blocks' l2 floor",
    "verify_collapse.phis": "passed by perfbench's corrupted-residual test; "
                            "goes once that test is mended (ROADMAP item 1)",
    "extract_kappa.phis": "goes with extract_kappa (ROADMAP item 4)",
    "main.argv": "perfbench's scan items and the CLI tests enter the "
                 "program through it",
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


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


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


def _defaulted(tree: ast.Module):
    """(name.param, def node) for each parameter with a default of the
    module's exported functions and of its exported classes' public methods
    and constructors (__init__, or a dataclass's fields)."""
    exported = set(_exports(tree))
    for top in tree.body:
        if getattr(top, "name", None) not in exported:
            continue
        if isinstance(top, ast.FunctionDef):
            yield from ((f"{top.name}.{p}", top) for p in _params(top))
            continue
        for node in top.body:
            if isinstance(node, ast.FunctionDef) and (
                    node.name == "__init__" or not node.name.startswith("_")):
                name = top.name if node.name == "__init__" else node.name
                yield from ((f"{name}.{p}", node) for p in _params(node))
            elif (isinstance(node, ast.AnnAssign) and node.value is not None
                  and _is_dataclass(top)):
                yield f"{top.name}.{node.target.id}", top


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in cls.decorator_list)


def _params(fn: ast.FunctionDef) -> list[str]:
    """The parameters of fn that have a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    return ([a.arg for a in positional[len(positional) - len(args.defaults):]]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _passes(call: ast.Call, fn: ast.AST, param: str) -> bool:
    """Whether call passes param of fn (a def, or a dataclass for its
    fields), by keyword or by position. A method's or constructor's first
    parameter is bound before the call's arguments."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if isinstance(fn, ast.ClassDef):
        names = [n.target.id for n in fn.body if isinstance(n, ast.AnnAssign)]
    else:
        names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if names[:1] in (["self"], ["cls"]):
            names = names[1:]
    if param not in names:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or len(call.args) > names.index(param))


def _unpassed_options() -> dict[str, str]:
    """name.param -> its module, for defaulted parameters that no call in
    the package outside their own definition passes."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = {}
    for module, tree in trees.items():
        for key, fn in _defaulted(tree):
            name, param = key.rsplit(".", 1)
            own = {id(n) for n in ast.walk(fn)}
            if not any(_called_name(c) == name and id(c) not in own
                       and _passes(c, fn, param) for c in calls):
                unpassed[key] = module
    return unpassed


def test_every_option_is_passed_in_the_package():
    unpassed = _unpassed_options()
    stray = {key: module for key, module in unpassed.items() if key not in KEPT}
    assert not stray, (f"options no call in src/thetareg passes: {stray}; "
                       "delete them, or give a reason in KEPT")


def _unused_imports() -> dict[str, list[str]]:
    """module -> the names its module-level imports bind and nothing in it
    reads. ``from __future__`` imports and ``__init__``'s re-exports are
    exempt."""
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        used = _uses(tree)
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        stray = [name for name in bound if not used[name]]
        if stray:
            unused[path.stem] = stray
    return unused


def test_every_import_is_read():
    unused = _unused_imports()
    assert not unused, f"imported but never read: {unused}"


def test_every_kept_entry_is_still_needed():
    # a kept name that gained a caller, or left the surface, leaves KEPT too
    stale = sorted(set(KEPT) - set(_unused_surface()) - set(_unpassed_options()))
    assert not stale, f"KEPT entries that no longer need keeping: {stale}"


# name -> the places of src/thetareg that may use it: a module, or one
# top-level function or class of a module. ".w" is the block weights'
# array, whose window layout only cutoff and the sum's coefficients read
ONE_ROUTE = {
    "np.fft": {"thetasum.grid_values"},
    "rational_phase_array": {"thetasum.phase_vector"},
    "quadratic_phase_array": {"thetasum.phase_vector"},
    "threading": {"thetasum._map_cosets"},
    ".w": {"cutoff", "thetasum.SumSpec"},
    "dumps": {"besov.report_to_json"},
}


def _route_uses(tree: ast.Module):
    """(name, top-level function or class) for each reference to np.fft,
    each attribute of threading or import from it, each call of a
    phase-array builder and each attribute .w in the module."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
            else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "w":
                yield ".w", owner
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                dotted = f"{node.value.id}.{node.attr}"
                if dotted == "np.fft":
                    yield dotted, owner
                elif node.value.id == "threading":
                    yield "threading", owner
            elif isinstance(node, ast.ImportFrom) and node.module == "threading":
                yield "threading", owner
            elif isinstance(node, ast.Call) and _called_name(node) in ONE_ROUTE:
                yield _called_name(node), owner


def test_one_transform_and_one_phase_builder():
    stray = sorted(
        (f"{path.stem}.{owner}", name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, owner in _route_uses(ast.parse(path.read_text()))
        if not {path.stem, f"{path.stem}.{owner}"} & ONE_ROUTE[name])
    assert not stray, (f"used outside their one route {ONE_ROUTE}: {stray}")
