"""Every public name of the package is used by the package, a demo or the benchmark.

The sources of ``src/thinspray``, ``demos/`` and ``perfbench/`` are parsed
(not imported; the benchmark files are only read).  A public top-level
function, class or constant of ``src/thinspray`` must be referenced outside
its own definition and the re-export in ``__init__``: by a name that no
enclosing function binds, an attribute of a thinspray module or an import
alias.  A public classmethod or staticmethod must be referenced as
``Class.name`` outside its own definition, and every public method and
property as an attribute ``.name`` outside its own body (by name alone, so a
shared name can only hide a use).  A capability that only tests use fails
here; delete it with its tests, or put it on a run path.  The method check
is what keeps ``GridSpec.meshgrid``, whose only callers were tests, deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thinspray"
READERS = ROOT / "demos", ROOT / "perfbench"

# They read back the formats a run writes; the writers are on the run path.
EXEMPT = {
    "snapshots.read_state": "inverts write_state",
    "snapshots.read_diagnostics_csv": "inverts write_diagnostics_csv",
}


def _parsed():
    paths = sorted(PACKAGE.glob("*.py"))
    for folder in READERS:
        paths += sorted(folder.glob("*.py"))
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _definitions(tree):
    """(name, node) of each public top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _module_aliases(tree):
    """Local names that an `import thinspray...` statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "thinspray":
                    yield alias.asname or alias.name.split(".")[0]


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(scope):
    """Names a function binds: its arguments and every name stored in its
    body, nested scopes included (a superset, which can only hide uses)."""
    args = scope.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a}
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _global_uses(node, modules, local=frozenset()):
    """(name, line) of each use of a module-level name below node: a loaded
    name no enclosing function binds, or an attribute of a thinspray module.
    An attribute of anything else, such as an array's .mean, only shares the
    name."""
    for child in ast.iter_child_nodes(node):
        inner = local | _bound(child) if isinstance(child, _SCOPES) else local
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) \
                and child.id not in local:
            yield child.id, child.lineno
        elif isinstance(child, ast.Attribute) and _root(child) in modules:
            yield child.attr, child.lineno
        yield from _global_uses(child, modules, inner)


def _references(trees):
    """(name, path, line) of every use of a module-level name and every
    import alias, leaving out the imports of the package's __init__."""
    init = PACKAGE / "__init__.py"
    for path, tree in trees.items():
        for name, line in _global_uses(tree, set(_module_aliases(tree))):
            yield name, path, line
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and path != init:
                for alias in node.names:
                    yield alias.name.rsplit(".", 1)[-1], path, node.lineno


def test_every_public_name_is_used():
    trees = _parsed()
    refs = list(_references(trees))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and not (where == path and line in inside)
                       for ref, where, line in refs):
                unused.append(f"{path.stem}.{name}")
    assert not set(unused) - set(EXEMPT), \
        f"public names no run, demo or benchmark uses: {sorted(set(unused) - set(EXEMPT))}"
    assert set(EXEMPT) <= set(unused), "an exempt reader has a caller; drop its exemption"


def _methods(tree):
    """(class, name, node) of each public method and property."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node.name, node


def _class_methods(tree):
    """(class, name, node) of each public classmethod and staticmethod."""
    for cls, name, node in _methods(tree):
        if any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
               for d in node.decorator_list):
            yield cls, name, node


def _class_attributes(tree):
    """(class, attribute, line) of each Class.name, also as module.Class.name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name):
                yield owner.id, node.attr, node.lineno
            elif isinstance(owner, ast.Attribute):
                yield owner.attr, node.attr, node.lineno


def test_every_public_class_method_is_used():
    trees = _parsed()
    refs = {(cls, name, path, line) for path, tree in trees.items()
            for cls, name, line in _class_attributes(tree)}
    unused = [f"{path.stem}.{cls}.{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for cls, name, node in _class_methods(trees[path])
              if not any(c == cls and n == name
                         and not (where == path and node.lineno <= line <= node.end_lineno)
                         for c, n, where, line in refs)]
    assert not unused, f"class methods no run, demo or benchmark uses: {unused}"


def test_every_public_method_and_property_is_used():
    trees = _parsed()
    refs = {(node.attr, path, node.lineno) for path, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = [f"{path.stem}.{cls}.{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for cls, name, node in _methods(trees[path])
              if not any(n == name
                         and not (where == path and node.lineno <= line <= node.end_lineno)
                         for n, where, line in refs)]
    assert not unused, f"methods and properties no run, demo or benchmark uses: {unused}"
