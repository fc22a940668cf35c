"""Every public function, class and method of the package is used outside
its tests, in src/ or in the benchmark's program files. Code that only its
tests call belongs in the tests.

A top-level function, class or constructed op counts as used when it is
imported by name from its module, referenced as <module alias>.<name>, or
read inside its own module; the assignment that binds it is no use.
Matching the bare word would let numpy's np.log stand in for a
package-level log. A method counts as used when its name appears as a word
anywhere besides its definitions."""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "whamkit", "*.py")))
BENCHMARK = sorted(p for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                   if not os.path.basename(p).startswith("test_"))

# model.rollout_np is the numpy reference that the rollout tests compare
# the autodiff rollout against.
ALLOWED = {"model.rollout_np"}


def module_name(path: str) -> str:
    return os.path.basename(path)[:-3]


def constructed_names(node: ast.stmt) -> list[str]:
    """The public names a top-level assignment binds to a call of a private
    constructor, as in exp = _unary(np.exp, ...)."""
    if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id.startswith("_")):
        return []
    return [t.id for t in node.targets
            if isinstance(t, ast.Name) and not t.id.startswith("_")]


def public_definitions():
    """(module, qualified name, name, is a method) of each public top-level
    function or class, each public method of a top-level class, and each
    public name bound to a private constructor's result."""
    for path in PACKAGE:
        module = module_name(path)
        for node in ast.parse(open(path).read()).body:
            for name in constructed_names(node):
                yield module, f"{module}.{name}", name, False
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield module, f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield module, f"{module}.{node.name}.{item.name}", item.name, True


def package_module(node: ast.ImportFrom, alias: ast.alias | None = None) -> str | None:
    """The package module that an import names: the one imported from, or
    with alias given, the one that alias imports."""
    base = node.module
    if node.level == 1:
        base = "whamkit" + ("." + base if base else "")
    if alias is not None:
        base = f"{base}.{alias.name}"
    if base and base.startswith("whamkit.") and base.count(".") == 1:
        return base.split(".")[1]
    return None


def top_level_uses() -> set[tuple[str, str]]:
    """(module, name) of every top-level name used as the docstring says."""
    used = set()
    for path in PACKAGE + BENCHMARK:
        tree = ast.parse(open(path).read())
        own = module_name(path) if path in PACKAGE else None
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = package_module(node)
                for alias in node.names:
                    if source is not None:
                        used.add((source, alias.name))
                    target = package_module(node, alias)
                    if target is not None:
                        aliases[alias.asname or alias.name] = target
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if alias.asname and len(parts) == 2 and parts[0] == "whamkit":
                        aliases[alias.asname] = parts[1]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add((aliases[node.value.id], node.attr))
            elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                  and own is not None):
                used.add((own, node.id))
    return used


def test_every_public_name_is_used():
    text = "".join(open(p).read() for p in PACKAGE + BENCHMARK)
    definitions = list(public_definitions())
    defined = {}
    for _, _, name, _ in definitions:
        defined[name] = defined.get(name, 0) + 1
    used = top_level_uses()
    unused = [qualified for module, qualified, name, method in definitions
              if qualified not in ALLOWED
              and (len(re.findall(rf"\b{name}\b", text)) <= defined[name] if method
                   else (module, name) not in used)]
    assert not unused, f"unused outside the tests: {unused}"


def imported_names(tree: ast.Module, lines: list[str]):
    """(name, line) of each name an import statement binds, except
    __future__ features and names on lines marked # noqa."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            if "# noqa" not in lines[alias.lineno - 1]:
                yield (alias.asname or alias.name).split(".")[0], alias.lineno


def test_every_import_is_used():
    """A package module uses every name it imports; a deliberate re-export
    carries # noqa on its line."""
    unused = []
    for path in PACKAGE:
        source = open(path).read()
        tree = ast.parse(source)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module_name(path)}.py:{line} {name}"
                   for name, line in imported_names(tree, source.splitlines())
                   if name not in names]
    assert not unused, f"imported but unused: {unused}"
