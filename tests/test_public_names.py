"""Every public function, class and method of the package is used: each is
named somewhere in src/ or in the benchmark's program files besides its
own definition. Code that only its tests call belongs in the tests."""

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


def public_definitions():
    """(qualified name, name) of each public top-level function or class and
    each public method of a top-level class."""
    for path in PACKAGE:
        module = os.path.basename(path)[:-3]
        for node in ast.parse(open(path).read()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def test_every_public_name_is_used():
    text = "".join(open(p).read() for p in PACKAGE + BENCHMARK)
    definitions = list(public_definitions())
    defined = {}
    for _, name in definitions:
        defined[name] = defined.get(name, 0) + 1
    unused = [qualified for qualified, name in definitions
              if len(re.findall(rf"\b{name}\b", text)) <= defined[name]
              and qualified not in ALLOWED]
    assert not unused, f"named only at their definition: {unused}"
