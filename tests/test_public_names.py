"""Every public function and class of the package has a user.

A public top-level function or class in ``src/qkdlab`` must be referenced
somewhere in the package outside its own definition and ``__init__.py``,
or be named in README.md; a helper that only its own tests call should be
deleted instead.
"""

import ast
import os
import re

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qkdlab")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _references(node):
    """Names that ``node`` reads, as bare names or as module attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_function_and_class_is_used_or_documented():
    definitions, used = [], {}
    for module, tree in _modules():
        for node in tree.body:
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if defines and not node.name.startswith("_"):
                definitions.append((module, node.name))
            for name in _references(node):
                # a definition's reference to its own name does not count
                if not (defines and name == node.name):
                    used.setdefault(name, set()).add(module)
    with open(README, encoding="utf-8") as fh:
        readme = fh.read()
    unused = [f"{module}: {name}" for module, name in definitions
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert not unused, "public but unused and undocumented: " + ", ".join(unused)
