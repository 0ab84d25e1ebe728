"""``qkdlab.cli`` is the package's one file boundary.

Every file the package reads or writes, and every file format, lives in
``cli.py``: no other module may call ``open`` or a ``.write`` method, or
import ``json`` or ``csv``.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qkdlab")
FORMAT_MODULES = {"json", "csv"}


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield node.lineno, "calls open"
            elif isinstance(func, ast.Attribute) and func.attr in ("open", "write"):
                yield node.lineno, f"calls .{func.attr}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in FORMAT_MODULES:
                    yield node.lineno, f"imports {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] in FORMAT_MODULES:
                yield node.lineno, f"imports from {node.module}"


def test_only_cli_reads_writes_or_formats_files():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "cli.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [f"{name}:{line} {what}" for line, what in _violations(tree)]
    assert not found, "file access outside cli.py: " + ", ".join(found)
