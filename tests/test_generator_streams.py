"""No module of the package reads a stream of ``numpy.random``.

NumPy promises a fixed seed's raw PCG64 words across versions (NEP 19), but
not the streams of ``Generator``'s methods, and importing ``numpy.random``
costs every command its load.  Every draw in ``src/qkdlab`` reads raw words
from ``qkdlab.pcg64``: sessions through ``random_raw`` and tomography through
``tomography._poisson``.  This AST check fails on any import of
``numpy.random``, any use of ``np.random`` and any call of a method that
``Generator`` defines.
"""

import ast
import os

import numpy as np

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qkdlab")
GENERATOR_METHODS = {name for name in dir(np.random.Generator)
                     if not name.startswith("_") and callable(getattr(np.random.Generator, name))}


def _findings(tree, name):
    for node in ast.walk(tree):
        where = f"{name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Import):
            yield from (f"{where} import {alias.name}" for alias in node.names
                        if alias.name.startswith("numpy.random"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("numpy.random") or (
                    module == "numpy" and any(alias.name == "random" for alias in node.names)):
                yield f"{where} from {module} import ..."
        elif isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            yield f"{where} {node.value.id}.random"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in GENERATOR_METHODS:
            yield f"{where} .{node.func.attr}()"


def test_package_reads_no_numpy_random_stream():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                found += _findings(ast.parse(fh.read(), filename=name), name)
    assert not found, "numpy.random in the package: " + ", ".join(found)


def test_the_check_finds_each_form():
    source = ("import numpy.random\n"
              "from numpy.random import default_rng\n"
              "from numpy import random\n"
              "rng = np.random.default_rng(1)\n"
              "rng.poisson(3.0)\n")
    assert sorted(f.split(" ", 1)[0] for f in _findings(ast.parse(source), "probe.py")) == [
        f"probe.py:{line}" for line in range(1, 6)]
