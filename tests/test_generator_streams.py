"""No module of the package reads a stream of ``numpy.random``, and one
module maps raw words to floats.

NumPy promises a fixed seed's raw PCG64 words across versions (NEP 19), but
not the streams of ``Generator``'s methods, and importing ``numpy.random``
costs every command its load.  Every draw in ``src/qkdlab`` reads raw words
from ``qkdlab.pcg64``: sessions through ``random_raw`` and tomography through
``tomography._poisson``.  This AST check fails on any import of
``numpy.random``, any use of ``np.random`` and any call of a method that
``Generator`` defines.  A second check keeps the word-to-float map, a
word's top 53 bits times 2^-53, in ``pcg64.uniform``: no other module
shifts right by 11 or computes ``2.0 ** -53``.
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


def _is_eleven(node, names) -> bool:
    """``11``, ``np.uint64(11)`` or a name bound to either."""
    if isinstance(node, ast.Call) and len(node.args) == 1:
        node = node.args[0]
    if isinstance(node, ast.Name):
        return node.id in names
    return isinstance(node, ast.Constant) and node.value == 11


def _is_minus_53(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return isinstance(node.operand, ast.Constant) and node.operand.value == 53
    return isinstance(node, ast.Constant) and node.value == -53


def _map_findings(tree, name):
    """Each shift right by 11 and each ``2 ** -53`` in ``tree``."""
    elevens = {node.targets[0].id for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and len(node.targets) == 1
               and isinstance(node.targets[0], ast.Name) and _is_eleven(node.value, ())}
    for node in ast.walk(tree):
        where = f"{name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.RShift) \
                and _is_eleven(node.right if isinstance(node, ast.BinOp) else node.value, elevens):
            yield f"{where} >> 11"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "right_shift" and len(node.args) >= 2 \
                and _is_eleven(node.args[1], elevens):
            yield f"{where} right_shift(..., 11)"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
                and isinstance(node.left, ast.Constant) and node.left.value == 2 \
                and _is_minus_53(node.right):
            yield f"{where} 2 ** -53"


def test_only_pcg64_maps_words_to_floats():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "pcg64.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                found += _map_findings(ast.parse(fh.read(), filename=name), name)
    assert not found, "a word-to-float map outside pcg64.uniform: " + ", ".join(found)


def test_the_map_check_finds_each_form():
    source = ("u = (words >> 11) * 0.5\n"
              "words >>= np.uint64(11)\n"
              "_U53 = np.uint64(11); top = words >> _U53\n"
              "top = np.right_shift(words, 11)\n"
              "scale = 2.0 ** -53\n")
    assert sorted(f.split(" ", 1)[0] for f in _map_findings(ast.parse(source), "probe.py")) == [
        f"probe.py:{line}" for line in range(1, 6)]
    assert not list(_map_findings(ast.parse("bit = words >> 1 & 1\nx = 2.0 ** -52\n"), "ok.py"))
