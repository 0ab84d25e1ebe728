"""The ``Generator`` methods the package draws from, pinned by name.

NumPy promises a fixed seed's raw PCG64 stream across versions, but not the
streams of ``Generator``'s methods.  ``src/qkdlab`` calls one of them:
``poisson`` draws the tomography counts.  It is pinned here for a fixed seed, in
the form the package calls it, so a NumPy that changes it fails here by its name
rather than as a bare golden mismatch; every other draw, a session's among them,
reads the raw stream (``qkdlab.pcg64``).
"""

import ast
import os

import numpy as np
import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qkdlab")


STREAMS = {
    "poisson": (lambda rng: rng.poisson([0.5, 3.0, 40.0, 1e4], size=(2, 4)),
                [[1, 3, 29, 9959], [0, 2, 42, 9908]]),
}


@pytest.mark.parametrize("method", sorted(STREAMS))
def test_generator_method_stream_is_pinned(method):
    draw, expected = STREAMS[method]
    assert draw(np.random.default_rng(2024)).tolist() == expected, (
        f"Generator.{method} draws a different stream for seed 2024 on NumPy "
        f"{np.__version__}: every output that uses it moves")


def test_package_calls_no_other_generator_method():
    methods = {name for name in dir(np.random.Generator)
               if not name.startswith("_") and callable(getattr(np.random.Generator, name))}
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [f"{name}:{node.lineno} .{node.func.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in methods - set(STREAMS)]
    assert not found, "Generator methods whose stream is not pinned: " + ", ".join(found)
