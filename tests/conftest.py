import dataclasses

import numpy as np
import pytest

from qkdlab import qmath
from qkdlab.detection import Trials
from qkdlab.protocol import run_session


def random_hermitian(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def random_density(rng, dim=4):
    """Ginibre-distributed density matrix: full rank almost surely."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def assert_close(actual, expected, tol=1e-10):
    __tracebackhide__ = True
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    err = np.max(np.abs(actual - expected)) if actual.size else 0.0
    assert err < tol, f"max deviation {err} >= {tol}"


def binomial_sigma(p, n):
    return np.sqrt(p * (1.0 - p) / n)


def session_with_trials(config):
    """``run_session(config)`` and every interval it simulated, joined from
    the blocks it passed to its sink."""
    blocks = []
    transcript = run_session(config, sink=lambda start, trials: blocks.append(trials))
    trials = Trials(**{f.name: np.concatenate([getattr(b, f.name) for b in blocks])
                       for f in dataclasses.fields(Trials)})
    return transcript, trials
