import dataclasses

import numpy as np
import pytest

from qkdlab import qmath
from qkdlab.detection import Trials
from qkdlab.protocol import run_session
from qkdlab.states import TwoQubitState


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


def kron_outcome_probs(rho, a, b):
    """Oracle joint outcome probabilities (p11, p10, p01, p00) of the pair
    ``rho`` measured in bases ``a`` and ``b``: Tr[rho (P_a x P_b)] over each
    basis's (plus, minus) projectors, by ``np.kron`` and ``np.trace``."""
    return np.array([np.trace(rho @ np.kron(pa, pb)).real
                     for pa in a.projectors() for pb in b.projectors()])


def session_with_trials(config):
    """``run_session(config)`` and every interval it simulated, joined from
    the tiles it passed to its sink."""
    tiles = []
    transcript = run_session(config, sink=lambda start, trials: tiles.append(trials))
    trials = Trials(**{f.name: np.concatenate([getattr(t, f.name) for t in tiles])
                       for f in dataclasses.fields(Trials)})
    return transcript, trials


def intercept_branches(s, basis):
    """Brute-force oracle: Eve's projective measurement of photon 2 in
    ``basis``, branch by branch.

    Returns ``[(p_minus, post_minus), (p_plus, post_plus)]``, indexed by her
    bit (plus -> 1, minus -> 0): each outcome's probability and the pair's
    post-measurement state, which is ``None`` for a zero-probability branch.
    The probability-weighted post states sum to ``dephase_bob(s, angle, 1)``.
    """
    branches = []
    for proj2 in reversed(basis.projectors()):
        op = qmath.tensor(np.eye(2, dtype=complex), proj2)
        p = min(max(float(np.trace(s.rho @ op).real), 0.0), 1.0)
        branches.append((p, TwoQubitState(op @ s.rho @ op / p) if p > 0.0 else None))
    return branches
