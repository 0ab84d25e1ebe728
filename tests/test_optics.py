import itertools
import math

import numpy as np
import pytest

from qkdlab.optics import MeasBasis, PolState, linear_ket, linear_projectors, projector
from qkdlab.states import TwoQubitState, dephase_bob

from conftest import assert_close, random_density

STATES = list(PolState)
BASES = {
    MeasBasis.HV: (PolState.H, PolState.V),
    MeasBasis.DA: (PolState.D, PolState.A),
    MeasBasis.RL: (PolState.R, PolState.L),
}


def overlap(a, b):
    return abs(np.vdot(a, b)) ** 2


def test_states_unit_norm():
    for s in STATES:
        assert np.linalg.norm(s.ket) == pytest.approx(1.0, abs=1e-12)


def test_basis_states_orthonormal():
    for basis in MeasBasis:
        plus, minus = basis.plus, basis.minus
        assert overlap(plus.ket, minus.ket) == pytest.approx(0.0, abs=1e-12)


def test_bases_mutually_unbiased():
    pairs = 0
    for b1, b2 in itertools.permutations(MeasBasis, 2):
        for x in BASES[b1]:
            for y in BASES[b2]:
                assert overlap(x.ket, y.ket) == pytest.approx(0.5, abs=1e-12)
                pairs += 1
    assert pairs == 24


def test_projector_overlaps():
    p_h, p_d, p_v = projector(PolState.H), projector(PolState.D), projector(PolState.V)
    assert np.trace(p_h @ p_d).real == pytest.approx(0.5, abs=1e-12)
    assert np.trace(p_h @ p_v).real == pytest.approx(0.0, abs=1e-12)
    # |<R|D>|^2 worked out by hand: ((1 + 1j)/2 in amplitude) -> 1/2
    amp = (np.conj(1.0) * 1.0 + np.conj(-1.0j) * 1.0) / 2.0
    assert abs(amp) ** 2 == pytest.approx(0.5, abs=1e-15)
    assert np.trace(projector(PolState.R) @ p_d).real == pytest.approx(0.5, abs=1e-12)


def test_projectors_rank1_idempotent_hermitian():
    for s in STATES:
        p = projector(s)
        assert_close(p, p.conj().T, tol=1e-12)
        assert_close(p @ p, p, tol=1e-12)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.matrix_rank(p) == 1


def test_two_photon_settings_tomographically_complete():
    from qkdlab.tomography import TOMO_SCHEDULE
    povms = [np.kron(projector(a), projector(b)) for a, b in TOMO_SCHEDULE]
    gram = np.array([[np.trace(p @ q).real for q in povms] for p in povms])
    assert np.linalg.matrix_rank(gram, tol=1e-8) == 16


def test_linear_projectors_reduce_the_angle_exactly(rng):
    # far outside (-360, 360), adding 90 before the reduction rounds away
    # the minus state: at 1e300 the unreduced pair is off I by ~1
    for a in (1e10, -1e10, 1e15, 1e300, -1e300):
        pair = linear_projectors(a)
        assert np.abs(pair.sum(axis=0) - np.eye(2)).max() <= 1e-12
        assert np.array_equal(pair, linear_projectors(math.fmod(a, 360.0)))
    # inside (-360, 360) the reduction is the identity: the unreduced
    # formula's bits
    for a in np.linspace(-359.75, 359.75, 2879).tolist() + [-0.0, 1e-300, 22.5, 67.5]:
        k = linear_ket(np.array([a, a + 90.0])).T
        assert np.array_equal(linear_projectors(a), k[:, :, None] * k[:, None, :].conj())
    # Eve's plate at a huge axis angle still leaves a density matrix
    for _ in range(200):
        dephase_bob(TwoQubitState(random_density(rng)), 1e10, 1.0)
