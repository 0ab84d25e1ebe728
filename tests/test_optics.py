import itertools

import numpy as np
import pytest

from qkdlab.optics import MeasBasis, PolState, projector

from conftest import assert_close

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
