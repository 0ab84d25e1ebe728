import itertools

import numpy as np
import pytest

from qkdlab import optics
from qkdlab.optics import (ANALYZER_SETTINGS, AnalyzerSetting, MeasBasis, PolState,
                           analyzer_chain, hwp,
                           hwp_angle_from_horizontal, projector, qwp)

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
        plus, minus = basis.states
        assert overlap(plus.ket, minus.ket) == pytest.approx(0.0, abs=1e-12)


def test_bases_mutually_unbiased():
    pairs = 0
    for b1, b2 in itertools.permutations(MeasBasis, 2):
        for x in BASES[b1]:
            for y in BASES[b2]:
                assert overlap(x.ket, y.ket) == pytest.approx(0.5, abs=1e-12)
                pairs += 1
    assert pairs == 24


def test_hwp_turns_horizontal_into_diagonal():
    # the protocol's DA knob: half-wave plate 22.5 deg from the horizontal
    out = hwp(hwp_angle_from_horizontal(22.5)) @ PolState.H.ket
    assert overlap(out, PolState.D.ket) == pytest.approx(1.0, abs=1e-12)


def test_hwp_axis_aligned_is_inert():
    out = hwp(0.0) @ PolState.V.ket
    assert overlap(out, PolState.V.ket) == pytest.approx(1.0, abs=1e-12)


def test_qwp_diagonal_axis_makes_circular():
    # fast axis 45 deg from horizontal; exactly one handedness comes out
    out = qwp(hwp_angle_from_horizontal(45.0)) @ PolState.H.ket
    to_r = overlap(out, PolState.R.ket)
    to_l = overlap(out, PolState.L.ket)
    assert sorted([to_r, to_l]) == pytest.approx([0.0, 1.0], abs=1e-12)
    assert to_r == pytest.approx(1.0, abs=1e-12)  # this package's handedness


def test_hwp_maps_linear_angles(rng):
    # linear at phi (from vertical) -> linear at 2 theta - phi
    for _ in range(25):
        theta = rng.uniform(-90, 90)
        phi = rng.uniform(-90, 90)
        ket_in = optics.linear_ket(phi + 90.0)    # from-vertical -> from-horizontal
        expected = optics.linear_ket(2 * theta - phi + 90.0)
        assert overlap(hwp(theta) @ ket_in, expected) == pytest.approx(1.0, abs=1e-12)


def test_waveplates_unitary(rng):
    for _ in range(25):
        theta = rng.uniform(-180, 180)
        for plate in (hwp(theta), qwp(theta)):
            assert_close(plate @ plate.conj().T, np.eye(2), tol=1e-12)


def _is_identity_up_to_phase(m):
    phase = m[0, 0]
    assert abs(phase) == pytest.approx(1.0, abs=1e-12)
    assert_close(m / phase, np.eye(2), tol=1e-10)


def test_hwp_squares_to_identity(rng):
    theta = rng.uniform(-90, 90)
    _is_identity_up_to_phase(hwp(theta) @ hwp(theta))


def test_qwp_fourth_power_identity(rng):
    theta = rng.uniform(-90, 90)
    m = np.linalg.matrix_power(qwp(theta), 4)
    _is_identity_up_to_phase(m)


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


def test_analyzer_rows_filter_named_states():
    orthogonal = {PolState.H: PolState.V, PolState.V: PolState.H,
                  PolState.D: PolState.A, PolState.A: PolState.D,
                  PolState.R: PolState.L, PolState.L: PolState.R}
    for state, setting in ANALYZER_SETTINGS.items():
        chain = analyzer_chain(setting)
        assert np.linalg.norm(chain @ state.ket) ** 2 == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(chain @ orthogonal[state].ket) ** 2 == pytest.approx(0.0, abs=1e-10)


def test_analyzer_chain_is_the_stated_composition():
    setting = AnalyzerSetting(qwp_angle=-45.0, hwp_angle=-22.5)
    p_vertical = np.array([[0, 0], [0, 1]], dtype=complex)
    expected = p_vertical @ hwp(-22.5) @ qwp(-45.0)
    assert_close(analyzer_chain(setting), expected, tol=1e-15)


def _analyzer_povm(s):
    """A†A of the state's analyzer chain."""
    chain = analyzer_chain(ANALYZER_SETTINGS[s])
    return chain.conj().T @ chain


def test_analyzer_povm_equals_projector():
    for s in STATES:
        assert_close(_analyzer_povm(s), projector(s), tol=1e-10)


def test_two_photon_settings_tomographically_complete():
    from qkdlab.tomography import TOMO_SCHEDULE
    povms = [np.kron(_analyzer_povm(a), _analyzer_povm(b)) for a, b in TOMO_SCHEDULE]
    gram = np.array([[np.trace(p @ q).real for q in povms] for p in povms])
    assert np.linalg.matrix_rank(gram, tol=1e-8) == 16
