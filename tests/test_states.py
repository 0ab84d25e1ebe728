import numpy as np
import pytest

from qkdlab import qmath
from qkdlab.optics import MeasBasis
from qkdlab.states import (EveConfig, QuartzPlate, TwoQubitState, add_white_noise,
                           basis_from_angle, bell_phi_plus, bell_phi_plus_ket,
                           dephase_bob, eve_scenarios, plate_delay_fs, plate_gamma)

from conftest import assert_close, intercept_branches, random_density

BELL_MATRIX = np.array([
    [0.5, 0, 0, 0.5],
    [0.0, 0, 0, 0.0],
    [0.0, 0, 0, 0.0],
    [0.5, 0, 0, 0.5],
], dtype=complex)

HV_MIXTURE = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)

# hand-written diagonal-basis projectors for the brute-force channel oracle
P_D = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
P_A = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_bell_matrix_corners():
    assert_close(bell_phi_plus().rho, BELL_MATRIX, tol=1e-15)


def test_bell_same_in_diagonal_basis():
    rho = bell_phi_plus().rho
    both_diag = np.kron(P_D, P_D) + np.kron(P_A, P_A)
    assert np.trace(rho @ both_diag).real == pytest.approx(1.0, abs=1e-12)


def test_bell_joint_hv_probabilities():
    diag = np.diag(bell_phi_plus().rho).real
    assert_close(diag, [0.5, 0.0, 0.0, 0.5], tol=1e-15)


def test_white_noise_limits():
    s = bell_phi_plus()
    assert_close(add_white_noise(s, 0.0).rho, s.rho, tol=1e-15)
    assert_close(add_white_noise(s, 1.0).rho, np.eye(4) / 4.0, tol=1e-15)


def test_white_noise_source_fidelity():
    # direct <psi|rho'|psi> evaluation; closed form 1 - 3p/4
    psi = bell_phi_plus_ket()
    noisy = add_white_noise(bell_phi_plus(), 0.04).rho
    measured = (psi.conj() @ noisy @ psi).real
    assert measured == pytest.approx(1.0 - 3 * 0.04 / 4.0, abs=1e-12)
    assert measured == pytest.approx(0.97, abs=1e-12)


def test_dephase_full_hv_gives_mixture():
    out = dephase_bob(bell_phi_plus(), 0.0, 1.0)
    assert_close(out.rho, HV_MIXTURE, tol=1e-12)


def test_dephase_full_da_matches_brute_force():
    rho = bell_phi_plus().rho
    expected = (np.kron(I2, P_D) @ rho @ np.kron(I2, P_D)
                + np.kron(I2, P_A) @ rho @ np.kron(I2, P_A))
    out = dephase_bob(bell_phi_plus(), 45.0, 1.0)
    assert_close(out.rho, expected, tol=1e-12)
    # entry pattern: 1/4 on both 2x2 corner sub-blocks' corners
    quarter_positions = [(0, 0), (0, 3), (3, 0), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2)]
    for i in range(4):
        for j in range(4):
            want = 0.25 if (i, j) in quarter_positions else 0.0
            assert out.rho[i, j] == pytest.approx(want, abs=1e-12)


def test_dephase_zero_strength_is_identity(rng):
    for _ in range(10):
        s = TwoQubitState(random_density(rng))
        angle = rng.uniform(0, 180)
        assert_close(dephase_bob(s, angle, 0.0).rho, s.rho, tol=1e-12)


def test_dephase_preserves_trace_and_hermiticity(rng):
    for _ in range(25):
        s = TwoQubitState(random_density(rng))
        out = dephase_bob(s, rng.uniform(0, 180), rng.uniform(0, 1)).rho
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert qmath.is_hermitian(out)


def test_dephase_kills_cross_basis_coherence(rng):
    # at gamma = 1 no coherence between the two branches survives, checked
    # in the rotated basis of the plate
    from qkdlab.optics import linear_ket
    for angle in (0.0, 45.0, 30.0):
        s = TwoQubitState(random_density(rng))
        out = dephase_bob(s, angle, 1.0).rho
        plus = linear_ket(angle)
        minus = linear_ket(angle + 90.0)
        coherence = np.kron(I2, plus.reshape(1, 2).conj()) @ out @ np.kron(I2, minus.reshape(2, 1))
        assert np.max(np.abs(coherence)) < 1e-12


def test_dephase_corner_closed_form():
    for gamma in (0.0, 0.25, 0.5, 1.0):
        out = dephase_bob(bell_phi_plus(), 0.0, gamma)
        assert out.rho[0, 3].real == pytest.approx((1.0 - gamma) / 2.0, abs=1e-12)


def test_dephase_full_strength_idempotent(rng):
    s = TwoQubitState(random_density(rng))
    once = dephase_bob(s, 0.0, 1.0)
    assert_close(dephase_bob(once, 0.0, 1.0).rho, once.rho, tol=1e-12)


def test_intercept_eve_bit_is_fair_on_entangled_input():
    (p_minus, post_minus), (p_plus, post_plus) = intercept_branches(bell_phi_plus(),
                                                                    MeasBasis.DA)
    assert p_minus == pytest.approx(0.5, abs=1e-12)
    assert p_plus == pytest.approx(0.5, abs=1e-12)
    assert post_minus is not None and post_plus is not None


def test_intercept_on_eigenstate_is_invisible():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    (p_minus, post_minus), (p_plus, post_plus) = intercept_branches(TwoQubitState(rho),
                                                                    MeasBasis.HV)
    assert (p_minus, post_minus) == (0.0, None)  # Eve's bit is always 1
    assert p_plus == 1.0
    assert_close(post_plus.rho, rho, tol=1e-12)


def test_intercept_branch_average_equals_full_dephasing():
    for state in (bell_phi_plus(), TwoQubitState(random_density(np.random.default_rng(5)))):
        for basis, angle in ((MeasBasis.HV, 0.0), (MeasBasis.DA, 45.0)):
            plus2, _ = basis.projectors()
            (p_minus, post_minus), (p_plus, post_plus) = intercept_branches(state, basis)
            assert p_plus == pytest.approx(np.trace(state.rho @ np.kron(I2, plus2)).real,
                                           abs=1e-12)
            assert p_minus + p_plus == pytest.approx(1.0, abs=1e-12)
            mixture = p_plus * post_plus.rho + p_minus * post_minus.rho
            assert_close(mixture, dephase_bob(state, angle, 1.0).rho, tol=1e-12)


def test_plate_gamma_thick_plate():
    plate = QuartzPlate(thickness_mm=8.0)
    tau = plate_delay_fs(plate)
    # numeric oracle for the delay: dn * d / c
    assert tau == pytest.approx(0.00776 * 8.0 / 2.99792458e-4, rel=1e-12)
    assert 206.0 < tau < 208.0
    gamma = plate_gamma(plate)
    assert gamma == pytest.approx(1.0 - np.exp(-((tau / 54.0) ** 2)), abs=1e-15)
    assert gamma > 0.999


def test_plate_gamma_zero_thickness():
    assert plate_gamma(QuartzPlate(thickness_mm=0.0)) == 0.0


def test_plate_gamma_partial_plate():
    plate = QuartzPlate(thickness_mm=1.0)
    tau = plate_delay_fs(plate)
    expected_gamma = 1.0 - np.exp(-((tau / 54.0) ** 2))
    gamma = plate_gamma(plate)
    assert gamma == pytest.approx(expected_gamma, abs=1e-15)
    assert gamma == pytest.approx(0.205, abs=0.002)
    # entanglement left in the partially decohered pair
    from qkdlab.tomography import state_metrics
    remaining = state_metrics(dephase_bob(bell_phi_plus(), plate.axis_angle_deg, gamma)).tangle
    assert remaining == pytest.approx((1.0 - gamma) ** 2, abs=1e-9)
    assert 0.5 < remaining < 0.85


def test_composed_dephasing_loses_nonlocality(rng):
    from qkdlab.tomography import chsh
    s = dephase_bob(dephase_bob(bell_phi_plus(), 0.0, 1.0), 45.0, 1.0)
    for _ in range(20):
        angles = rng.uniform(0, 180, size=4)
        assert abs(chsh(s, *angles)) <= 2.0 + 1e-9


def test_eve_config_validation():
    with pytest.raises(ValueError):
        EveConfig(mode="nope")
    with pytest.raises(ValueError):
        EveConfig(mode="dephasing", strength=1.5)
    with pytest.raises(ValueError):
        EveConfig(mode="intercept_resend", basis_angle=30.0)
    with pytest.raises(ValueError, match="basis policy"):
        EveConfig(basis_policy="per_block")
    for fraction in (-0.1, 1.1):
        with pytest.raises(ValueError, match="intercept_fraction"):
            EveConfig(mode="dephasing", intercept_fraction=fraction)
    assert basis_from_angle(45.0) == MeasBasis.DA
    assert basis_from_angle(90.0) == MeasBasis.HV
    assert basis_from_angle(30.0) is None


HV, DA = MeasBasis.HV, MeasBasis.DA


@pytest.mark.parametrize("eve, weights, channels, bases", [
    (EveConfig(), [1.0], [], [None]),
    (EveConfig(mode="dephasing", basis_angle=135.0, strength=0.3, intercept_fraction=0.4),
     [0.6, 0.4], [(135.0, 0.3)], [None, DA]),
    (EveConfig(mode="dephasing", basis_angle=22.5, strength=0.7), [0.0, 1.0], [(22.5, 0.7)],
     [None, None]),
    (EveConfig(mode="dephasing", basis_angle=90.0), [0.0, 1.0], [(90.0, 1.0)], [None, HV]),
    (EveConfig(mode="intercept_resend", basis_angle=45.0), [0.0, 1.0], [(45.0, 1.0)],
     [None, DA]),
    (EveConfig(mode="intercept_resend", basis_angle=45.0, strength=0.2,
               basis_policy="random_per_trial", intercept_fraction=0.5),
     [0.5, 0.25, 0.25], [(0.0, 1.0), (45.0, 1.0)], [None, HV, DA]),
    (EveConfig(mode="dephasing", basis_angle=30.0, strength=0.7,
               basis_policy="random_per_trial"),
     [0.0, 0.5, 0.5], [(0.0, 0.7), (45.0, 0.7)], [None, HV, DA]),
])
def test_eve_scenarios(rng, eve, weights, channels, bases):
    s = TwoQubitState(random_density(rng))
    got_weights, states, got_bases = eve_scenarios(s, eve)
    assert_close(got_weights, weights, tol=1e-15)
    assert got_bases == bases
    assert states[0] is s
    assert len(states) == 1 + len(channels)
    for state, (angle, gamma) in zip(states[1:], channels):
        assert_close(state.rho, dephase_bob(s, angle, gamma).rho, tol=1e-15)


def test_quartz_plate_validation_rejects_nan():
    with pytest.raises(ValueError, match="thickness"):
        QuartzPlate(thickness_mm=float("nan"))
    with pytest.raises(ValueError, match="coherence"):
        QuartzPlate(thickness_mm=1.0, coherence_time_fs=float("nan"))


def test_state_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        TwoQubitState(np.eye(4, dtype=complex))  # trace 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        TwoQubitState(bad)
    with pytest.raises(ValueError, match="4x4"):
        TwoQubitState(np.eye(2, dtype=complex) / 2.0)
    for value in (-0.1, 1.1):
        with pytest.raises(ValueError, match="noise fraction"):
            add_white_noise(bell_phi_plus(), value)
        with pytest.raises(ValueError, match="gamma"):
            dephase_bob(bell_phi_plus(), 0.0, value)
