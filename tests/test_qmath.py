import numpy as np
import pytest

from qkdlab import qmath
from qkdlab.states import bell_phi_plus, bell_phi_plus_ket

from conftest import assert_close, random_density, random_hermitian

I2 = np.eye(2, dtype=complex)
P_H = np.array([[1, 0], [0, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# diag(1, -1, -1, 1): sigma_z on each photon, written out by hand
ZZ_BY_HAND = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


def test_tensor_identity():
    assert_close(qmath.tensor(I2, I2), np.eye(4))


def test_tensor_projector_corner():
    m = qmath.tensor(P_H, P_H)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert_close(m, expected)


def test_tensor_zz_fixes_entangled_ket():
    # hand-built diagonal operator applied with a plain matrix multiply
    psi = bell_phi_plus_ket()
    assert_close(ZZ_BY_HAND @ psi, psi, tol=1e-12)
    assert_close(qmath.tensor(SIGMA_Z, SIGMA_Z), ZZ_BY_HAND, tol=1e-12)


def test_tensor_index_layout(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    t = qmath.tensor(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert t[2 * i + k, 2 * j + l] == pytest.approx(a[i, j] * b[k, l])


def test_tensor_trace_multiplicative(rng):
    for _ in range(1000):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        t = qmath.tensor(a, b)
        assert np.trace(t) == pytest.approx(np.trace(a) * np.trace(b), abs=1e-10)


def test_tensor_bilinear(rng):
    for _ in range(100):
        a, b, c = (random_hermitian(rng, 2) for _ in range(3))
        x = rng.normal()
        assert_close(qmath.tensor(a + x * b, c),
                     qmath.tensor(a, c) + x * qmath.tensor(b, c), tol=1e-12)


def _trace_out_first_by_hand(rho):
    out = np.zeros((2, 2), dtype=complex)
    for b in range(2):
        for d in range(2):
            out[b, d] = sum(rho[2 * a + b, 2 * a + d] for a in range(2))
    return out


def _trace_out_second_by_hand(rho):
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for c in range(2):
            out[a, c] = sum(rho[2 * a + b, 2 * c + b] for b in range(2))
    return out


def test_partial_trace_bell_both_halves():
    rho = bell_phi_plus().rho
    assert_close(_trace_out_second_by_hand(rho), I2 / 2, tol=1e-12)
    assert_close(qmath.partial_trace(rho, 2), I2 / 2)
    assert_close(qmath.partial_trace(rho, 1), I2 / 2)


def test_partial_trace_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # both photons horizontal
    assert_close(qmath.partial_trace(rho, 1), P_H)


def test_partial_trace_hv_mixture():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert_close(qmath.partial_trace(rho, 2), I2 / 2)


def test_partial_trace_matches_hand_oracle(rng):
    for _ in range(50):
        rho = random_density(rng)
        assert_close(qmath.partial_trace(rho, 1), _trace_out_first_by_hand(rho), tol=1e-12)
        assert_close(qmath.partial_trace(rho, 2), _trace_out_second_by_hand(rho), tol=1e-12)
        assert np.trace(qmath.partial_trace(rho, 2)).real == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_tensor_property(rng):
    for _ in range(50):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        assert_close(qmath.partial_trace(qmath.tensor(a, b), 2, check=False),
                     a * np.trace(b), tol=1e-10)


def test_partial_trace_rejects_non_density():
    with pytest.raises(ValueError):
        qmath.partial_trace(np.eye(4, dtype=complex), 2)  # trace 4


def test_herm_eig_known_spectra():
    w, _ = qmath.herm_eig(bell_phi_plus().rho)
    assert_close(w, [1.0, 0.0, 0.0, 0.0], tol=1e-12)
    w, _ = qmath.herm_eig(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
    assert_close(w, [0.5, 0.5, 0.0, 0.0], tol=1e-12)
    w, _ = qmath.herm_eig(np.eye(4, dtype=complex) / 4)
    assert_close(w, [0.25] * 4, tol=1e-12)


def test_herm_eig_reconstruction(rng):
    for _ in range(50):
        m = random_hermitian(rng)
        w, v = qmath.herm_eig(m)
        assert np.all(np.diff(w) <= 1e-12)  # descending
        assert np.max(np.abs(m - (v * w) @ v.conj().T)) < 1e-8


def test_herm_eig_density_spectra(rng):
    for _ in range(50):
        w, _ = qmath.herm_eig(random_density(rng))
        assert np.all(w >= -1e-8)
        assert np.all(w <= 1 + 1e-8)
        assert w.sum() == pytest.approx(1.0, abs=1e-8)


def test_herm_eig_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        qmath.herm_eig(m)


def test_nearest_physical_keeps_physical():
    rho = bell_phi_plus().rho
    assert_close(qmath.nearest_physical(rho), rho)


def test_nearest_physical_clip_rule():
    m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    expected = np.diag([0.6, 0.5, 0.0, 0.0]).astype(complex) / 1.1
    assert_close(qmath.nearest_physical(m), expected)


def test_nearest_physical_all_negative_errors():
    bad = np.diag([-1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="unphysical"):
        qmath.nearest_physical(bad)
    with pytest.raises(ValueError, match="unphysical"):  # one bad matrix in a stack
        qmath.nearest_physical(np.stack([bell_phi_plus().rho, bad]))


def test_nearest_physical_idempotent(rng):
    for _ in range(25):
        m = random_hermitian(rng)
        m = m / np.trace(m).real
        once = qmath.nearest_physical(m)
        assert_close(qmath.nearest_physical(once), once)


def test_matrix_json_roundtrip(rng):
    m = random_density(rng)
    data = qmath.mat_to_json(m)
    assert isinstance(data[0][0], list) and len(data[0][0]) == 2
    assert_close(qmath.mat_from_json(data), m, tol=1e-15)
