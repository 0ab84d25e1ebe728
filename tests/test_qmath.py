import numpy as np
import pytest

from qkdlab import qmath
from qkdlab.cli import mat_to_json
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


def test_tensor_is_kron_bit_for_bit(rng):
    for _ in range(200):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.array_equal(qmath.tensor(a, b), np.kron(a, b))


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
    assert not qmath.is_density(m)
    # Hermitian and PSD, but trace 2
    assert not qmath.is_density(np.eye(4, dtype=complex) / 2.0)


def _project(m):
    """The SGS projection of ``m``: ``nearest_physical`` of its spectrum."""
    return qmath.nearest_physical(*qmath.physical_spectrum(m))


def test_nearest_physical_keeps_physical():
    rho = bell_phi_plus().rho
    assert_close(_project(rho), rho)


def test_nearest_physical_clip_rule():
    m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    expected = np.diag([0.55, 0.45, 0.0, 0.0]).astype(complex)
    assert_close(_project(m), expected)


def _sgs_reference(mu):
    """The Smolin-Gambetta-Smith loop as the paper states it, one spectrum
    at a time: mu descending with unit sum -> the physical eigenvalues."""
    lam, i, a = list(mu), len(mu), 0.0
    while mu[i - 1] + a / i < 0.0:
        lam[i - 1] = 0.0
        a += mu[i - 1]
        i -= 1
    return [m + a / i if j < i else 0.0 for j, m in enumerate(lam)]


def test_nearest_physical_matches_the_sgs_loop(rng):
    # [1.03, 0.12, 0.1, -0.25]: the walk stops at 0.1, although 0.12 would
    # fall below zero under the spread, so the survivors are 0.12 and above
    m = np.diag([1.03, 0.12, 0.1, -0.25]).astype(complex)
    expected = np.diag([1.03 - 0.25 / 3, 0.12 - 0.25 / 3, 0.1 - 0.25 / 3, 0.0])
    assert_close(_project(m), expected)
    # unit-trace matrices whose projection zeroes none to three eigenvalues
    shifts = rng.uniform(0.0, 0.2, size=200)
    stack = np.array([(random_density(rng) - s * np.eye(4)) / (1.0 - 4.0 * s)
                      for s in shifts])
    projected = _project(stack)
    for m, rho in zip(stack, projected):
        w, v = qmath.herm_eig(m)
        oracle = (v * _sgs_reference(w)) @ v.conj().T
        assert_close(rho, oracle, tol=1e-9)


def test_nearest_physical_all_negative_errors():
    bad = np.diag([-1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="unphysical"):
        _project(bad)
    with pytest.raises(ValueError, match="unphysical"):  # one bad matrix in a stack
        _project(np.stack([bell_phi_plus().rho, bad]))


def test_nearest_physical_idempotent(rng):
    for _ in range(25):
        m = random_hermitian(rng)
        m = m / np.trace(m).real
        once = _project(m)
        assert_close(_project(once), once)


def test_matrix_json_roundtrip(rng):
    m = random_density(rng)
    data = mat_to_json(m)
    assert isinstance(data[0][0], list) and len(data[0][0]) == 2
    assert data == [[[z.real, z.imag] for z in row] for row in m.tolist()]
    assert mat_to_json([[1, 0.5j], [-0.5j, 2.5]]) == [
        [[1.0, 0.0], [0.0, 0.5]], [[0.0, -0.5], [2.5, 0.0]]]
