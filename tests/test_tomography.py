import numpy as np
import pytest

from qkdlab.optics import PolState
from qkdlab.states import TwoQubitState, add_white_noise, bell_phi_plus, dephase_bob
from qkdlab.tomography import (_BLOCK, CHSH_CANONICAL_ANGLES, TOMO_SCHEDULE,
                               ReconstructionError, _replica_metrics,
                               bootstrap_metrics, chsh,
                               correlator, expected_probs, fidelity,
                               linear_entropy, reconstruct, run_tomography,
                               simulate_counts, state_metrics, tangle,
                               von_neumann)

from conftest import assert_close, random_density

HV_MIXTURE = TwoQubitState(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
MAXIMALLY_MIXED = TwoQubitState(np.eye(4, dtype=complex) / 4.0)


def test_schedule_is_pinned():
    names = ["".join((a.value, b.value)) for a, b in TOMO_SCHEDULE]
    assert names == ["HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
                     "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL"]


def _setting_index(name):
    return ["".join((a.value, b.value)) for a, b in TOMO_SCHEDULE].index(name)


def test_simulate_counts_means(rng):
    n = 100000
    counts = simulate_counts(bell_phi_plus(), n, rng)
    hh = counts[_setting_index("HH")]
    assert abs(hh - n / 2) < 4 * np.sqrt(n / 2)       # Poisson sigma
    assert counts[_setting_index("HV")] == 0           # zero mean, always zero
    counts2 = simulate_counts(HV_MIXTURE, n, rng)
    dd = counts2[_setting_index("DD")]
    assert abs(dd - n / 4) < 4 * np.sqrt(n / 4)


def test_simulate_counts_rejects_bad_flux(rng):
    with pytest.raises(ValueError):
        simulate_counts(bell_phi_plus(), 0.0, rng)


def _exact_counts(state, n=1e6):
    return n * expected_probs(state)


def test_reconstruct_exact_bell():
    rho_hat = reconstruct(_exact_counts(bell_phi_plus()))
    assert np.linalg.norm(rho_hat.rho - bell_phi_plus().rho) < 1e-8
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        assert rho_hat.rho[i, j].real == pytest.approx(0.5, abs=1e-9)


def test_reconstruct_exact_mixture():
    rho_hat = reconstruct(_exact_counts(HV_MIXTURE))
    assert np.linalg.norm(rho_hat.rho - HV_MIXTURE.rho) < 1e-8


def test_reconstruct_exact_maximally_mixed():
    rho_hat = reconstruct(_exact_counts(MAXIMALLY_MIXED))
    assert np.linalg.norm(rho_hat.rho - MAXIMALLY_MIXED.rho) < 1e-8


def test_reconstruct_roundtrip_random_states(rng):
    for _ in range(50):
        s = TwoQubitState(random_density(rng))
        rho_hat = reconstruct(_exact_counts(s))
        assert np.linalg.norm(rho_hat.rho - s.rho) < 1e-8


def test_reconstruct_input_validation():
    with pytest.raises(ReconstructionError):
        reconstruct(np.ones(15))
    with pytest.raises(ReconstructionError):
        reconstruct(np.zeros(16))  # no flux
    with pytest.raises(ReconstructionError):
        reconstruct(-np.ones(16))
    for bad in (np.nan, np.inf):
        counts = np.ones(16)
        counts[5] = bad
        with pytest.raises(ReconstructionError, match="finite"):
            reconstruct(counts)


def test_reconstruct_degenerate_counts_give_physical_state():
    counts = np.zeros(16)
    counts[0] = 5.0
    rho_hat = reconstruct(counts)
    evals = np.linalg.eigvalsh(rho_hat.rho)
    assert np.all(evals >= -1e-10)
    assert np.trace(rho_hat.rho).real == pytest.approx(1.0, abs=1e-10)


def test_metrics_bell():
    s = bell_phi_plus()
    assert tangle(s) == pytest.approx(1.0, abs=1e-9)
    assert von_neumann(s) == pytest.approx(0.0, abs=1e-9)
    assert linear_entropy(s) == pytest.approx(0.0, abs=1e-9)
    assert fidelity(s) == pytest.approx(1.0, abs=1e-9)


def test_metrics_hv_mixture():
    s = HV_MIXTURE
    assert tangle(s) == pytest.approx(0.0, abs=1e-9)
    assert von_neumann(s) == pytest.approx(1.0, abs=1e-9)
    assert linear_entropy(s) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert fidelity(s) == pytest.approx(0.5, abs=1e-9)


def test_linear_entropy_maximally_mixed():
    assert linear_entropy(MAXIMALLY_MIXED) == pytest.approx(1.0, abs=1e-12)


def test_tangle_closed_form_under_dephasing():
    # X-state oracle: concurrence = 2 max(0, |rho_03| - sqrt(rho_11 rho_22))
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        s = dephase_bob(bell_phi_plus(), 0.0, gamma)
        rho = s.rho
        oracle_c = 2.0 * max(0.0, abs(rho[0, 3]) - np.sqrt(rho[1, 1].real * rho[2, 2].real))
        assert tangle(s) == pytest.approx(oracle_c ** 2, abs=1e-12)
        assert tangle(s) == pytest.approx((1.0 - gamma) ** 2, abs=1e-9)
    assert tangle(dephase_bob(bell_phi_plus(), 0.0, 0.5)) == pytest.approx(0.25, abs=1e-9)


def test_entropies_monotone_in_dephasing_strength():
    gammas = [0.0, 0.25, 0.5, 0.75, 1.0]
    vn = [von_neumann(dephase_bob(bell_phi_plus(), 0.0, g)) for g in gammas]
    lin = [linear_entropy(dephase_bob(bell_phi_plus(), 0.0, g)) for g in gammas]
    assert all(b >= a - 1e-12 for a, b in zip(vn, vn[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(lin, lin[1:]))


def test_bootstrap_on_sharp_counts():
    metrics = bootstrap_metrics(_exact_counts(bell_phi_plus(), n=1e6),
                                replicas=100, seed=0)
    assert metrics.tangle >= 0.99
    assert metrics.tangle_sigma < 0.01
    assert metrics.fidelity >= 0.99


def test_bootstrap_sigma_grows_with_less_light():
    big = bootstrap_metrics(_exact_counts(bell_phi_plus(), n=1e6), replicas=100, seed=1)
    small = bootstrap_metrics(_exact_counts(bell_phi_plus(), n=1e4), replicas=100, seed=1)
    assert small.tangle_sigma > big.tangle_sigma
    assert small.von_neumann_sigma > big.von_neumann_sigma
    assert small.linear_entropy_sigma > big.linear_entropy_sigma
    assert small.fidelity_sigma > big.fidelity_sigma


def test_bootstrap_degenerate_counts_surface_clean_error():
    counts = np.zeros(16)
    counts[0] = 1.0  # replicas will resample an all-dark run eventually
    with pytest.raises(ReconstructionError):
        bootstrap_metrics(counts, replicas=100, seed=2)


def test_bootstrap_values_clamped():
    metrics = bootstrap_metrics(_exact_counts(HV_MIXTURE, n=200), replicas=50, seed=3)
    for value, top in ((metrics.tangle, 1.0), (metrics.von_neumann, 2.0),
                       (metrics.linear_entropy, 1.0), (metrics.fidelity, 1.0)):
        assert -1e-12 <= value <= top + 1e-12
    assert metrics.clamp_events >= 0


def test_bootstrap_entropy_spread_above_one_bit():
    # a fully dephased noisy pair has ~1.1 bits of entropy: clamping at 1 bit
    # would collapse the spread and count a clamp on nearly every replica
    for angle, seed in ((0.0, 23), (45.0, 25)):
        state = dephase_bob(add_white_noise(bell_phi_plus(), 0.04), angle, 1.0)
        counts = simulate_counts(state, 10000, np.random.default_rng(seed))
        run = run_tomography(counts, replicas=200, seed=seed)
        assert run.metrics.von_neumann > 1.0
        assert run.metrics.von_neumann_sigma > 0.01
        assert run.metrics.clamp_events == 0


def test_bootstrap_blocks_match_single_state_path():
    # replica k's metrics must not depend on the block it is stacked in
    counts = simulate_counts(add_white_noise(bell_phi_plus(), 0.04), 10000,
                             np.random.default_rng(7))
    replicas = 2 * _BLOCK + 3
    rows = _replica_metrics(counts.astype(float), replicas, seed=11)
    assert rows.shape == (replicas, 4)
    for k in (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, replicas - 1):
        rng = np.random.default_rng(np.random.SeedSequence([11, k]))
        rho = reconstruct(rng.poisson(counts))
        expected = (tangle(rho), von_neumann(rho), linear_entropy(rho), fidelity(rho))
        assert_close(rows[k], expected, tol=1e-9)


def test_bootstrap_needs_replicas():
    with pytest.raises(ValueError):
        bootstrap_metrics(_exact_counts(bell_phi_plus()), replicas=1)


def test_run_tomography_composition():
    run = run_tomography(_exact_counts(bell_phi_plus(), n=1e6), replicas=50, seed=4)
    assert run.total_estimate == pytest.approx(1e6, rel=1e-12)
    assert run.metrics.tangle == pytest.approx(1.0, abs=1e-6)
    assert run.metrics.tangle_sigma < 0.01


def test_chsh_bell_canonical_angles():
    # closed-form oracle: E(alpha, beta) = cos 2(alpha - beta)
    a, ap, b, bp = CHSH_CANONICAL_ANGLES
    oracle = lambda x, y: np.cos(np.deg2rad(2 * (x - y)))
    expected = oracle(a, b) - oracle(a, bp) + oracle(ap, b) + oracle(ap, bp)
    assert expected == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    assert chsh(bell_phi_plus(), a, ap, b, bp) == pytest.approx(expected, abs=1e-9)


def test_chsh_dephased_state():
    # oracle for the fully HV-dephased pair: E = cos 2a cos 2b
    a, ap, b, bp = CHSH_CANONICAL_ANGLES
    oracle = lambda x, y: np.cos(np.deg2rad(2 * x)) * np.cos(np.deg2rad(2 * y))
    s = dephase_bob(bell_phi_plus(), 0.0, 1.0)
    for x, y in ((a, b), (a, bp), (ap, b), (ap, bp)):
        assert correlator(s, x, y) == pytest.approx(oracle(x, y), abs=1e-9)
    expected = oracle(a, b) - oracle(a, bp) + oracle(ap, b) + oracle(ap, bp)
    assert expected == pytest.approx(np.sqrt(2), abs=1e-12)
    assert chsh(s, a, ap, b, bp) == pytest.approx(np.sqrt(2), abs=1e-9)


def test_chsh_product_state_bounded(rng):
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    product = TwoQubitState(rho)
    for _ in range(100):
        angles = rng.uniform(0, 180, size=4)
        assert abs(chsh(product, *angles)) <= 2.0 + 1e-9


def test_chsh_dephased_states_bounded(rng):
    for angle in (0.0, 45.0):
        s = dephase_bob(add_white_noise(bell_phi_plus(), 0.02), angle, 1.0)
        for _ in range(100):
            angles = rng.uniform(0, 180, size=4)
            assert abs(chsh(s, *angles)) <= 2.0 + 1e-9


def test_state_metrics_point_values():
    m = state_metrics(bell_phi_plus())
    assert (m.tangle, m.von_neumann, m.linear_entropy, m.fidelity) == \
        pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-9)
    assert m.tangle_sigma == 0.0
