"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion; every tolerance is pinned here.
"""

import json
import os
import time

import numpy as np
import pytest

from qkdlab import otp
from qkdlab.cli import main
from qkdlab.detection import BASES, DetectorConfig, expected_rates, simulate_dwell_stream
from qkdlab.optics import MeasBasis
from qkdlab.protocol import SessionConfig, run_session
from qkdlab.states import (EveConfig, QuartzPlate, add_white_noise, bell_phi_plus,
                           dephase_bob, plate_gamma)
from qkdlab.tomography import (CHSH_CANONICAL_ANGLES, chsh, expected_probs, run_tomography,
                               simulate_counts, state_metrics)

from conftest import (binomial_sigma, intercept_branches, kron_outcome_probs,
                      session_with_trials)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

BELL_MATRIX = np.array([
    [0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]
], dtype=complex)
HV_MIXTURE_MATRIX = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)


def _ideal_session(seed=7, n=10000):
    return SessionConfig(seed=seed, n_intervals=n, source_noise=0.0,
                         detector=DetectorConfig(dwell=0.1, pair_rate=10.0,
                                                 dark_rate=0.0))


def _qber(transcript):
    return (transcript.n_sifted - transcript.n_agree) / transcript.n_sifted


def test_criterion_1_ideal_session_perfect_agreement():
    start = time.perf_counter()
    t = run_session(_ideal_session())
    elapsed = time.perf_counter() - start
    assert t.n_agree == t.n_sifted
    assert elapsed < 5.0
    print(f"criterion 1: PASS - agreement 100% over "
          f"{t.n_sifted} sifted bits in {elapsed:.2f} s")


def test_criterion_2_imperfect_source_brackets_measured_run():
    cfg = SessionConfig(seed=11, n_intervals=10000, source_noise=0.04,
                        detector=DetectorConfig(dwell=0.1, pair_rate=10.0,
                                                dark_rate=0.9))
    t = run_session(cfg)
    agreement = t.n_agree / t.n_sifted
    assert 0.88 <= agreement <= 0.98
    print(f"criterion 2: PASS - sifted agreement {agreement:.4f} in [0.88, 0.98]")


def test_criterion_3_intercept_resend_error_rates():
    eve = EveConfig(mode="intercept_resend", basis_policy="random_per_trial")
    t = run_session(SessionConfig(seed=17, n_intervals=24000, source_noise=0.0,
                                  detector=DetectorConfig(dark_rate=0.0),
                                  eve=eve))
    n = t.n_sifted
    assert n >= 4000
    qber = _qber(t)
    assert abs(qber - 0.25) <= 4 * binomial_sigma(0.25, n)

    # fixed wrong basis: Eve pinned to DA, condition on HV-sifted trials
    eve_fixed = EveConfig(mode="intercept_resend", basis_angle=45.0,
                          basis_policy="fixed")
    _, trials = session_with_trials(SessionConfig(
        seed=18, n_intervals=24000, source_noise=0.0,
        detector=DetectorConfig(dark_rate=0.0), eve=eve_fixed))
    hv_sifted = trials.sifted() & (trials.alice_basis == BASES.index(MeasBasis.HV))
    errs = (trials.alice_bit != trials.bob_bit)[hv_sifted]
    rate = float(np.mean(errs))
    assert abs(rate - 0.5) <= 4 * binomial_sigma(0.5, len(errs))
    print(f"criterion 3: PASS - random-basis QBER {qber:.4f} ~ 0.25 "
          f"({n} bits); fixed-wrong-basis conditional {rate:.4f} ~ 0.50 "
          f"({len(errs)} bits)")


def test_criterion_4_half_interception():
    eve = EveConfig(mode="intercept_resend", basis_policy="random_per_trial",
                    intercept_fraction=0.5)
    t = run_session(SessionConfig(seed=19, n_intervals=30000, source_noise=0.0,
                                  detector=DetectorConfig(dark_rate=0.0),
                                  eve=eve))
    n = t.n_sifted
    qber = _qber(t)
    assert abs(qber - 0.125) <= 4 * binomial_sigma(0.125, n)
    print(f"criterion 4: PASS - half-interception QBER {qber:.4f} ~ 0.125 "
          f"({n} bits)")


def test_criterion_5_tomography_round_trip_and_finite_stats():
    # exact expected counts: entangled source
    rho_hat = run_tomography(1e6 * expected_probs(bell_phi_plus()), replicas=2, seed=5).rho_hat
    frob = np.linalg.norm(rho_hat.rho - BELL_MATRIX)
    assert frob < 1e-8
    m = state_metrics(rho_hat)
    metrics = (m.tangle, m.von_neumann, m.linear_entropy, m.fidelity)
    assert metrics == pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-6)

    # exact expected counts: full Eve along HV
    mixture = dephase_bob(bell_phi_plus(), 0.0, 1.0)
    rho_hat2 = run_tomography(1e6 * expected_probs(mixture), replicas=2, seed=5).rho_hat
    assert np.linalg.norm(rho_hat2.rho - HV_MIXTURE_MATRIX) < 1e-8
    m2 = state_metrics(rho_hat2)
    metrics2 = (m2.tangle, m2.von_neumann, m2.linear_entropy, m2.fidelity)
    assert metrics2 == pytest.approx((0.0, 1.0, 2.0 / 3.0, 0.5), abs=1e-6)

    # finite statistics with an imperfect source
    rng = np.random.default_rng(21)
    noisy = add_white_noise(bell_phi_plus(), 0.04)
    counts = simulate_counts(noisy, 1e4, rng)
    m_fin = run_tomography(counts, replicas=2, seed=21).metrics
    t_fin, f_fin = m_fin.tangle, m_fin.fidelity
    assert 0.85 <= t_fin <= 1.0
    assert 0.93 <= f_fin <= 1.0
    print(f"criterion 5: PASS - exact round trips (Frobenius {frob:.2e}); "
          f"finite-stats tangle {t_fin:.3f}, fidelity {f_fin:.3f}")


def test_criterion_6_partial_eve_plate():
    plate = QuartzPlate(thickness_mm=1.0)  # the partial-Eve preset plate
    gamma = plate_gamma(plate)
    dephased = dephase_bob(bell_phi_plus(), plate.axis_angle_deg, gamma)
    assert state_metrics(dephased).tangle == pytest.approx((1.0 - gamma) ** 2, abs=1e-9)

    rng = np.random.default_rng(27)
    noisy = dephase_bob(add_white_noise(bell_phi_plus(), 0.04),
                        plate.axis_angle_deg, gamma)
    m_hat = run_tomography(simulate_counts(noisy, 1e4, rng), replicas=2, seed=27).metrics
    t_hat, s_hat = m_hat.tangle, m_hat.von_neumann
    assert 0.5 <= t_hat <= 0.85
    assert 0.2 <= s_hat <= 0.7
    print(f"criterion 6: PASS - gamma {gamma:.4f}, exact tangle "
          f"{(1 - gamma) ** 2:.4f}, reconstructed tangle {t_hat:.3f}, "
          f"entropy {s_hat:.3f}")


def test_criterion_7_chsh():
    s_value = chsh(bell_phi_plus(), *CHSH_CANONICAL_ANGLES)
    assert s_value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-6)
    rng = np.random.default_rng(77)
    worst = 0.0
    for angle in (0.0, 45.0):
        dephased = dephase_bob(add_white_noise(bell_phi_plus(), 0.04), angle, 1.0)
        for _ in range(100):
            quad = rng.uniform(0.0, 180.0, size=4)
            worst = max(worst, abs(chsh(dephased, *quad)))
    assert worst <= 2.0 + 1e-9
    print(f"criterion 7: PASS - S {s_value:.6f} = 2*sqrt(2); dephased max |S| "
          f"{worst:.4f} <= 2")


def test_criterion_8_channel_equivalence():
    # the sampler against Eve's projective measurement, branch by branch
    rng = np.random.default_rng(88)
    bell = bell_phi_plus()
    detector = DetectorConfig(dark_rate=0.0)
    hv = BASES.index(MeasBasis.HV)
    for basis, angle in ((MeasBasis.HV, 0.0), (MeasBasis.DA, 45.0)):
        eve = EveConfig(mode="intercept_resend", basis_angle=angle, basis_policy="fixed")
        trials = simulate_dwell_stream(expected_rates(bell, detector, eve), 1_200_000, rng)
        assert (trials.eve_basis == BASES.index(basis)).all()
        kept_hv = (trials.alice_bit >= 0) & (trials.alice_basis == hv) & (trials.bob_basis == hv)
        a_bits, b_bits = trials.alice_bit[kept_hv], trials.bob_bit[kept_hv]
        n = len(a_bits)
        assert n >= 100000
        counts = np.bincount((1 - a_bits) * 2 + (1 - b_bits), minlength=4)
        analytic = sum(p * kron_outcome_probs(post.rho, MeasBasis.HV, MeasBasis.HV)
                       for p, post in intercept_branches(bell, basis) if post is not None)
        for cell, p in zip(counts / n, analytic):
            assert abs(cell - p) <= 4 * binomial_sigma(max(p, 1e-12), n) + 1e-9
    print(f"criterion 8: PASS - >= 100000 sampled HV/HV trials per Eve basis "
          f"match her branch-summed projective measurement cellwise")


def test_criterion_9_end_to_end_key_and_one_time_pad():
    t = run_session(_ideal_session(seed=7, n=10000))
    qber = _qber(t)
    assert qber <= 0.03
    assert len(t.final_key) >= 1000
    message = otp.text_to_bits("entangled photons hand out fresh pad bits: " + "x" * 21)
    assert len(message) == 64 * 8
    assert len(message) <= len(t.final_key)
    cipher = otp.encrypt(message, t.final_key)
    recovered = otp.decrypt(cipher, t.final_key)
    assert recovered.tolist() == message.tolist()
    assert np.packbits(recovered).tobytes().decode("utf-8").startswith("entangled photons")
    print(f"criterion 9: PASS - QBER {qber:.4f}, final key {len(t.final_key)} "
          f"bits, 64-byte pad round trip exact")


def test_criterion_10_preset_determinism(tmp_path):
    presets = sorted(os.listdir(CONFIG_DIR))
    assert len(presets) >= 4
    checked = 0
    for name in presets:
        with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
            kind = json.load(fh)["kind"]
        outputs = []
        for run in ("a", "b"):
            out_dir = tmp_path / f"{name}-{run}"
            code = main([kind, "--config", os.path.join(CONFIG_DIR, name),
                         "--out", str(out_dir)])
            assert code in (0, 2), f"{name} exited {code}"
            tree = {}
            for fname in sorted(os.listdir(out_dir)):
                with open(out_dir / fname, "rb") as fh:
                    tree[fname] = fh.read()
            outputs.append(tree)
        assert outputs[0].keys() == outputs[1].keys()
        assert outputs[0] == outputs[1], f"{name} is not byte-deterministic"
        checked += 1
    print(f"criterion 10: PASS - {checked} presets byte-identical across reruns")
