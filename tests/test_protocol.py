import math

import numpy as np
import pytest

from qkdlab.detection import DetectorConfig, Trials
from qkdlab.optics import MeasBasis
from qkdlab.protocol import (SessionConfig, decide, estimate_qber, h2,
                             privacy_amplify, reconcile, run_session, sift,
                             transcript_summary)
from qkdlab.states import EveConfig
from qkdlab import otp

from conftest import binomial_sigma


HV, DA = 0, 1  # indices into qkdlab.detection.BASES


def _trials(rows):
    """Trials from (alice_basis, bob_basis, alice_bit, bob_bit, kept) rows;
    a bit of -1 means "no bit"."""
    a_basis, b_basis, a_bit, b_bit, kept = (np.array(col, dtype=np.int8)
                                            for col in zip(*rows))
    n = len(rows)
    return Trials(alice_basis=a_basis, bob_basis=b_basis,
                  eve_applied=np.zeros(n, dtype=bool),
                  eve_basis=np.full(n, -1, dtype=np.int8),
                  alice_bit=a_bit, bob_bit=b_bit, kept=kept.astype(bool))


def test_sift_keeps_agreeing_same_basis_sample():
    # ten same-basis trials, the published sample run: all agree
    bits = [0, 0, 0, 1, 1, 0, 1, 0, 0, 0]
    alice, bob = sift(_trials([(HV, HV, b, b, True) for b in bits]))
    assert alice.tolist() == bits
    assert bob.tolist() == bits
    assert int(np.sum(alice != bob)) == 0


def test_sift_all_cross_basis_empty():
    alice, bob = sift(_trials([(HV, DA, 1, 0, True)] * 10))
    assert len(alice) == 0 and len(bob) == 0


def test_sift_mixed_list_keeps_order():
    trials = _trials([
        (HV, HV, 1, 1, True),
        (HV, DA, 0, 0, True),
        (DA, DA, 0, 1, True),
        (DA, HV, 1, 1, True),
        (HV, HV, 0, 0, True),
        (DA, HV, 1, 0, True),
    ])
    alice, bob = sift(trials)
    assert alice.tolist() == [1, 0, 0]  # trials 0, 2, 4 in order
    assert bob.tolist() == [1, 1, 0]


def test_sift_ignores_discarded_trials():
    alice, _ = sift(_trials([(HV, HV, -1, -1, False), (HV, HV, 1, 1, True)]))
    assert alice.tolist() == [1]


def test_estimate_qber_identical(rng):
    alice = np.ones(100, dtype=np.uint8)
    qber, rem_a, rem_b, disclosed = estimate_qber(alice, alice.copy(), 0.2, rng)
    assert qber == 0.0
    assert len(rem_a) == len(rem_b) == 80
    assert len(disclosed) == 20


def test_estimate_qber_all_mismatched(rng):
    alice = np.zeros(50, dtype=np.uint8)
    bob = np.ones(50, dtype=np.uint8)
    qber, *_ = estimate_qber(alice, bob, 0.5, rng)
    assert qber == 1.0


def test_estimate_qber_planted_errors(rng):
    n = 1000
    alice = rng.integers(0, 2, n).astype(np.uint8)
    bob = alice.copy()
    flipped = rng.choice(n, 250, replace=False)
    bob[flipped] ^= 1
    qber, rem_a, rem_b, _ = estimate_qber(alice, bob, 1.0, rng)
    assert qber == pytest.approx(0.25, abs=1e-12)
    assert len(rem_a) == 0 and len(rem_b) == 0


def test_estimate_qber_removes_disclosed_positions(rng):
    alice = np.arange(100, dtype=np.uint8) % 2
    bob = alice.copy()
    _, rem_a, _, disclosed = estimate_qber(alice, bob, 0.3, rng)
    keep = np.ones(100, dtype=bool)
    keep[disclosed] = False
    assert rem_a.tolist() == alice[keep].tolist()


def test_estimate_qber_empty_rejected(rng):
    with pytest.raises(ValueError):
        estimate_qber(np.zeros(0, np.uint8), np.zeros(0, np.uint8), 0.2, rng)


def test_decide_thresholds():
    assert decide(0.08, 0.11) == "proceed"
    assert decide(0.25, 0.11) == "abort"
    assert decide(0.11, 0.11) == "proceed"  # boundary is inclusive


def test_h2_properties():
    assert h2(0.0) == 0.0 and h2(1.0) == 0.0
    assert h2(0.5) == pytest.approx(1.0, abs=1e-12)
    for x in (0.1, 0.25, 0.4):
        assert h2(x) == pytest.approx(h2(1.0 - x), abs=1e-12)


def test_reconcile_identical_strings_leak_is_block_parities_only(rng):
    alice = rng.integers(0, 2, 64).astype(np.uint8)
    corrected, leak = reconcile(alice, alice.copy(), 4, qber_est=0.05,
                                rng=np.random.default_rng(0))
    assert corrected.tolist() == alice.tolist()
    # first-pass block size ceil(0.73/0.05) = 15, doubling each pass;
    # expected disclosures = number of blocks per pass, nothing else
    expected_leak = 0
    for p in range(4):
        k = min(64, 15 * 2 ** p)
        expected_leak += math.ceil(64 / k)
    assert leak == expected_leak


def test_reconcile_single_error_bisection_count():
    alice = np.zeros(16, dtype=np.uint8)
    bob = alice.copy()
    bob[11] = 1
    corrected, leak = reconcile(alice, bob, 1, qber_est=0.01,
                                rng=np.random.default_rng(1))
    assert corrected.tolist() == alice.tolist()
    # one block parity + ceil(log2 16) bisection parities
    assert leak == 1 + 4


def test_reconcile_seeded_case_corrects_everything():
    rng = np.random.default_rng(7)
    alice = rng.integers(0, 2, 256).astype(np.uint8)
    bob = alice.copy()
    bob[rng.choice(256, 8, replace=False)] ^= 1
    corrected, leak = reconcile(alice, bob, 4, qber_est=8 / 256, rng=rng)
    assert corrected.tolist() == alice.tolist()
    assert leak > 0


@pytest.mark.parametrize("n,qber", [(256, 0.11), (512, 0.11), (1472, 0.03)])
def test_reconcile_success_rate_contract(n, qber):
    # >= 99% success, measured over seeded trials; the 4-sigma binomial
    # floor for p = 0.99 over 200 trials is 193
    trials, ok = 200, 0
    n_err = round(qber * n)
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        alice = rng.integers(0, 2, n).astype(np.uint8)
        bob = alice.copy()
        bob[rng.choice(n, n_err, replace=False)] ^= 1
        corrected, _ = reconcile(alice, bob, 4, qber_est=qber, rng=rng)
        ok += int(np.array_equal(corrected, alice))
    floor = math.floor(0.99 * trials - 4 * math.sqrt(trials * 0.99 * 0.01))
    assert ok >= floor, f"success {ok}/{trials}"


def test_reconcile_length_mismatch_rejected():
    with pytest.raises(ValueError):
        reconcile(np.zeros(8, np.uint8), np.zeros(9, np.uint8), 4,
                  qber_est=0.05, rng=np.random.default_rng(0))


def test_privacy_amplify_golden_vector():
    key = np.random.default_rng(42).integers(0, 2, size=128, dtype=np.uint8)
    out = privacy_amplify(key, qber=0.0, leaked_bits=0, safety=0, rng_seed=0)
    assert len(out) == 128
    # independent oracle: explicit double-loop Toeplitz multiply over GF(2)
    n = m = 128
    seed_bits = np.random.default_rng(0).integers(0, 2, size=n + m - 1, dtype=np.uint8)
    expected = []
    for i in range(m):
        acc = 0
        for j in range(n):
            acc ^= int(seed_bits[i - j + n - 1]) & int(key[j])
        expected.append(acc)
    assert out.tolist() == expected
    # frozen golden value guards the seeded bit stream itself
    assert otp.bits_to_hex(out) == "a5eaa561600f8bef0aec0db256a6d331"


def test_privacy_amplify_clamps_to_empty():
    key = np.ones(64, dtype=np.uint8)
    assert len(privacy_amplify(key, 0.0, leaked_bits=64, safety=0, rng_seed=1)) == 0
    assert len(privacy_amplify(key, 0.5, leaked_bits=0, safety=0, rng_seed=1)) == 0


def test_privacy_amplify_deterministic():
    key = np.random.default_rng(3).integers(0, 2, 200, dtype=np.uint8)
    a = privacy_amplify(key, 0.02, 40, 10, rng_seed=99)
    b = privacy_amplify(key, 0.02, 40, 10, rng_seed=99)
    assert a.tolist() == b.tolist()
    c = privacy_amplify(key, 0.02, 40, 10, rng_seed=100)
    assert a.tolist() != c.tolist()


def _session(seed, n=8000, noise=0.0, dark=0.0, eve=None, threshold=0.11):
    return SessionConfig(seed=seed, n_intervals=n, source_noise=noise,
                         detector=DetectorConfig(dwell=0.1, pair_rate=10.0,
                                                 dark_rate=dark),
                         eve=eve or EveConfig(), abort_threshold=threshold)


def test_run_session_ideal_full_agreement():
    t = run_session(_session(seed=5, n=10000))
    assert len(t.sifted_alice) > 0
    assert np.array_equal(t.sifted_alice, t.sifted_bob)
    assert not t.aborted
    assert len(t.final_key) > 0


def test_run_session_fixed_diagonal_eve_quarter_errors():
    eve = EveConfig(mode="dephasing", basis_angle=45.0, strength=1.0)
    t = run_session(_session(seed=6, n=10000, eve=eve))
    n = len(t.sifted_alice)
    qber = float(np.mean(t.sifted_alice != t.sifted_bob))
    assert abs(qber - 0.25) < 4 * binomial_sigma(0.25, n)


def test_run_session_half_interception_eighth_errors():
    eve = EveConfig(mode="intercept_resend", basis_policy="random_per_trial",
                    intercept_fraction=0.5)
    t = run_session(_session(seed=8, n=30000, eve=eve, threshold=0.2))
    n = len(t.sifted_alice)
    assert n > 4000
    qber = float(np.mean(t.sifted_alice != t.sifted_bob))
    assert abs(qber - 0.125) < 4 * binomial_sigma(0.125, n)


def test_run_session_case_conditional_errors():
    # full Eve fixed in HV: matching-basis trials are error-free, the
    # wrong-basis trials err half the time
    eve = EveConfig(mode="dephasing", basis_angle=0.0, strength=1.0)
    t = run_session(_session(seed=9, n=20000, eve=eve, threshold=0.3))
    trials = t.trials
    errors = trials.alice_bit != trials.bob_bit
    sifted = trials.sifted()
    same_basis_err = errors[sifted & (trials.alice_basis == HV)]
    cross = errors[sifted & (trials.alice_basis == DA)]
    assert sum(same_basis_err) == 0
    rate = np.mean(cross)
    assert abs(rate - 0.5) < 4 * binomial_sigma(0.5, len(cross))


def test_run_session_abort_gives_empty_keys():
    eve = EveConfig(mode="intercept_resend", basis_policy="random_per_trial")
    for seed in (21, 22):
        t = run_session(_session(seed=seed, n=6000, eve=eve))
        assert t.aborted
        assert len(t.final_key) == 0
        assert t.qber_estimate > 0.11


def test_transcript_invariants():
    t = run_session(_session(seed=31, n=5000, noise=0.02, dark=0.5))
    assert len(t.sifted_alice) == len(t.sifted_bob)
    summary = transcript_summary(t)
    assert summary["n_sifted"] <= summary["n_kept"] <= summary["n_records"]
    if t.aborted:
        assert len(t.final_key) == 0


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(seed=1, abort_threshold=0.6)
    with pytest.raises(ValueError):
        SessionConfig(seed=1, qber_sample_fraction=0.0)
    with pytest.raises(ValueError):
        SessionConfig(seed=1, source_noise=1.5)
