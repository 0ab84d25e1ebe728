import ast
import copy
import hashlib
import io
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from qkdlab.cli import load_config, records_to_csv, transcript_summary
from qkdlab.detection import DetectorConfig, Trials, expected_rates, simulate_dwell_stream
from qkdlab.optics import MeasBasis
from qkdlab.pcg64 import PCG64
from qkdlab.protocol import (BLOCK_INTERVALS, CASCADE_PASSES, MAX_INTERVALS, TAG_BITS,
                             TILE_INTERVALS, SessionConfig, _toeplitz_hash, distil,
                             estimate_qber, h2, privacy_amplify, reconcile, run_session, sift)
from qkdlab.states import EveConfig, add_white_noise, bell_phi_plus
from qkdlab import otp, protocol

from conftest import binomial_sigma, session_with_trials


HV, DA = 0, 1  # indices into qkdlab.detection.BASES


def _trials(rows):
    """Trials from (alice_basis, bob_basis, alice_bit, bob_bit) rows;
    a bit of -1 means "no bit", a trial not kept."""
    a_basis, b_basis, a_bit, b_bit = (np.array(col, dtype=np.int8) for col in zip(*rows))
    n = len(rows)
    return Trials(alice_basis=a_basis, bob_basis=b_basis,
                  eve_basis=np.full(n, -1, dtype=np.int8),
                  alice_bit=a_bit, bob_bit=b_bit)


def test_sift_keeps_agreeing_same_basis_sample():
    # ten same-basis trials, the published sample run: all agree
    bits = [0, 0, 0, 1, 1, 0, 1, 0, 0, 0]
    alice, bob = sift(_trials([(HV, HV, b, b) for b in bits]))
    assert alice.tolist() == bits
    assert bob.tolist() == bits
    assert int(np.sum(alice != bob)) == 0


def test_sift_all_cross_basis_empty():
    alice, bob = sift(_trials([(HV, DA, 1, 0)] * 10))
    assert len(alice) == 0 and len(bob) == 0


def test_sift_mixed_list_keeps_order():
    trials = _trials([
        (HV, HV, 1, 1),
        (HV, DA, 0, 0),
        (DA, DA, 0, 1),
        (DA, HV, 1, 1),
        (HV, HV, 0, 0),
        (DA, HV, 1, 0),
    ])
    alice, bob = sift(trials)
    assert alice.tolist() == [1, 0, 0]  # trials 0, 2, 4 in order
    assert bob.tolist() == [1, 1, 0]


def test_sift_ignores_discarded_trials():
    alice, _ = sift(_trials([(HV, HV, -1, -1), (HV, HV, 1, 1)]))
    assert alice.tolist() == [1]


def test_sift_drops_rows_with_one_bit():
    # kept means both bits: Bob's -1 beside Alice's bit is no bit, not a 255
    trials = _trials([(HV, HV, 1, 1), (HV, HV, 0, -1), (HV, HV, 1, 1)])
    alice, bob = sift(trials)
    assert alice.tolist() == [1, 1]
    assert bob.tolist() == [1, 1]
    assert _trials([(HV, HV, -1, 0), (DA, DA, 1, 0)]).kept().tolist() == [False, True]


def test_estimate_qber_identical():
    alice = np.ones(100, dtype=np.uint8)
    qber, rem_a, rem_b, disclosed = estimate_qber(alice, alice.copy(), PCG64(1))
    assert qber == 0.0
    assert len(rem_a) == len(rem_b) == 80
    assert len(disclosed) == 20


def test_estimate_qber_all_mismatched():
    alice = np.zeros(50, dtype=np.uint8)
    bob = np.ones(50, dtype=np.uint8)
    qber, *_ = estimate_qber(alice, bob, PCG64(1))
    assert qber == 1.0


def test_estimate_qber_planted_errors(rng):
    n = 1000
    alice = rng.integers(0, 2, n).astype(np.uint8)
    bob = alice.copy()
    flipped = rng.choice(n, 250, replace=False)
    bob[flipped] ^= 1
    qber, rem_a, rem_b, disclosed = estimate_qber(alice, bob, rng.bit_generator)
    assert len(disclosed) == 200 and len(rem_a) == len(rem_b) == 800
    assert qber == np.count_nonzero(alice[disclosed] != bob[disclosed]) / 200
    # every planted error is either disclosed or left for Cascade
    assert round(qber * 200) + np.count_nonzero(rem_a != rem_b) == 250


def test_estimate_qber_removes_disclosed_positions():
    alice = np.arange(100, dtype=np.uint8) % 2
    bob = alice.copy()
    _, rem_a, _, disclosed = estimate_qber(alice, bob, PCG64(1))
    keep = np.ones(100, dtype=bool)
    keep[disclosed] = False
    assert rem_a.tolist() == alice[keep].tolist()


def test_estimate_qber_empty_rejected():
    with pytest.raises(ValueError):
        estimate_qber(np.zeros(0, np.uint8), np.zeros(0, np.uint8), PCG64(1))
    with pytest.raises(ValueError, match="equal length"):
        estimate_qber(np.zeros(5, np.uint8), np.zeros(6, np.uint8), PCG64(1))


def test_session_aborts_only_above_the_threshold(monkeypatch):
    # the boundary is inclusive: a QBER estimate equal to the threshold proceeds
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "session_no_eve_imperfect.json")
    cfg = load_config(path, "session")
    q = run_session(cfg).qber_estimate
    assert 0.0 < q < protocol.ABORT_THRESHOLD
    monkeypatch.setattr(protocol, "ABORT_THRESHOLD", q)
    at = run_session(cfg)
    assert not at.aborted and at.qber_estimate == q
    monkeypatch.setattr(protocol, "ABORT_THRESHOLD", np.nextafter(q, 0))
    below = run_session(cfg)
    assert below.aborted and below.abort_reason == "qber_above_threshold"
    assert below.qber_estimate == q and len(below.final_key) == 0


def test_h2_properties():
    assert h2(0.0) == 0.0 and h2(1.0) == 0.0
    assert h2(0.5) == pytest.approx(1.0, abs=1e-12)
    for x in (0.1, 0.25, 0.4):
        assert h2(x) == pytest.approx(h2(1.0 - x), abs=1e-12)


def test_reconcile_identical_strings_leak_is_block_parities_only(rng):
    alice = rng.integers(0, 2, 64).astype(np.uint8)
    corrected, leak = reconcile(alice, alice.copy(), qber_est=0.05, rng=PCG64(0))
    assert corrected.tolist() == alice.tolist()
    # first-pass block size ceil(0.73/0.05) = 15, doubling each pass;
    # expected disclosures = number of blocks per pass, nothing else
    expected_leak = 0
    for p in range(CASCADE_PASSES):
        k = min(64, 15 * 2 ** p)
        expected_leak += math.ceil(64 / k)
    assert leak == expected_leak


def test_reconcile_single_error_bisection_count():
    alice = np.zeros(16, dtype=np.uint8)
    bob = alice.copy()
    bob[11] = 1
    corrected, leak = reconcile(alice, bob, qber_est=0.01, rng=PCG64(1))
    assert corrected.tolist() == alice.tolist()
    # every pass is one 16-bit block: pass 0 discloses its parity and
    # ceil(log2 16) bisection parities, each later pass one even parity
    assert leak == 1 + 4 + (CASCADE_PASSES - 1)


def test_reconcile_seeded_case_corrects_everything():
    rng = np.random.default_rng(7)
    alice = rng.integers(0, 2, 256).astype(np.uint8)
    bob = alice.copy()
    bob[rng.choice(256, 8, replace=False)] ^= 1
    corrected, leak = reconcile(alice, bob, qber_est=8 / 256, rng=rng.bit_generator)
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
        corrected, _ = reconcile(alice, bob, qber_est=qber, rng=rng.bit_generator)
        ok += int(np.array_equal(corrected, alice))
    floor = math.floor(0.99 * trials - 4 * math.sqrt(trials * 0.99 * 0.01))
    assert ok >= floor, f"success {ok}/{trials}"


def test_reconcile_length_mismatch_rejected():
    with pytest.raises(ValueError):
        reconcile(np.zeros(8, np.uint8), np.zeros(9, np.uint8), qber_est=0.05, rng=PCG64(0))
    # empty strings are equal: nothing to correct, nothing disclosed
    bob = np.zeros(0, np.uint8)
    corrected, leaked = reconcile(np.zeros(0, np.uint8), bob, qber_est=0.05, rng=PCG64(0))
    assert corrected.shape == (0,) and corrected is not bob and leaked == 0


def test_reconcile_rejects_strings_beyond_int32_indices():
    # zero-stride views: the length check must come before any allocation
    too_long = np.broadcast_to(np.uint8(0), (2 ** 31,))
    with pytest.raises(ValueError, match="int32"):
        reconcile(too_long, too_long, qber_est=0.05, rng=PCG64(0))


class _LedgerCascade:
    """Reference Cascade: caches Alice's block parities and indexes, for
    every bit, the blocks that contain it."""

    def __init__(self, alice, bob):
        self.alice = alice
        self.bob = bob
        self.blocks = []
        self.alice_parity = []
        self.containing = {}
        self.leak = 0

    def parity(self, bits, idx):
        return int(bits[idx].sum() & 1)

    def add_block(self, idx):
        self.leak += 1
        bid = len(self.blocks)
        self.blocks.append(idx)
        self.alice_parity.append(self.parity(self.alice, idx))
        for j in idx.tolist():
            self.containing.setdefault(j, []).append(bid)
        return bid

    def mismatch(self, bid):
        return self.alice_parity[bid] != self.parity(self.bob, self.blocks[bid])

    def bisect(self, idx):
        idx = idx.tolist()
        while len(idx) > 1:
            mid = (len(idx) + 1) // 2
            left = np.array(idx[:mid])
            self.leak += 1
            if self.parity(self.alice, left) != self.parity(self.bob, left):
                idx = idx[:mid]
            else:
                idx = idx[mid:]
        return idx[0]

    def resolve(self, bid):
        stack = [bid]
        while stack:
            b = stack.pop()
            if not self.mismatch(b):
                continue
            j = self.bisect(self.blocks[b])
            self.bob[j] ^= 1
            for other in self.containing[j]:
                if other != b and self.mismatch(other):
                    stack.append(other)


def _ledger_reconcile(alice_bits, bob_bits, qber_est, rng):
    alice = np.asarray(alice_bits, dtype=np.uint8).copy()
    bob = np.asarray(bob_bits, dtype=np.uint8).copy()
    n = len(alice)
    if n == 0:
        return bob, 0
    ledger = _LedgerCascade(alice, bob)
    k1 = math.ceil(0.73 / max(qber_est, 0.01))
    for p in range(CASCADE_PASSES):
        k = min(n, k1 * (2 ** p))
        # the order of n raw words' top 64 - b bits, equal ones in index order
        b = np.uint64((n - 1).bit_length())
        order = np.argsort(rng.random_raw(n) >> b, kind="stable")
        for start in range(0, n, k):
            ledger.resolve(ledger.add_block(order[start:start + k]))
    return ledger.bob, ledger.leak


def test_reconcile_matches_ledger_reference():
    for n in (1, 2, 7, 64, 257, 1000, 13000):
        for qber in (0.0, 0.005, 0.03, 0.08, 0.15, 0.3):
            case = (n, qber)
            data = np.random.default_rng([n, CASCADE_PASSES, round(qber * 1000)])
            alice = data.integers(0, 2, n, dtype=np.uint8)
            bob = alice ^ (data.random(n) < qber).astype(np.uint8)
            seed = int(data.integers(0, 2 ** 32))
            got, leak = reconcile(alice, bob, qber_est=qber, rng=PCG64(seed))
            want, want_leak = _ledger_reconcile(alice, bob, qber, np.random.PCG64(seed))
            assert got.dtype == np.uint8, case
            assert np.array_equal(got, want), case
            assert leak == want_leak, case


def test_session_keys_golden():
    # Frozen figures: a change here changes the distilled keys.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "session_no_eve_imperfect.json")
    preset = run_session(load_config(path, "session"))
    assert (preset.leaked_bits, len(preset.final_key)) == (297, 541)
    keygen = run_session(SessionConfig(
        seed=3, n_intervals=100_000, source_noise=0.04,
        detector=DetectorConfig(dwell=0.1, pair_rate=10.0, dark_rate=0.9)))
    assert (keygen.leaked_bits, len(keygen.final_key)) == (2804, 5060)
    digest = hashlib.sha256(otp.bits_to_hex(keygen.final_key).encode()).hexdigest()
    assert digest == ("4000e00661378a04007aeedf43f4a212"
                      "bc94922b9b67c00641a01005b75855be")


def test_privacy_amplify_golden_vector():
    key = np.random.default_rng(42).integers(0, 2, size=128, dtype=np.uint8)
    out = privacy_amplify(key, qber=0.0, leaked_bits=0, rng_seed=0)
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
    assert len(privacy_amplify(key, 0.0, leaked_bits=64, rng_seed=1)) == 0
    assert len(privacy_amplify(key, 0.5, leaked_bits=0, rng_seed=1)) == 0


def test_privacy_amplify_deterministic():
    key = np.random.default_rng(3).integers(0, 2, 200, dtype=np.uint8)
    a = privacy_amplify(key, 0.02, 40 + 10, rng_seed=99)
    b = privacy_amplify(key, 0.02, 40 + 10, rng_seed=99)
    assert a.tolist() == b.tolist()
    c = privacy_amplify(key, 0.02, 40 + 10, rng_seed=100)
    assert a.tolist() != c.tolist()


def _seed_bits(n, m, rng_seed):
    return np.random.default_rng(rng_seed).integers(0, 2, size=n + m - 1,
                                                    dtype=np.uint8)


def _dense_toeplitz_hash(key, m, rng_seed):
    """Reference: materialise the m×n Toeplitz matrix and multiply."""
    n = len(key)
    seed_bits = _seed_bits(n, m, rng_seed)
    idx = np.arange(m)[:, None] - np.arange(n)[None, :] + (n - 1)
    return ((seed_bits[idx] @ key.astype(np.int64)) % 2).astype(np.uint8)


# (n, m) with m = 1, m = n, n = 1, odd n, and n + m - 1 around powers of two.
@pytest.mark.parametrize("n,m", [
    (1, 1), (2, 1), (2, 2), (3, 2), (7, 7), (31, 1), (32, 32), (33, 32),
    (33, 33), (64, 1), (64, 64), (65, 64), (65, 65), (129, 128), (255, 17),
    (256, 256), (257, 200), (1001, 1001), (1024, 1), (1025, 1024)])
def test_privacy_amplify_matches_dense_matrix(n, m):
    rng = np.random.default_rng(n * 7919 + m)
    for key in (rng.integers(0, 2, n, dtype=np.uint8),
                np.ones(n, dtype=np.uint8)):
        # qber 0: m = n - leaked_bits.
        out = privacy_amplify(key, 0.0, n - m, rng_seed=m)
        assert out.dtype == np.uint8
        assert out.tolist() == _dense_toeplitz_hash(key, m, m).tolist()


def test_privacy_amplify_exact_against_integer_convolution():
    n = 30_000
    key = np.random.default_rng(11).integers(0, 2, n, dtype=np.uint8)
    out = privacy_amplify(key, 0.03, 500 + 30, rng_seed=12)
    m = math.floor(n * (1.0 - h2(0.03)) - 500 - 30)
    seed_bits = _seed_bits(n, m, 12).astype(np.int64)
    expected = np.convolve(seed_bits, key.astype(np.int64), "valid") % 2
    assert len(out) == m
    assert np.array_equal(out, expected)


# n + m - 2 at 2**k - 1, 2**k and 2**k + 1: the FFT size doubles between
# the first and the second.
@pytest.mark.parametrize("m,k", [(TAG_BITS, 12), (3000, 13)])
def test_tag_of_the_residual_is_the_xor_of_the_tags(m, k):
    for n in (2 ** k + 1 - m, 2 ** k + 2 - m, 2 ** k + 3 - m):
        rng = np.random.default_rng([n, m])
        a = rng.integers(0, 2, n, dtype=np.uint8)
        b = a ^ (rng.random(n) < 0.05).astype(np.uint8)
        for other in (b, a.copy()):  # the second pair's residual is all zeros
            seed = int(rng.integers(0, 2 ** 63))
            tags = _toeplitz_hash(a, m, seed) ^ _toeplitz_hash(other, m, seed)
            assert np.array_equal(_toeplitz_hash(a ^ other, m, seed), tags), n


def test_privacy_amplify_million_bit_key_stays_bounded():
    n = 1_000_000
    key = np.random.default_rng(13).integers(0, 2, n, dtype=np.uint8)
    tracemalloc.start()
    try:
        out = privacy_amplify(key, 0.02, 1000 + 30, rng_seed=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = math.floor(n * (1.0 - h2(0.02)) - 1000 - 30)
    assert len(out) == m
    assert peak < 200e6, f"traced peak {peak / 1e6:.0f} MB"
    seed_bits = _seed_bits(n, m, 14)
    rows = np.random.default_rng(15).choice(m, 62, replace=False).tolist()
    for i in rows + [0, m - 1]:
        # Row i of the Toeplitz matrix is seed_bits[i:i + n] reversed.
        window = seed_bits[i:i + n][::-1].astype(np.int64)
        assert out[i] == int(window @ key) % 2, i


def test_privacy_amplify_rounding_check_raises(monkeypatch):
    real_irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft",
                        lambda *args: real_irfft(*args) + 0.3)
    key = np.ones(64, dtype=np.uint8)
    with pytest.raises(ArithmeticError, match="rounding"):
        privacy_amplify(key, 0.0, 0, rng_seed=1)


def test_privacy_amplify_rejects_non_bit_keys():
    # [0.9] * 300 would otherwise hash an all-zero key
    for key in (np.full(64, 2, dtype=np.uint8), [0, 1, 3],
                np.ones((8, 8), dtype=np.uint8), [0.9] * 300, [-1] * 64):
        with pytest.raises(ValueError, match="0s and 1s"):
            privacy_amplify(key, 0.0, 0, rng_seed=1)
    with pytest.raises(ValueError, match="nonempty"):
        privacy_amplify(np.zeros(0, dtype=np.uint8), 0.0, 0, rng_seed=1)


@pytest.mark.parametrize("bits", [
    [0.9] * 300, np.full(5000, 0.5), np.full(64, 2, dtype=np.uint8), [-1] * 64,
    np.ones((8, 8), dtype=np.uint8),
], ids=["floats_0.9", "floats_0.5", "twos", "minus_ones", "2d"])
def test_key_half_rejects_non_bit_strings(bits):
    # 0.5 would otherwise be cast to 0 and distil a key
    rng = PCG64(2)
    with pytest.raises(ValueError, match="0s and 1s"):
        estimate_qber(bits, bits, rng)
    with pytest.raises(ValueError, match="0s and 1s"):
        reconcile(bits, bits, qber_est=0.05, rng=rng)
    with pytest.raises(ValueError, match="0s and 1s"):
        distil(bits, bits, rng)
    assert rng.random_raw() == PCG64(2).random_raw()   # refused before any draw


def test_distil_reads_bit_text_as_the_equal_arrays():
    gen = np.random.default_rng(5)
    alice = gen.integers(0, 2, 4000, dtype=np.uint8)
    bob = alice ^ (gen.random(4000) < 0.03)
    text = ["".join(map(str, bits.tolist())) for bits in (alice, bob)]
    want = distil(alice, bob, PCG64(3))
    got = distil(*text, PCG64(3))
    assert not want.aborted and len(want.final_key) > 0
    assert np.array_equal(got.final_key, want.final_key)
    assert ((got.qber_estimate, got.abort_reason, got.leaked_bits, got.residual_errors)
            == (want.qber_estimate, want.abort_reason, want.leaked_bits,
                want.residual_errors))


def _session(seed, n=8000, noise=0.0, dark=0.0, eve=None):
    return SessionConfig(seed=seed, n_intervals=n, source_noise=noise,
                         detector=DetectorConfig(dwell=0.1, pair_rate=10.0,
                                                 dark_rate=dark),
                         eve=eve or EveConfig())


def test_run_session_ideal_full_agreement():
    t = run_session(_session(seed=5, n=10000))
    assert t.n_sifted > 0
    assert t.n_agree == t.n_sifted
    assert not t.aborted
    assert len(t.final_key) > 0


def test_run_session_fixed_diagonal_eve_quarter_errors():
    eve = EveConfig(mode="dephasing", basis_angle=45.0, strength=1.0)
    t = run_session(_session(seed=6, n=10000, eve=eve))
    n = t.n_sifted
    qber = (t.n_sifted - t.n_agree) / t.n_sifted
    assert abs(qber - 0.25) < 4 * binomial_sigma(0.25, n)


def test_run_session_half_interception_eighth_errors():
    eve = EveConfig(mode="intercept_resend", basis_policy="random_per_trial",
                    intercept_fraction=0.5)
    t = run_session(_session(seed=8, n=30000, eve=eve))
    n = t.n_sifted
    assert n > 4000
    qber = (t.n_sifted - t.n_agree) / t.n_sifted
    assert abs(qber - 0.125) < 4 * binomial_sigma(0.125, n)


def test_run_session_case_conditional_errors():
    # full Eve fixed in HV: matching-basis trials are error-free, the
    # wrong-basis trials err half the time
    eve = EveConfig(mode="dephasing", basis_angle=0.0, strength=1.0)
    _, trials = session_with_trials(_session(seed=9, n=20000, eve=eve))
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


def test_run_session_million_intervals_distils_a_key():
    # Keygen physics (QBER ~3 %) at 10^6 intervals: privacy amplification
    # hashes ~10^5 reconciled bits, whose m×n matrix would need tens of GB.
    config = SessionConfig(seed=0, n_intervals=1_000_000, source_noise=0.04,
                           detector=DetectorConfig(dwell=0.1, pair_rate=10.0,
                                                   dark_rate=0.9))
    t = run_session(config)
    assert not t.aborted
    assert len(t.final_key) > 0


def test_session_tiles_write_the_whole_block_streams():
    # one interval past the first block; intercept-resend with random bases
    # takes two words per interval
    eve = EveConfig(mode="intercept_resend", basis_policy="random_per_trial",
                    intercept_fraction=0.5)
    config = _session(seed=12, n=BLOCK_INTERVALS + 1, dark=0.9, eve=eve)
    got, calls = io.StringIO(), []

    def sink(start, trials):
        calls.append((start, len(trials)))
        records_to_csv(trials, got, start)

    run_session(config, sink=sink)
    # reference: each seeding block simulated as one stream
    state = add_white_noise(bell_phi_plus(), config.source_noise)
    want = io.StringIO()
    for block, start in enumerate(range(0, config.n_intervals, BLOCK_INTERVALS)):
        rng = np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(0, block)))
        trials = simulate_dwell_stream(expected_rates(state, config.detector, config.eve),
                                       min(BLOCK_INTERVALS, config.n_intervals - start), rng)
        records_to_csv(trials, want, start)
    assert got.getvalue() == want.getvalue()
    # the sink sees the session in order, one tile of at most TILE_INTERVALS
    # at a time
    starts, lengths = zip(*calls)
    assert list(starts) == list(range(0, config.n_intervals, TILE_INTERVALS))
    assert lengths[-1] == 1 and set(lengths[:-1]) == {TILE_INTERVALS}


def test_session_builds_its_detection_model_once(monkeypatch):
    eve = EveConfig(mode="intercept_resend", basis_policy="random_per_trial",
                    intercept_fraction=0.5)
    config = _session(seed=5, n=2 * TILE_INTERVALS + 1, dark=0.9, eve=eve)
    calls, tiles = [], []

    def spy(*args):
        calls.append(args)
        return expected_rates(*args)

    monkeypatch.setattr(protocol, "expected_rates", spy)
    run_session(config, sink=lambda start, trials: tiles.append(start))
    assert len(tiles) == 3
    assert len(calls) == 1
    _, detector, eve_arg = calls[0]
    assert detector is config.detector and eve_arg is config.eve


def test_intercept_session_working_set_is_one_tile():
    # 2 blocks at QBER ~0.25 abort before Cascade: what stays live is the
    # ~24k sifted bits per party and one tile's arrays
    eve = EveConfig(mode="intercept_resend", basis_policy="random_per_trial",
                    intercept_fraction=1.0)
    config = _session(seed=7, n=2 * BLOCK_INTERVALS, eve=eve)
    with open(os.devnull, "w", encoding="utf-8", newline="") as fh:
        tracemalloc.start()
        try:
            t = run_session(config, sink=lambda start, trials: records_to_csv(trials, fh, start))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert t.abort_reason == "qber_above_threshold"
    assert peak < 1.5e6, f"traced peak {peak / 1e6:.2f} MB"


def _keygen(seed, n=10_000, **overrides):
    """The keygen physics: QBER ~3.5 % from source noise and dark counts."""
    settings = dict(source_noise=0.04,
                    detector=DetectorConfig(dwell=0.1, pair_rate=10.0, dark_rate=0.9))
    return SessionConfig(seed=seed, n_intervals=n, **(settings | overrides))


@pytest.mark.parametrize("config", [
    _keygen(seed=13, n=BLOCK_INTERVALS + 1),
    _session(seed=14, n=BLOCK_INTERVALS + 1,
             eve=EveConfig(mode="intercept_resend", basis_policy="random_per_trial")),
], ids=["keygen", "intercept_random"])
def test_session_counts_match_the_sink_trials(config):
    # the running counts cross every tile boundary and one block boundary
    t, trials = session_with_trials(config)
    sifted = trials.sifted()
    assert len(trials) == t.n_intervals == BLOCK_INTERVALS + 1
    assert t.n_kept == np.count_nonzero(trials.alice_bit >= 0)
    assert t.n_sifted == np.count_nonzero(sifted) > 0
    assert t.n_agree == np.count_nonzero(trials.alice_bit[sifted] == trials.bob_bit[sifted])
    assert t.n_agree < t.n_sifted


# QBER ~0.08 (noise 0.16) leaves errors in one Cascade pass's even-error
# blocks; run it with CASCADE_PASSES patched to 1
_ONE_PASS_FAILS = SessionConfig(
    seed=0, n_intervals=10_000, source_noise=0.16,
    detector=DetectorConfig(dwell=0.1, pair_rate=10.0, dark_rate=0.0))


def test_one_cascade_pass_fails_key_verification(monkeypatch):
    monkeypatch.setattr(protocol, "CASCADE_PASSES", 1)
    t = run_session(_ONE_PASS_FAILS)
    assert 0.05 < t.qber_estimate < 0.11
    assert t.aborted and t.abort_reason == "key_verification_failed"
    assert len(t.final_key) == 0 and t.residual_errors > 0
    assert t.leaked_bits > TAG_BITS  # Cascade's parities and the tag


def test_final_keys_agree_on_200_keygen_seeds(monkeypatch):
    # Cascade leaves residual errors on about 1 % of these sessions; the tag of
    # the residual must abort exactly the sessions whose two tags would differ,
    # and Alice's key, hashed as Bob's was, must equal the final key.  The sweep
    # runs past seed 199 until one session has exercised the key check.
    seen = {}

    def spy_reconcile(alice_bits, bob_bits, *, qber_est, rng):
        corrected, leak = reconcile(alice_bits, bob_bits, qber_est=qber_est, rng=rng)
        seen["pair"] = (alice_bits, corrected)
        # the session's next two draws: the PA seed, then the tag seed
        after = copy.deepcopy(rng)
        seen["seeds"] = (after.random_raw() >> 1, after.random_raw() >> 1)
        return corrected, leak

    def spy_privacy_amplify(key_bits, *args):
        seen["pa_args"] = args
        return privacy_amplify(key_bits, *args)

    monkeypatch.setattr(protocol, "reconcile", spy_reconcile)
    monkeypatch.setattr(protocol, "privacy_amplify", spy_privacy_amplify)
    failed = []
    for seed in itertools.takewhile(lambda seed: seed < 200 or not failed, range(2000)):
        seen.clear()
        t = run_session(_keygen(seed))
        alice, bob = seen["pair"]
        pa_seed, tag_seed = seen["seeds"]
        tags_differ = not np.array_equal(_toeplitz_hash(alice, TAG_BITS, tag_seed),
                                         _toeplitz_hash(bob, TAG_BITS, tag_seed))
        assert t.aborted == tags_differ, seed
        assert t.residual_errors == np.count_nonzero(alice != bob), seed
        if t.aborted:
            assert t.abort_reason == "key_verification_failed", seed
            assert len(t.final_key) == 0 and "pa_args" not in seen, seed
            failed.append(seed)
        else:
            assert t.residual_errors == 0 and len(t.final_key) > 0, seed
            assert seen["pa_args"][-1] == pa_seed, seed
            assert np.array_equal(privacy_amplify(alice, *seen["pa_args"]), t.final_key), seed
    assert failed, "no session exercised the key check"


def test_a_session_hashes_once(monkeypatch):
    calls = []

    def counting_hash(key, m, rng_seed):
        calls.append(m)
        return _toeplitz_hash(key, m, rng_seed)

    monkeypatch.setattr(protocol, "_toeplitz_hash", counting_hash)
    completed = run_session(_keygen(seed=0))
    assert not completed.aborted and completed.residual_errors == 0
    assert calls == [len(completed.final_key)]  # privacy amplification alone
    calls.clear()
    monkeypatch.setattr(protocol, "CASCADE_PASSES", 1)
    failed = run_session(_ONE_PASS_FAILS)
    assert failed.abort_reason == "key_verification_failed"
    assert calls == [TAG_BITS]  # the residual's tag alone


@pytest.mark.parametrize("reason,overrides", [
    ("no_sifted_bits", {"detector": DetectorConfig(pair_rate=0.0, dark_rate=0.0)}),
    ("qber_above_threshold", {"ABORT_THRESHOLD": 0.01}),
    ("nothing_left_after_sampling", {"QBER_SAMPLE_FRACTION": 1.0}),
])
def test_abort_reasons(monkeypatch, reason, overrides):
    # an upper-case key patches a protocol constant, the others are config fields
    fields = {}
    for name, value in overrides.items():
        if name.isupper():
            monkeypatch.setattr(protocol, name, value)
        else:
            fields[name] = value
    t = run_session(_keygen(seed=4, n=2000, **fields))
    assert t.aborted and t.abort_reason == reason
    assert len(t.final_key) == t.leaked_bits == 0
    assert t.residual_errors is None
    assert transcript_summary(t)["abort_reason"] == reason


_BITS = np.random.default_rng(3).integers(0, 2, size=2000, dtype=np.uint8)


@pytest.mark.parametrize("alice,bob,reason", [
    (np.zeros(0, np.uint8), np.zeros(0, np.uint8), "no_sifted_bits"),
    (np.ones(1, np.uint8), np.ones(1, np.uint8), "nothing_left_after_sampling"),
    (_BITS, _BITS ^ 1, "qber_above_threshold"),
    (_BITS, _BITS.copy(), None),
], ids=["empty", "one_bit", "flipped", "equal"])
def test_distil_from_plain_strings(alice, bob, reason):
    key = distil(alice, bob, PCG64(8))
    assert key.abort_reason == reason
    assert key.aborted == (key.abort_reason is not None)
    if reason is not None:
        assert len(key.final_key) == key.leaked_bits == 0
        assert key.residual_errors is None
        return
    # replay the sample and Cascade on the same generator for Cascade's leak
    rng = PCG64(8)
    qber, rem_alice, rem_bob, _ = estimate_qber(alice, bob, rng)
    _, leak = reconcile(rem_alice, rem_bob, qber_est=qber, rng=rng)
    assert key.qber_estimate == qber == 0.0
    assert key.residual_errors == 0
    assert key.leaked_bits == leak + TAG_BITS
    assert len(key.final_key) > 0


def test_distil_aborts_when_amplification_leaves_no_bit():
    # 80 equal bits after the sample: the tag and PA_SAFETY_BITS alone remove 94
    bits = _BITS[:100]
    key = distil(bits, bits.copy(), PCG64(8))
    assert key.aborted and key.abort_reason == "no_key_after_amplification"
    assert key.qber_estimate == 0.0 and key.residual_errors == 0
    assert len(key.final_key) == 0 and key.leaked_bits >= TAG_BITS


def test_distil_rejects_unequal_strings():
    for alice, bob in [(np.zeros(0, np.uint8), np.ones(3, np.uint8)),
                       (np.ones(3, np.uint8), np.zeros(0, np.uint8))]:
        with pytest.raises(ValueError, match="equal length"):
            distil(alice, bob, PCG64(0))


def test_distil_is_the_key_half_of_a_session():
    config = _keygen(seed=0)
    t, trials = session_with_trials(config)
    alice, bob = sift(trials)
    rng = np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    key = distil(alice, bob, rng)
    assert not key.aborted and len(key.final_key) > 0
    assert np.array_equal(key.final_key, t.final_key)
    assert ((key.qber_estimate, key.abort_reason, key.leaked_bits, key.residual_errors)
            == (t.qber_estimate, t.abort_reason, t.leaked_bits, t.residual_errors))


def test_transcript_invariants():
    t = run_session(_session(seed=31, n=5000, noise=0.02, dark=0.5))
    summary = transcript_summary(t)
    assert (summary["abort_reason"] is None) == (not t.aborted)
    assert summary["n_sifted"] <= summary["n_kept"] <= summary["n_records"]
    if t.aborted:
        assert len(t.final_key) == 0


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(seed=1, source_noise=1.5)
    with pytest.raises(ValueError, match="n_intervals"):
        SessionConfig(seed=1, n_intervals=0)
    with pytest.raises(ValueError, match="n_intervals"):
        SessionConfig(seed=1, n_intervals=MAX_INTERVALS + 1)
    SessionConfig(seed=1, n_intervals=MAX_INTERVALS)


# Each protocol setting is decided in one place: the function that reads its
# constant.  No function takes one as an argument.
PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qkdlab")
SETTING_READERS = {"QBER_SAMPLE_FRACTION": "protocol.estimate_qber",
                   "CASCADE_PASSES": "protocol.reconcile", "PA_SAFETY_BITS": "protocol.distil"}


def _setting_reads(tree, module):
    """(constant, reader) for every read of a setting, the reader being the
    top-level function or class that holds it, or ``<module>``."""
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            read = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if read in SETTING_READERS:
                yield read, f"{module}.{name}"


def test_each_protocol_setting_is_read_by_one_function_and_passed_by_none():
    readers = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            for constant, reader in _setting_reads(tree, name[:-3]):
                readers.setdefault(constant, set()).add(reader)
    assert readers == {constant: {reader} for constant, reader in SETTING_READERS.items()}
    with open(os.path.join(PACKAGE, "protocol.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    knobs = [f"{node.name}({arg.arg})" for node in tree.body
             if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
             for arg in node.args.args + node.args.kwonlyargs
             if arg.arg in ("sample_fraction", "passes", "safety")]
    assert not knobs, "protocol settings passed as arguments: " + ", ".join(knobs)
