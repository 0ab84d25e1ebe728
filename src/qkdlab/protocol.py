"""The BB84 session engine.

``run_session`` composes the whole pipeline: entangled source with white
noise, the configured eavesdropper channel, the dwell-interval detector
stream, basis sifting, error-rate estimation on a disclosed sample, the
abort decision, Cascade information reconciliation, and Toeplitz privacy
amplification down to the final key.  Every step draws from one seeded
random stream, so a transcript is a pure function of its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detection import DetectorConfig, Trials, simulate_dwell_stream
from .states import EveConfig, add_white_noise, bell_phi_plus
from . import otp


@dataclass(frozen=True)
class SessionConfig:
    seed: int
    n_intervals: int = 10000
    source_noise: float = 0.0
    eve: EveConfig = field(default_factory=EveConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    qber_sample_fraction: float = 0.2
    abort_threshold: float = 0.11
    reconciliation_passes: int = 4
    pa_safety_bits: int = 30

    def __post_init__(self):
        if not 0.0 <= self.source_noise <= 1.0:
            raise ValueError("source_noise must be in [0, 1]")
        if not 0.0 < self.qber_sample_fraction <= 1.0:
            raise ValueError("qber_sample_fraction must be in (0, 1]")
        if not 0.0 < self.abort_threshold < 0.5:
            raise ValueError("abort_threshold must be in (0, 0.5)")
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        if self.reconciliation_passes < 1:
            raise ValueError("need at least one reconciliation pass")
        if self.pa_safety_bits < 0:
            raise ValueError("pa_safety_bits must be nonnegative")


@dataclass
class SessionTranscript:
    trials: Trials
    sifted_alice: np.ndarray
    sifted_bob: np.ndarray
    qber_estimate: float | None
    aborted: bool
    leaked_bits: int
    final_key: np.ndarray


def sift(trials: Trials) -> tuple[np.ndarray, np.ndarray]:
    """Keep the kept trials where both parties used the same basis.

    Returns the two bit strings in trial order (H, D -> 1; V, A -> 0, the
    convention already applied by the detector layer).
    """
    mask = trials.sifted()
    return (trials.alice_bit[mask].astype(np.uint8),
            trials.bob_bit[mask].astype(np.uint8))


def estimate_qber(alice_bits, bob_bits, sample_fraction: float, rng):
    """Disclose a random sample and measure its mismatch fraction.

    Returns ``(qber, remaining_alice, remaining_bob, disclosed_positions)``;
    the disclosed positions are removed from the remaining key material.
    """
    alice = np.asarray(alice_bits, dtype=np.uint8)
    bob = np.asarray(bob_bits, dtype=np.uint8)
    if alice.shape != bob.shape:
        raise ValueError("sifted strings must have equal length")
    n = len(alice)
    if n == 0:
        raise ValueError("cannot estimate an error rate from an empty string")
    sample_size = max(1, round(sample_fraction * n))
    disclosed = np.sort(rng.choice(n, size=sample_size, replace=False))
    qber = float(np.mean(alice[disclosed] != bob[disclosed]))
    keep = np.ones(n, dtype=bool)
    keep[disclosed] = False
    return qber, alice[keep], bob[keep], disclosed


def decide(qber: float, threshold: float) -> str:
    """Abort iff the error rate exceeds the threshold (boundary proceeds)."""
    if not 0.0 <= qber <= 1.0:
        raise ValueError("qber must be in [0, 1]")
    return "abort" if qber > threshold else "proceed"


def h2(x: float) -> float:
    """Binary entropy in bits, with h2(0) = h2(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


class _BlockLedger:
    """Cascade bookkeeping: blocks with disclosed parities.

    A block's parity is disclosed once (one message); after a bit flip the
    receiver re-checks cached parities locally at no extra leakage, and only
    fresh bisection parities count as new messages.
    """

    def __init__(self, alice, bob):
        self.alice = alice
        self.bob = bob
        self.blocks: list[np.ndarray] = []
        self.alice_parity: list[int] = []
        self.containing: dict[int, list[int]] = {}
        self.leak = 0

    def parity(self, bits, idx) -> int:
        return int(bits[idx].sum() & 1)

    def add_block(self, idx: np.ndarray) -> int:
        self.leak += 1  # first disclosure of this block's parity
        bid = len(self.blocks)
        self.blocks.append(idx)
        self.alice_parity.append(self.parity(self.alice, idx))
        for j in idx.tolist():
            self.containing.setdefault(j, []).append(bid)
        return bid

    def mismatch(self, bid: int) -> bool:
        return self.alice_parity[bid] != self.parity(self.bob, self.blocks[bid])

    def bisect(self, idx: np.ndarray) -> int:
        """Locate one error inside an odd-parity block; one message per level."""
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

    def resolve(self, bid: int):
        """Fix errors reachable from this block, cascading through every
        earlier block whose cached parity now disagrees."""
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


def reconcile(alice_bits, bob_bits, passes: int = 4, *, qber_est: float, rng):
    """Cascade error correction of Bob's string against Alice's.

    Each pass shuffles the positions with the shared seeded stream and
    compares block parities, the first-pass block size being
    ``ceil(0.73 / max(qber_est, 0.01))`` and doubling every pass; an
    odd-parity block is bisected to one error, and each correction re-checks
    all previously formed blocks containing the flipped bit.  Returns
    ``(corrected_bob, leaked_bits)`` with the exact count of parity messages
    exchanged.
    """
    alice = np.asarray(alice_bits, dtype=np.uint8).copy()
    bob = np.asarray(bob_bits, dtype=np.uint8).copy()
    if alice.shape != bob.shape:
        raise ValueError("reconcile needs equal-length strings")
    n = len(alice)
    if n == 0:
        return bob, 0
    ledger = _BlockLedger(alice, bob)
    k1 = math.ceil(0.73 / max(qber_est, 0.01))
    for p in range(passes):
        k = min(n, k1 * (2 ** p))
        order = rng.permutation(n)
        for start in range(0, n, k):
            bid = ledger.add_block(order[start:start + k])
            ledger.resolve(bid)
    return ledger.bob, ledger.leak


def privacy_amplify(key_bits, qber: float, leaked_bits: int, safety: int,
                    rng_seed: int) -> np.ndarray:
    """Compress the reconciled key with a seeded binary Toeplitz matrix.

    The output length is ``floor(n (1 - h2(qber)) - leaked_bits - safety)``
    clamped at zero; the matrix is built from ``n + m - 1`` seeded bits so
    the result is a pure function of ``(key, rng_seed)``.
    """
    key = np.asarray(key_bits, dtype=np.uint8)
    n = len(key)
    if n == 0:
        raise ValueError("privacy_amplify needs a nonempty key")
    m = math.floor(n * (1.0 - h2(qber)) - leaked_bits - safety)
    if m <= 0:
        return np.zeros(0, dtype=np.uint8)
    rng = np.random.default_rng(rng_seed)
    seed_bits = rng.integers(0, 2, size=n + m - 1, dtype=np.uint8)
    # T[i, j] = seed_bits[i - j + n - 1]: constant along diagonals.
    idx = np.arange(m)[:, None] - np.arange(n)[None, :] + (n - 1)
    toeplitz = seed_bits[idx]
    return ((toeplitz @ key.astype(np.int64)) % 2).astype(np.uint8)


def run_session(config: SessionConfig) -> SessionTranscript:
    """Run a full key-distribution session from one seed."""
    rng = np.random.default_rng(config.seed)
    state = add_white_noise(bell_phi_plus(), config.source_noise)
    trials = simulate_dwell_stream(state, config.detector, config.n_intervals,
                                   "random", config.eve, rng)
    sifted_alice, sifted_bob = sift(trials)
    empty = np.zeros(0, dtype=np.uint8)
    if len(sifted_alice) == 0:
        return SessionTranscript(trials, sifted_alice, sifted_bob,
                                 qber_estimate=None, aborted=True,
                                 leaked_bits=0, final_key=empty)
    qber, rem_alice, rem_bob, _ = estimate_qber(
        sifted_alice, sifted_bob, config.qber_sample_fraction, rng)
    if decide(qber, config.abort_threshold) == "abort" or len(rem_alice) == 0:
        return SessionTranscript(trials, sifted_alice, sifted_bob,
                                 qber_estimate=qber, aborted=True,
                                 leaked_bits=0, final_key=empty)
    corrected_bob, leaked = reconcile(rem_alice, rem_bob,
                                      config.reconciliation_passes,
                                      qber_est=qber, rng=rng)
    pa_seed = int(rng.integers(0, 2 ** 63))
    final_key = privacy_amplify(corrected_bob, qber, leaked,
                                config.pa_safety_bits, pa_seed)
    return SessionTranscript(trials, sifted_alice, sifted_bob,
                             qber_estimate=qber, aborted=False,
                             leaked_bits=leaked, final_key=final_key)


def transcript_summary(t: SessionTranscript) -> dict:
    """Agreement, error-rate and key-length figures for reporting."""
    n = len(t.sifted_alice)
    agreement = float(np.mean(t.sifted_alice == t.sifted_bob)) if n else 0.0
    return {
        "n_records": len(t.trials),
        "n_kept": int(np.count_nonzero(t.trials.kept)),
        "n_sifted": n,
        "sifted_agreement": agreement,
        "qber_estimate": t.qber_estimate,
        "aborted": t.aborted,
        "leaked_bits": t.leaked_bits,
        "final_key_bits": int(len(t.final_key)),
    }


def transcript_to_dict(t: SessionTranscript) -> dict:
    """JSON-ready run scalars and the final key (as lowercase hex plus bit
    length); the per-trial data lives in the CSV files."""
    return {
        "qber_estimate": t.qber_estimate,
        "aborted": t.aborted,
        "leaked_bits": t.leaked_bits,
        "final_key_hex": otp.bits_to_hex(t.final_key),
        "final_key_len": int(len(t.final_key)),
    }
