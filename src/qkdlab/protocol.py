"""The BB84 session engine.

``run_session`` is the apparatus: entangled source with white noise, the
configured eavesdropper channel, the dwell-interval detector stream and basis
sifting, in tiles never held all at once.  ``distil`` is the key: error-rate
estimation on a disclosed sample, the abort decision, Cascade reconciliation,
a hash check that both parties hold the same string, and Toeplitz privacy
amplification of Bob's string to the final key.  Every draw comes from a
generator spawned from the seed, so a transcript is a function of its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detection import DetectorConfig, Trials, expected_rates, simulate_dwell_stream
from .pcg64 import PCG64, check_seed
from .states import Beam, EveConfig, add_white_noise, bell_phi_plus
from . import otp


# 10^8 intervals, the largest session measured, ran in 14.1 s at 777 MB max
# RSS on a 2-vCPU, 8 GB box at commit 6e1b523: the key half still runs over
# the whole sifted string, so memory grows with the count.
MAX_INTERVALS = 10 ** 8

# Intervals per block, the seeding unit: block b of a session draws from its
# own generator, so an interval's record depends on the seed and its index alone.
BLOCK_INTERVALS = 1 << 16

# Intervals per tile, the working unit: a session simulates, sifts and writes
# a block this many intervals at a time.  A divisor of BLOCK_INTERVALS, so only
# a session's last tile can be short.
TILE_INTERVALS = 1 << 12


@dataclass(frozen=True)
class SessionConfig(Beam):
    seed: int
    n_intervals: int = 10000
    source_noise: float = 0.0
    eve: EveConfig = field(default_factory=EveConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)

    def __post_init__(self):
        super().__post_init__()
        check_seed(self.seed)
        if not 1 <= self.n_intervals <= MAX_INTERVALS:
            raise ValueError(f"n_intervals must be in [1, {MAX_INTERVALS}]")


# The protocol is fixed: no config or argument sets these; one function reads each.
# Share of the sifted bits disclosed to estimate the error rate.
QBER_SAMPLE_FRACTION = 0.2
# An estimate above this aborts the session; the threshold itself proceeds.
ABORT_THRESHOLD = 0.11
CASCADE_PASSES = 4
# Bits of the universal-hash tag that checks the reconciled strings agree.
TAG_BITS = 64
# Bits that privacy amplification removes beyond the error-rate and leak terms.
PA_SAFETY_BITS = 30


@dataclass
class KeyResult:
    """The key half's outcome.  ``final_key`` is hashed from Bob's reconciled
    string; ``residual_errors`` counts the positions where the two reconciled
    strings still differ, the simulator's ground truth behind the tag check,
    and is None before Cascade; ``aborted`` is ``abort_reason is not None``."""

    qber_estimate: float | None
    abort_reason: str | None
    leaked_bits: int
    final_key: np.ndarray
    residual_errors: int | None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


@dataclass
class SessionTranscript(KeyResult):
    """A session's key result and its counts of intervals, kept intervals,
    sifted bits and sifted bits on which Alice and Bob agree."""

    n_intervals: int
    n_kept: int
    n_sifted: int
    n_agree: int


def sift(trials: Trials) -> tuple[np.ndarray, np.ndarray]:
    """Keep the kept trials where both parties used the same basis.

    Returns the two bit strings in trial order (H, D -> 1; V, A -> 0, the
    convention already applied by the detector layer).
    """
    mask = trials.sifted()
    return (trials.alice_bit[mask].astype(np.uint8),
            trials.bob_bit[mask].astype(np.uint8))


# Indices that _permutation writes into its keys per slice
_INDEX_SLICE = 1 << 16


def _permutation(rng, n: int) -> np.ndarray:
    """A random order of ``range(n)``, as int32, from ``n`` raw words of ``rng``.

    Word ``i`` keeps its top ``64 - b`` bits, ``b = (n - 1).bit_length()``,
    and takes ``i`` in its low ``b`` bits; the low bits of the sorted words are
    the order.  No two keys are equal, so the order does not depend on the
    sort's stability, and equal top bits, a chance of about ``n^2 2^(b - 65)``,
    keep their index order.
    """
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = rng.random_raw(n)
    keys &= ~low
    for start in range(0, n, _INDEX_SLICE):   # no n-word temporary of indices
        stop = min(n, start + _INDEX_SLICE)
        keys[start:stop] |= np.arange(start, stop, dtype=np.uint64)
    keys.sort()
    keys &= low
    return keys.astype(np.int32)


def estimate_qber(alice_bits, bob_bits, rng):
    """Disclose a random :data:`QBER_SAMPLE_FRACTION` of the bits and measure its error rate.

    The disclosed positions are the sorted head of one :func:`_permutation`.
    Returns ``(qber, remaining_alice, remaining_bob, disclosed_positions)``;
    the disclosed positions are removed from the remaining key material.
    """
    alice, bob = otp.as_bits(alice_bits), otp.as_bits(bob_bits)
    if alice.shape != bob.shape:
        raise ValueError("sifted strings must have equal length")
    n = len(alice)
    if n == 0:
        raise ValueError("cannot estimate an error rate from an empty string")
    sample_size = max(1, round(QBER_SAMPLE_FRACTION * n))
    disclosed = np.sort(_permutation(rng, n)[:sample_size])
    qber = float(np.mean(alice[disclosed] != bob[disclosed]))
    keep = np.ones(n, dtype=bool)
    keep[disclosed] = False
    return qber, alice[keep], bob[keep], disclosed


def h2(x: float) -> float:
    """Binary entropy in bits, with h2(0) = h2(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


_INT32_MAX = np.iinfo(np.int32).max


def reconcile(alice_bits, bob_bits, *, qber_est: float, rng):
    """Cascade error correction of Bob's string against Alice's in :data:`CASCADE_PASSES` passes.

    Each pass orders the positions by its own :func:`_permutation` of the
    shared seeded stream and compares block parities, the first-pass block
    size being ``ceil(0.73 / max(qber_est, 0.01))`` and doubling every pass; an
    odd-parity block is bisected to one error, and each correction re-checks
    all previously formed blocks containing the flipped bit.  Returns
    ``(corrected_bob, leaked_bits)`` with the exact count of parity messages
    exchanged: one per block and one per bisection level.

    The whole state is the error string ``err = alice ^ bob``: a block's two
    parities differ exactly when its error count is odd, and a correction
    flips one error bit.  Each pass keeps one parity per block, all computed
    at the pass's start and toggled with every flip, so a block check is a
    lookup; a bisection reads its block's bits once.  Bit ``j`` lies in
    block ``rank[q][j] // size[q]`` of pass ``q``, where ``rank[q]`` inverts
    that pass's permutation, so no per-bit block index is kept.  Orders and
    ranks are int32, 32 bytes per bit over four passes, so a string may hold
    at most 2**31 - 1 bits; the lengths are checked before any bit is read.
    """
    if len(alice_bits) != len(bob_bits):
        raise ValueError("reconcile needs equal-length strings")
    if len(alice_bits) > _INT32_MAX:
        raise ValueError(f"reconcile indexes bits as int32: {len(alice_bits)} bits "
                         f"exceed {_INT32_MAX}")
    alice, bob = otp.as_bits(alice_bits), otp.as_bits(bob_bits)
    err = alice ^ bob
    n = len(err)
    if n == 0:
        return bob.copy(), 0
    k1 = math.ceil(0.73 / max(qber_est, 0.01))
    orders, ranks, sizes, parities = [], [], [], []
    leak = 0

    for p in range(CASCADE_PASSES):
        k = min(n, k1 * (2 ** p))
        order = _permutation(rng, n)
        rank = np.empty(n, dtype=np.int32)
        rank[order] = np.arange(n, dtype=np.int32)
        orders.append(order)
        ranks.append(rank)
        sizes.append(k)
        parities.append(np.bitwise_xor.reduceat(err[order], np.arange(0, n, k)).tolist())
        for b in range(len(parities[p])):
            leak += 1  # first disclosure of this block's parity
            stack = [(p, b)]
            while stack:
                q, c = stack.pop()
                if not parities[q][c]:
                    continue
                idx = orders[q][c * sizes[q]:(c + 1) * sizes[q]]
                bits = err[idx].tolist()
                lo, hi = 0, len(bits)
                while hi - lo > 1:  # bisection: one message per level
                    mid = lo + (hi - lo + 1) // 2
                    leak += 1
                    if sum(bits[lo:mid]) & 1:
                        hi = mid
                    else:
                        lo = mid
                j = idx[lo]
                err[j] ^= 1
                # Re-check every formed block holding j, in creation order,
                # at no new leakage: their parities are already disclosed.
                # In this pass only blocks up to the current one are formed,
                # and the block just bisected is now even, so stays off.
                for q in range(p + 1):
                    c = int(ranks[q][j]) // sizes[q]
                    parities[q][c] ^= 1
                    if (q < p or c <= b) and parities[q][c]:
                        stack.append((q, c))
    return alice ^ err, leak


def _toeplitz_hash(key: np.ndarray, m: int, rng_seed: int) -> np.ndarray:
    """``T @ key`` over GF(2) for the m×n binary Toeplitz matrix
    ``T[i, j] = s[i - j + n - 1]``, whose ``n + m - 1`` bits ``s`` are drawn
    from ``rng_seed``.

    ``T`` is never built: ``T @ key`` is the "valid" part of the linear
    convolution ``s ∗ key`` (output ``i`` is entry ``i + n - 1``), computed
    exactly as an FFT product over float64 and reduced mod 2.  Every exact
    value is an integer at most ``n``; if any computed value lies 0.25 or
    more from the nearest integer the function raises ``ArithmeticError``
    rather than return a wrong bit.  Time and memory are
    O((n + m) log(n + m)).  Output bit ``i`` depends on ``s[i:i + n]`` only,
    and the seeded draw of ``s`` is prefix-stable, so a shorter ``m`` gives a
    prefix of the longer output.
    """
    n = len(key)
    # The top bit of each byte of PCG64's raw words, read little-endian on any platform.
    words = PCG64(rng_seed).random_raw(-(-(n + m - 1) // 8))
    seed_bits = np.asarray(words, dtype="<u8").view(np.uint8)[:n + m - 1]
    seed_bits >>= 7
    # A circular convolution of length >= n + m - 1 leaves entries
    # n - 1 .. n + m - 2 free of wrap-around.
    size = 1 << (n + m - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(seed_bits, size) * np.fft.rfft(key, size),
                        size)[n - 1:n + m - 1]
    counts = np.rint(conv)
    error = float(np.max(np.abs(conv - counts)))
    if error >= 0.25:
        raise ArithmeticError(
            f"Toeplitz hash: FFT rounding error {error:.3g} at n={n}")
    return (counts.astype(np.int64) & 1).astype(np.uint8)


def privacy_amplify(key_bits, qber: float, leaked_bits: int, rng_seed: int) -> np.ndarray:
    """Compress the reconciled key with a seeded binary Toeplitz hash.

    The output length is ``floor(n (1 - h2(qber)) - leaked_bits)`` clamped
    at zero, ``leaked_bits`` including any safety margin, and the output is
    :func:`_toeplitz_hash` of the key, a pure function of ``(key, rng_seed)``.
    Raises ``ValueError`` for a key that is empty or not flat 0s and 1s.
    """
    key = otp.as_bits(key_bits)
    n = len(key)
    if n == 0:
        raise ValueError("privacy_amplify needs a nonempty key")
    m = math.floor(n * (1.0 - h2(qber)) - leaked_bits)
    if m <= 0:
        return np.zeros(0, dtype=np.uint8)
    return _toeplitz_hash(key, m, rng_seed)


def distil(alice_bits, bob_bits, rng) -> KeyResult:
    """Distil a key from Alice's and Bob's sifted strings, every draw from ``rng``.

    Empty strings abort, as does a disclosed sample (:func:`estimate_qber`)
    whose error rate exceeds :data:`ABORT_THRESHOLD` or that leaves no bits;
    :func:`reconcile` then corrects Bob's string.  Unequal lengths, or strings
    that :func:`otp.as_bits` refuses, raise ``ValueError`` before any draw.

    After Cascade, Alice and Bob compare a :data:`TAG_BITS`-bit Toeplitz hash of
    their reconciled strings, seeded by a value drawn after the
    privacy-amplification seed; the tag counts as leaked, and a mismatch aborts.
    The hash is linear over GF(2), so the tags differ exactly when the tag of
    the residual-error string ``alice ^ bob`` is nonzero, the one tag computed
    (and only if a bit differs).  :func:`privacy_amplify` then hashes Bob's string
    to the final key, removing :data:`PA_SAFETY_BITS` beyond the leak, and a 0-bit
    key aborts; Alice's key, equal unless an error escaped the tag, is not computed.
    """
    if len(alice_bits) == len(bob_bits) == 0:
        return KeyResult(None, "no_sifted_bits", 0, np.zeros(0, dtype=np.uint8), None)
    qber, rem_alice, rem_bob, _ = estimate_qber(alice_bits, bob_bits, rng)
    if qber > ABORT_THRESHOLD:
        return KeyResult(qber, "qber_above_threshold", 0, np.zeros(0, dtype=np.uint8), None)
    if len(rem_alice) == 0:
        return KeyResult(qber, "nothing_left_after_sampling", 0, np.zeros(0, dtype=np.uint8), None)
    corrected_bob, leaked = reconcile(rem_alice, rem_bob, qber_est=qber, rng=rng)
    # 63-bit seeds from raw words: NumPy promises PCG64's raw stream across versions
    pa_seed = rng.random_raw() >> 1
    tag_seed = rng.random_raw() >> 1
    leaked += TAG_BITS
    residual = rem_alice ^ corrected_bob
    residual_errors = int(np.count_nonzero(residual))
    if residual_errors and _toeplitz_hash(residual, TAG_BITS, tag_seed).any():
        return KeyResult(qber, "key_verification_failed", leaked, np.zeros(0, dtype=np.uint8),
                         residual_errors)
    final_key = privacy_amplify(corrected_bob, qber, leaked + PA_SAFETY_BITS, pa_seed)
    return KeyResult(qber, None if final_key.size else "no_key_after_amplification", leaked,
                     final_key, residual_errors)


def run_session(config: SessionConfig, sink=None) -> SessionTranscript:
    """Run a full key-distribution session from one seed.

    The session builds its detection model, :func:`expected_rates` of the
    noisy source, the detector and Eve, once, and every tile draws from it.
    The block of ``BLOCK_INTERVALS`` intervals is the seeding unit: block
    ``b`` draws from its own generator, spawned from the seed with key
    ``(0, b)``, so an interval's record depends on the seed and its index
    alone, and a shorter session's records are a prefix of a longer one's.
    The tile of ``TILE_INTERVALS``, a divisor of ``BLOCK_INTERVALS``, is the
    working unit: each tile draws in order from its block's generator, is
    passed to ``sink(start, trials)``, if given (``start`` is its first
    interval's index), and is sifted.  The kept, sifted and agreeing counts
    are running sums over the tiles; the sifted tiles are joined once, for
    :func:`distil` with the generator spawned with key ``(1,)``.
    """
    state = add_white_noise(bell_phi_plus(), config.source_noise)
    rates = expected_rates(state, config.detector, config.eve)
    n = config.n_intervals
    alice_tiles, bob_tiles = [], []
    n_kept = n_agree = 0
    for start in range(0, n, TILE_INTERVALS):
        if start % BLOCK_INTERVALS == 0:
            block = start // BLOCK_INTERVALS
            rng = PCG64(config.seed, spawn_key=(0, block))
        trials = simulate_dwell_stream(rates, min(TILE_INTERVALS, n - start), rng)
        if sink is not None:
            sink(start, trials)
        alice, bob = sift(trials)
        alice_tiles.append(alice)
        bob_tiles.append(bob)
        n_kept += int(np.count_nonzero(trials.kept()))
        n_agree += int(np.count_nonzero(alice == bob))
    alice, bob = np.concatenate(alice_tiles), np.concatenate(bob_tiles)
    rng = PCG64(config.seed, spawn_key=(1,))
    key = distil(alice, bob, rng)
    return SessionTranscript(**vars(key), n_intervals=n, n_kept=n_kept, n_sifted=len(alice),
                             n_agree=n_agree)
