"""Detector events per dwell interval, with Poisson statistics.

One dwell interval is one protocol trial.  Pair production is Poissonian
(``pair_rate * dwell`` per interval, the defaults giving the operating point
of one coincidence per interval) and each detector adds independent Poisson
dark counts.  A trial is kept only when exactly one event landed on exactly
one detector per side, so kept trials are single-photon-faithful; a dark
count paired with an empty interval can still fake a trial with random
bits, which is the instrumental error channel.  Those outcomes have closed
forms (:func:`expected_rates`), and the stream samples each interval's
outcome from them with one uniform draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .optics import MeasBasis
from .states import EveConfig, TwoQubitState, basis_from_angle, eve_scenarios


@dataclass(frozen=True)
class DetectorConfig:
    dwell: float = 0.1          # seconds per counting interval
    pair_rate: float = 10.0     # entangled pairs per second
    dark_rate: float = 0.1      # dark counts per second per detector

    def __post_init__(self):
        if not (self.dwell >= 0 and self.pair_rate >= 0 and self.dark_rate >= 0):
            raise ValueError("detector rates and dwell must be nonnegative")
        if not (math.isfinite(self.pair_rate * self.dwell)
                and math.isfinite(self.dark_rate * self.dwell)):
            raise ValueError("pair_rate * dwell and dark_rate * dwell must be finite")


BASES = (MeasBasis.HV, MeasBasis.DA)


@dataclass(frozen=True, eq=False)
class Trials:
    """Every dwell interval of a stream, one numpy column per field: the
    columns of ``records.csv`` after its index, in its order.

    Row ``i`` is trial ``i``.  Bases are indices into :data:`BASES`; in
    ``eve_basis``, ``alice_bit`` and ``bob_bit`` the value -1 stands for
    "none" (Eve idle or acting along an unnamed axis; trial not kept, so a
    kept trial is one with bits, ``alice_bit >= 0``).
    """

    alice_basis: np.ndarray   # int8
    bob_basis: np.ndarray     # int8
    eve_basis: np.ndarray     # int8
    alice_bit: np.ndarray     # int8
    bob_bit: np.ndarray       # int8

    def __len__(self) -> int:
        return len(self.alice_basis)

    def sifted(self) -> np.ndarray:
        """Mask of the kept trials where both parties used the same basis."""
        return (self.alice_bit >= 0) & (self.alice_basis == self.bob_basis)


_BIT_PAIRS = ((1, 1), (1, 0), (0, 1), (0, 0))

# The joint projectors of every (Alice basis, Bob basis) of BASES, shape (2, 2, 4, 4, 4).
_BASIS_PROJECTORS = np.array([basis.projectors() for basis in BASES])
_TABLE_PROJECTORS = qmath.joint_projectors(_BASIS_PROJECTORS[:, None], _BASIS_PROJECTORS[None, :])


def _outcome_probs(rhos: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """Tr[rho P] of the broadcast stacks, clipped at zero and normalised over
    the last axis, the four joint outcomes."""
    probs = np.clip(qmath.expectation(rhos, projectors), 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def joint_probs(s: TwoQubitState, a: MeasBasis, b: MeasBasis) -> np.ndarray:
    """Joint outcome probabilities (p11, p10, p01, p00) for one pair."""
    return _outcome_probs(s.rho, qmath.joint_projectors(a.projectors(), b.projectors()))


def _cumulative_tables(states: list[TwoQubitState]) -> np.ndarray:
    """Cumulative joint-outcome tables over :data:`_BIT_PAIRS`.

    Shape ``(scenarios, 2, 2, 4)``, indexed by the scenario of
    :func:`~qkdlab.states.eve_scenarios` whose state is ``states[i]``,
    Alice's basis and Bob's basis; one stacked trace builds them all.
    """
    rhos = np.array([state.rho for state in states])[:, None, None, None]
    cum = np.cumsum(_outcome_probs(rhos, _TABLE_PROJECTORS), axis=-1)
    return cum / cum[..., -1:]


@dataclass(frozen=True, eq=False)
class Rates:
    """Closed-form outcome probabilities of one dwell interval.

    With ``lam = pair_rate * dwell`` pairs and ``mu = dark_rate * dwell``
    dark counts per detector expected per interval, an interval is kept in
    one of two shapes:

    * one pair and no dark count, ``single_pair = lam e^-lam e^-4mu``, whose
      bits follow the pair's joint outcome table;
    * no pair and one dark count per side,
      ``dark_only = e^-lam (2mu e^-2mu)^2``, each of the four bit pairs with
      ``dark_only / 4``.

    ``qber`` is the error rate of the kept intervals with equal bases when
    both parties pick HV or DA at random, ``(single_pair q + dark_only / 2)
    / kept``, where ``q`` is the pair's error probability averaged over the
    (HV, HV) and (DA, DA) settings and weighted over Eve's scenarios; it is
    nan when no interval can be kept.

    ``outcome_cdf[scenario, a, b]`` holds the cumulative probabilities of
    the eight kept outcomes in the order pair (1,1), (1,0), (0,1), (0,0),
    then dark (1,1), (1,0), (0,1), (0,0); a uniform at or above the last one
    is an interval not kept.  Its last five columns, ``single_pair +
    j dark_only / 4`` for ``j = 0 .. 4``, are the same in every row.
    """

    single_pair: float
    dark_only: float
    qber: float
    outcome_cdf: np.ndarray
    eve: EveConfig   # whose scenarios the tables weigh; the sampler draws her choices

    @property
    def kept(self) -> float:
        return self.single_pair + self.dark_only


def expected_rates(s: TwoQubitState, detector: DetectorConfig, eve: EveConfig) -> Rates:
    """The :class:`Rates` of a dwell interval; the sampler draws from them."""
    lam = detector.pair_rate * detector.dwell
    mu = detector.dark_rate * detector.dwell
    p1 = lam * math.exp(-lam) * math.exp(-4.0 * mu)
    p0 = math.exp(-lam) * (2.0 * mu * math.exp(-2.0 * mu)) ** 2
    weights, states = eve_scenarios(s, eve)
    cum = _cumulative_tables(states)
    # errors are the (1,0) and (0,1) outcomes: cum[2] - cum[0]
    q = float(weights @ np.mean([cum[:, a, a, 2] - cum[:, a, a, 0] for a in (0, 1)], axis=0))
    kept = p1 + p0
    qber = (p1 * q + p0 / 2.0) / kept if kept > 0 else math.nan
    dark = np.broadcast_to(p1 + p0 * np.arange(1, 5) / 4.0, cum.shape)
    cdf = np.concatenate([p1 * cum, dark], axis=-1)
    cdf.setflags(write=False)
    return Rates(single_pair=p1, dark_only=p0, qber=qber, outcome_cdf=cdf, eve=eve)


# Bits of each outcome index of Rates.outcome_cdf; index 8 is "not kept".
_OUTCOME_BITS = np.array(list(_BIT_PAIRS) * 2 + [(-1, -1)], dtype=np.int8).T


def _uniform(words: np.ndarray) -> np.ndarray:
    """The top 53 bits of 64-bit words as floats in [0, 1), as numpy's
    ``Generator.random`` maps them."""
    return (words >> 11) * 2.0 ** -53


def simulate_dwell_stream(rates: Rates, n_intervals: int, rng) -> Trials:
    """Draw ``n_intervals`` dwell intervals from ``rates``, as columns.

    Both parties draw HV or DA uniformly each interval.  Identical
    generators reproduce identical trials.

    Interval ``i`` takes the generator's ``i``-th 64-bit word (the ``i``-th
    pair of words while Eve is present), so the first ``k`` rows of a
    stream do not depend on its length, and a stream simulated in pieces
    from one generator equals the stream simulated at once.  Bits 0 and 1
    of the first word pick Alice's and Bob's bases, and its top 53 bits are
    the uniform that takes the outcome of ``rates.outcome_cdf`` it falls
    in: one pair with bits from the joint outcome tables, dark counts only
    with random bits, or not kept.  The second word decides, the same way,
    whether ``rates.eve`` acts, and its bit 0 picks her basis under
    ``random_per_trial``.
    """
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    n, eve = n_intervals, rates.eve
    words = rng.bit_generator.random_raw((n, 1 if eve.mode == "absent" else 2))
    alice_basis = (words[:, 0] & 1).astype(np.int8)
    bob_basis = (words[:, 0] >> 1 & 1).astype(np.int8)

    # scenario 0 is Eve idle; 1 + choice indexes her basis, as in eve_scenarios
    eve_applied = np.zeros(n, dtype=bool)
    choice, named = 0, -1
    if eve.mode != "absent":
        eve_applied = _uniform(words[:, 1]) < eve.intercept_fraction
        if eve.basis_policy == "random_per_trial":
            choice = named = (words[:, 1] & 1).astype(np.int8)
        else:
            basis = basis_from_angle(eve.basis_angle)
            named = -1 if basis is None else BASES.index(basis)
    eve_basis = np.where(eve_applied, named, -1).astype(np.int8)
    scenario = np.where(eve_applied, 1 + choice, 0).astype(np.int8)

    cdf = rates.outcome_cdf.reshape(-1, 8)
    row = scenario * 4 + alice_basis * 2 + bob_basis
    u = _uniform(words[:, 0])
    outcome = np.zeros(n, dtype=np.int8)   # searchsorted(cdf[row], u, side="right")
    for column in cdf[:, :3].T:
        outcome += column.take(row) <= u
    for threshold in cdf[0, 3:].tolist():  # the same in every row
        outcome += threshold <= u
    return Trials(alice_basis=alice_basis, bob_basis=bob_basis, eve_basis=eve_basis,
                  alice_bit=_OUTCOME_BITS[0].take(outcome),
                  bob_bit=_OUTCOME_BITS[1].take(outcome))


CSV_COLUMNS = ("trial_index", "alice_basis", "bob_basis", "eve_basis",
               "alice_bit", "bob_bit")

# Field texts of the values 0, 1 and -1 ("none") at index ``value & 3``;
# -1 & 3 is 3, and 2 never occurs.
_BASIS_FIELD = tuple(b.value for b in BASES) + ("", "")
_BIT_FIELD = ("0", "1", "", "")

# Everything after the index of a records.csv row, at the code that
# :func:`records_to_csv` packs from its five fields: 4**5 = 1024 entries.
_RECORD_SUFFIX = tuple(map("".join, itertools.product(
    *[[f",{text}" for text in _BASIS_FIELD]] * 3, *[[f",{text}" for text in _BIT_FIELD]] * 2,
    ("\n",))))


# The suffixes' ASCII bytes, one 16-byte item each, zero-padded to that
# width; no field text holds a NUL byte, so the zero padding is what a row drops.
# The longest suffix is 14 bytes, but numpy's ``take`` copies 16-byte items on
# a fast path: at 14 bytes the writer took about 10 % longer.
_RECORD_ROWS = np.array(_RECORD_SUFFIX, dtype="S16")

# An index is its quotient by this modulus, in decimal, then its low four
# digits; the quotient is one constant over a run that crosses no multiple.
_LOW_MODULUS = 10 ** 4


def _low_digit_table() -> np.ndarray:
    """The ASCII digits of 0000 to 9999, one four-byte item each."""
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    table = np.empty((10,) * 4 + (4,), dtype=np.uint8)
    for col in range(4):
        table[..., col] = digits.reshape((10,) + (1,) * (3 - col))
    return table.reshape(_LOW_MODULUS, 4).view("V4")[:, 0]


_LOW_DIGITS = _low_digit_table()


def records_to_csv(trials: Trials, fh, start: int = 0) -> None:
    """Write one row per dwell interval, numbered from ``start``, to the open
    text file ``fh``; the header goes before row 0, so a session's tiles
    written in order with their start indices make the whole file.

    Absent bases and bits are empty fields; a kept trial is a row with both
    bits.  The five fields after the index pack two bits each into a 10-bit
    code, so each row is its index plus one entry of a precomputed suffix
    table.  Rows are built as bytes by numpy: they split at each multiple of
    10**4 into runs of at most 10**4 consecutive indices with one quotient by
    10**4, and a run is one record array: the quotient's digits broadcast
    (none for a zero quotient), a slice of the table of low four digits
    (their leading zeros set to NUL without a quotient) and the rows'
    suffixes, one ``take`` of 16-byte items.  Dropping its zero bytes leaves
    the rows' text in order.
    """
    code = np.zeros(len(trials), dtype=np.int16)
    for column in (trials.alice_basis, trials.bob_basis, trials.eve_basis,
                   trials.alice_bit, trials.bob_bit):
        code <<= 2
        code |= column & 3
    if start == 0:
        fh.write(",".join(CSV_COLUMNS) + "\n")
    end = start + len(code)
    cuts = list(range((start // _LOW_MODULUS + 1) * _LOW_MODULUS, end, _LOW_MODULUS))
    for a, b in zip([start] + cuts, cuts + [end]):
        high, low = divmod(a, _LOW_MODULUS)
        digits = str(high).encode("ascii") if high else b""
        rows = np.empty(b - a, dtype=[("high", f"V{len(digits)}"), ("low", "V4"),
                                      ("suffix", _RECORD_ROWS.dtype)])
        rows["high"] = digits
        rows["low"] = _LOW_DIGITS[low:low + b - a]
        rows["suffix"] = _RECORD_ROWS.take(code[a - start:b - start])
        raw = rows.view(np.uint8).reshape(b - a, -1)
        if not high:   # the leading zeros of the indices below 1000 go
            for col in range(3):
                raw[:max(10 ** (3 - col) - a, 0), col] = 0
        fh.write(str(raw[raw != 0], "ascii"))   # decodes the buffer, no bytes copy
