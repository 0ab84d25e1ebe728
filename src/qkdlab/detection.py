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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .optics import MeasBasis
from .states import EveConfig, TwoQubitState, basis_from_angle, dephase_bob


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
    """Every dwell interval of a stream, one numpy column per field.

    Row ``i`` is trial ``i``.  Bases are indices into :data:`BASES`; in
    ``eve_basis``, ``alice_bit`` and ``bob_bit`` the value -1 stands for
    "none" (Eve idle or acting along an unnamed axis; trial not kept).
    """

    alice_basis: np.ndarray   # int8
    bob_basis: np.ndarray     # int8
    eve_basis: np.ndarray     # int8
    alice_bit: np.ndarray     # int8
    bob_bit: np.ndarray       # int8
    kept: np.ndarray          # bool

    def __len__(self) -> int:
        return len(self.kept)

    def sifted(self) -> np.ndarray:
        """Mask of the kept trials where both parties used the same basis."""
        return self.kept & (self.alice_basis == self.bob_basis)


def _joint_projectors(a: MeasBasis, b: MeasBasis) -> list[np.ndarray]:
    ap, am = a.projectors()
    bp, bm = b.projectors()
    # order matches joint_probs: (1,1), (1,0), (0,1), (0,0)
    return [qmath.tensor(ap, bp), qmath.tensor(ap, bm),
            qmath.tensor(am, bp), qmath.tensor(am, bm)]


_BIT_PAIRS = ((1, 1), (1, 0), (0, 1), (0, 0))


def joint_probs(s: TwoQubitState, a: MeasBasis, b: MeasBasis) -> np.ndarray:
    """Joint outcome probabilities (p11, p10, p01, p00) for one pair."""
    rho = s.rho
    probs = np.array([np.trace(rho @ proj).real for proj in _joint_projectors(a, b)])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def _cumulative_tables(s: TwoQubitState, eve: EveConfig) -> np.ndarray:
    """Cumulative joint-outcome tables over :data:`_BIT_PAIRS`.

    Shape ``(scenarios, 2, 2, 4)``, indexed by scenario (0: Eve idle,
    ``1 + k``: Eve acting in her k-th basis, HV then DA under
    ``random_per_trial``), Alice's basis and Bob's basis.  Eve's outcome is
    not recorded, so intercept-resend enters as its average over her bit:
    full dephasing of photon 2 along her basis.
    """
    states = [s]
    if eve.mode != "absent":
        angles = [0.0, 45.0] if eve.basis_policy == "random_per_trial" else [eve.basis_angle]
        gamma = eve.strength if eve.mode == "dephasing" else 1.0
        states += [dephase_bob(s, angle, gamma) for angle in angles]
    tables = np.zeros((len(states), 2, 2, 4))
    for i, state in enumerate(states):
        for a, b in np.ndindex(2, 2):
            cum = np.cumsum(joint_probs(state, BASES[a], BASES[b]))
            tables[i, a, b] = cum / cum[-1]
    return tables


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

    @property
    def kept(self) -> float:
        return self.single_pair + self.dark_only


@functools.lru_cache(maxsize=8)
def expected_rates(s: TwoQubitState, detector: DetectorConfig, eve: EveConfig) -> Rates:
    """The :class:`Rates` of a dwell interval; the sampler draws from them.

    Cached, because a session asks once per block with the same arguments.
    """
    lam = detector.pair_rate * detector.dwell
    mu = detector.dark_rate * detector.dwell
    p1 = lam * math.exp(-lam) * math.exp(-4.0 * mu)
    p0 = math.exp(-lam) * (2.0 * mu * math.exp(-2.0 * mu)) ** 2
    cum = _cumulative_tables(s, eve)
    # scenario 0 is Eve idle; her k scenarios share the intercepted fraction
    k = len(cum) - 1
    weights = np.array([1.0 - eve.intercept_fraction] + [eve.intercept_fraction / k] * k
                       if k else [1.0])
    # errors are the (1,0) and (0,1) outcomes: cum[2] - cum[0]
    q = float(weights @ np.mean([cum[:, a, a, 2] - cum[:, a, a, 0] for a in (0, 1)], axis=0))
    kept = p1 + p0
    qber = (p1 * q + p0 / 2.0) / kept if kept > 0 else math.nan
    dark = np.broadcast_to(p1 + p0 * np.arange(1, 5) / 4.0, cum.shape)
    cdf = np.concatenate([p1 * cum, dark], axis=-1)
    cdf.setflags(write=False)
    return Rates(single_pair=p1, dark_only=p0, qber=qber, outcome_cdf=cdf)


# Bits of each outcome index of Rates.outcome_cdf; index 8 is "not kept".
_OUTCOME_BITS = np.array(list(_BIT_PAIRS) * 2 + [(-1, -1)], dtype=np.int8).T


def _uniform(words: np.ndarray) -> np.ndarray:
    """The top 53 bits of 64-bit words as floats in [0, 1), as numpy's
    ``Generator.random`` maps them."""
    return (words >> 11) * 2.0 ** -53


def simulate_dwell_stream(s: TwoQubitState, config: DetectorConfig, n_intervals: int,
                          eve: EveConfig, rng) -> Trials:
    """Simulate ``n_intervals`` dwell intervals and return them as columns.

    Both parties draw HV or DA uniformly each interval.  Identical
    generators reproduce identical trials.

    Interval ``i`` takes the generator's ``i``-th 64-bit word (the ``i``-th
    pair of words while Eve is present), so the first ``k`` rows of a
    stream do not depend on its length.  Bits 0 and 1 of the first word
    pick Alice's and Bob's bases, and its top 53 bits are the uniform that
    takes the outcome of :func:`expected_rates` it falls in: one pair with
    bits from the joint outcome tables, dark counts only with random bits,
    or not kept.  The second word decides, the same way, whether Eve acts,
    and its bit 0 picks her basis under ``random_per_trial``.
    """
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    n = n_intervals
    words = rng.bit_generator.random_raw((n, 1 if eve.mode == "absent" else 2))
    alice_basis = (words[:, 0] & 1).astype(np.int8)
    bob_basis = (words[:, 0] >> 1 & 1).astype(np.int8)

    # scenario 0 is Eve idle; 1 + choice indexes her basis in _cumulative_tables
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

    cdf = expected_rates(s, config, eve).outcome_cdf.reshape(-1, 8)
    row = scenario * 4 + alice_basis * 2 + bob_basis
    u = _uniform(words[:, 0])
    outcome = np.zeros(n, dtype=np.int8)   # searchsorted(cdf[row], u, side="right")
    for column in cdf[:, :3].T:
        outcome += column.take(row) <= u
    for threshold in cdf[0, 3:].tolist():  # the same in every row
        outcome += threshold <= u
    return Trials(alice_basis=alice_basis, bob_basis=bob_basis, eve_basis=eve_basis,
                  alice_bit=_OUTCOME_BITS[0].take(outcome),
                  bob_bit=_OUTCOME_BITS[1].take(outcome), kept=outcome < 8)


CSV_COLUMNS = ("trial_index", "alice_basis", "bob_basis", "eve_basis",
               "alice_bit", "bob_bit", "kept")

# Intervals per block: a session simulates, sifts and writes its intervals
# this many at a time, and the records.csv writer builds this many rows at once.
BLOCK_INTERVALS = 1 << 16

# Field texts of the values 0, 1 and -1 ("none") at index ``value & 3``;
# -1 & 3 is 3, and 2 never occurs.
_BASIS_FIELD = tuple(b.value for b in BASES) + ("", "")
_BIT_FIELD = ("0", "1", "", "")

# Everything after the index of a records.csv row, at the code that
# :func:`records_to_csv` packs from its six fields: 4**5 * 2 = 2048 entries.
_RECORD_SUFFIX = tuple(map("".join, itertools.product(
    *[[f",{text}" for text in _BASIS_FIELD]] * 3, *[[f",{text}" for text in _BIT_FIELD]] * 2,
    (",0\n", ",1\n"))))


def _byte_table(suffixes) -> np.ndarray:
    """The ASCII bytes of ``suffixes``, one zero-padded row per entry."""
    encoded = [text.encode("ascii") for text in suffixes]
    width = max(map(len, encoded))
    return np.frombuffer(b"".join(text.ljust(width, b"\0") for text in encoded),
                         dtype=np.uint8).reshape(len(encoded), width)


# No field text holds a NUL byte, so the zero padding is what a row drops.
_RECORD_TABLE = _byte_table(_RECORD_SUFFIX)
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def _write_rows(fh, header, index: np.ndarray, code: np.ndarray, table) -> None:
    """Write the header, if any, then row ``index[i]`` in decimal followed by
    the bytes of ``table[code[i]]`` for every ``i``, ``BLOCK_INTERVALS`` rows
    at a time.

    ``index`` must increase, so a chunk splits into runs of one decimal width
    ``w``.  A run is a byte matrix: ``w`` digit columns, then the run's table
    rows; dropping its zero bytes leaves the rows' text in order.
    """
    if header:
        fh.write(",".join(header) + "\n")
    for start in range(0, len(code), BLOCK_INTERVALS):
        chunk = index[start:start + BLOCK_INTERVALS]
        codes = code[start:start + BLOCK_INTERVALS]
        lo, hi = len(str(chunk[0])), len(str(chunk[-1]))
        cuts = np.searchsorted(chunk, [10 ** w for w in range(lo, hi)]).tolist()
        for w, a, b in zip(range(lo, hi + 1), [0] + cuts, cuts + [len(chunk)]):
            rows = np.empty((b - a, w + table.shape[1]), dtype=np.uint8)
            rest = chunk[a:b]
            for col in range(w - 1, -1, -1):
                rest, digit = np.divmod(rest, 10)
                rows[:, col] = _DIGITS.take(digit)
            rows[:, w:] = table.take(codes[a:b], axis=0)
            fh.write(rows[rows != 0].tobytes().decode("ascii"))


def records_to_csv(trials: Trials, fh, start: int = 0) -> None:
    """Write one row per dwell interval, numbered from ``start``, to the open
    text file ``fh``; the header goes before row 0, so a session's blocks
    written in order with their start indices make the whole file.

    Absent bases and bits are empty fields.  The six fields after the index
    pack two bits each (one for ``kept``) into an 11-bit code, so each row is
    its index plus one entry of a precomputed suffix table.  Rows are built
    as bytes by numpy, ``BLOCK_INTERVALS`` at a time.
    """
    code = np.zeros(len(trials), dtype=np.int16)
    for column in (trials.alice_basis, trials.bob_basis, trials.eve_basis,
                   trials.alice_bit, trials.bob_bit):
        code <<= 2
        code |= column & 3
    code <<= 1
    code |= trials.kept
    _write_rows(fh, CSV_COLUMNS if start == 0 else (),
                np.arange(start, start + len(trials)), code, _RECORD_TABLE)
