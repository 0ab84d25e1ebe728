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

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .optics import MeasBasis
from .pcg64 import uniform
from .states import EveConfig, TwoQubitState, add_white_noise, eve_scenarios, mixture


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
    columns of ``records.csv``, in its order.

    Row ``i`` is trial ``i``, as it is row ``i`` after the header of
    ``records.csv``.  Bases are indices into :data:`BASES`; in
    ``eve_basis``, ``alice_bit`` and ``bob_bit`` the value -1 stands for
    "none" (Eve idle or acting along an unnamed axis; trial not kept).
    """

    alice_basis: np.ndarray   # int8
    bob_basis: np.ndarray     # int8
    eve_basis: np.ndarray     # int8
    alice_bit: np.ndarray     # int8
    bob_bit: np.ndarray       # int8

    def __len__(self) -> int:
        return len(self.alice_basis)

    def kept(self) -> np.ndarray:
        """Mask of the kept trials: those with both bits."""
        return (self.alice_bit >= 0) & (self.bob_bit >= 0)

    def sifted(self) -> np.ndarray:
        """Mask of the kept trials where both parties used the same basis."""
        return self.kept() & (self.alice_basis == self.bob_basis)


_BIT_PAIRS = ((1, 1), (1, 0), (0, 1), (0, 0))

# The joint projectors of every (Alice basis, Bob basis) of BASES, shape (2, 2, 4, 4, 4).
_BASIS_PROJECTORS = np.array([basis.projectors() for basis in BASES])
_TABLE_PROJECTORS = qmath.joint_projectors(_BASIS_PROJECTORS[:, None], _BASIS_PROJECTORS[None, :])
# Sifted error, bits (1,0) or (0,1), averaged over the (HV, HV) and (DA, DA) settings.
_SIFTED_ERROR = sum(_TABLE_PROJECTORS[a, a, 1] + _TABLE_PROJECTORS[a, a, 2] for a in (0, 1)) / 2.0


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

    ``qber`` is the sifted error rate when both parties pick HV or DA at
    random: the Born rule on the kept state, the mixture of Eve's scenarios
    (:func:`~qkdlab.states.after_eve`) with I/4 (a dark-only interval) at
    weight ``dark_only / kept``; it is nan when no interval can be kept.

    ``outcome_cdf[scenario, a, b]`` holds the cumulative probabilities of
    the eight kept outcomes in the order pair (1,1), (1,0), (0,1), (0,0),
    then dark (1,1), (1,0), (0,1), (0,0); a uniform at or above the last one
    is an interval not kept.  Its last five columns, ``single_pair +
    j dark_only / 4`` for ``j = 0 .. 4``, are the same in every row.
    ``eve_bases`` holds the basis Eve records in each scenario, as an index
    into :data:`BASES` (-1: none); she acts with ``intercept_fraction``.
    """

    single_pair: float
    dark_only: float
    qber: float
    outcome_cdf: np.ndarray
    intercept_fraction: float
    eve_bases: np.ndarray

    @property
    def kept(self) -> float:
        return self.single_pair + self.dark_only


def expected_rates(s: TwoQubitState, detector: DetectorConfig, eve: EveConfig) -> Rates:
    """The :class:`Rates` of a dwell interval for the pair ``s`` in each of
    Eve's scenarios (:func:`~qkdlab.states.eve_scenarios`), whose mixture by
    their weights is the kept state ``qber`` reads; the sampler draws from them."""
    lam = detector.pair_rate * detector.dwell
    mu = detector.dark_rate * detector.dwell
    p1 = lam * math.exp(-lam) * math.exp(-4.0 * mu)
    p0 = math.exp(-lam) * (2.0 * mu * math.exp(-2.0 * mu)) ** 2
    weights, states, bases = eve_scenarios(s, eve)
    # each scenario's cumulative joint-outcome tables over _BIT_PAIRS, shape
    # (scenarios, 2, 2, 4) by Alice's and Bob's basis: one stacked trace
    rhos = np.array([state.rho for state in states])[:, None, None, None]
    probs = np.clip(qmath.expectation(rhos, _TABLE_PROJECTORS), 0.0, None)
    cum = np.cumsum(probs / probs.sum(axis=-1, keepdims=True), axis=-1)
    cum = cum / cum[..., -1:]
    kept = p1 + p0
    qber = math.nan
    if kept > 0:
        rho_kept = add_white_noise(mixture(weights, states), p0 / kept).rho
        qber = float(qmath.expectation(rho_kept, _SIFTED_ERROR))
    dark = np.broadcast_to(p1 + p0 * np.arange(1, 5) / 4.0, cum.shape)
    cdf = np.concatenate([p1 * cum, dark], axis=-1)
    eve_bases = np.array([-1 if b is None else BASES.index(b) for b in bases], dtype=np.int8)
    for column in (cdf, eve_bases):
        column.setflags(write=False)
    return Rates(single_pair=p1, dark_only=p0, qber=qber, outcome_cdf=cdf,
                 intercept_fraction=eve.intercept_fraction, eve_bases=eve_bases)


# Bits of each outcome index of Rates.outcome_cdf; index 8 is "not kept".
_OUTCOME_BITS = np.array(list(_BIT_PAIRS) * 2 + [(-1, -1)], dtype=np.int8).T


def simulate_dwell_stream(rates: Rates, n_intervals: int, rng) -> Trials:
    """Draw ``n_intervals`` dwell intervals from ``rates``, as columns.

    Both parties draw HV or DA uniformly each interval.  ``rng`` is a bit
    generator with ``random_raw``, :class:`~qkdlab.pcg64.PCG64` or NumPy's
    ``PCG64``; identical generators reproduce identical trials.

    Interval ``i`` takes the generator's ``i``-th 64-bit word (the ``i``-th
    pair of words while Eve is present), so the first ``k`` rows of a
    stream do not depend on its length, and a stream simulated in pieces
    from one generator equals the stream simulated at once.  Bits 0 and 1
    of the first word pick Alice's and Bob's bases, and its top 53 bits
    (:func:`~qkdlab.pcg64.uniform`) pick the outcome of ``rates.outcome_cdf``
    they fall in: one pair with bits from the joint outcome tables, dark
    counts only with random bits, or not kept.  The second word decides,
    the same way, whether Eve acts, and its bit 0 picks her basis when she
    has two; the scenario's ``rates.eve_bases`` entry is the trial's ``eve_basis``.
    """
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    n, k = n_intervals, len(rates.eve_bases) - 1   # Eve's bases; none when she is absent
    words = rng.random_raw((n, 2 if k else 1))
    alice_basis = (words[:, 0] & 1).astype(np.int8)
    bob_basis = (words[:, 0] >> 1 & 1).astype(np.int8)

    # scenario 0 is Eve idle; 1 + j is Eve acting in her j-th basis, as in eve_scenarios
    scenario = np.zeros(n, dtype=np.int8)
    if k:   # 1 or 2, so k - 1 masks bit 0 or nothing
        acts = uniform(words[:, 1]) < rates.intercept_fraction
        scenario = np.where(acts, 1 + (words[:, 1] & (k - 1)).astype(np.int8), 0)
    eve_basis = rates.eve_bases.take(scenario)

    cdf = rates.outcome_cdf.reshape(-1, 8)
    row = scenario * 4 + alice_basis * 2 + bob_basis
    u = uniform(words[:, 0])
    outcome = np.zeros(n, dtype=np.int8)   # searchsorted(cdf[row], u, side="right")
    for column in cdf[:, :3].T:
        outcome += column.take(row) <= u
    for threshold in cdf[0, 3:].tolist():  # the same in every row
        outcome += threshold <= u
    return Trials(alice_basis=alice_basis, bob_basis=bob_basis, eve_basis=eve_basis,
                  alice_bit=_OUTCOME_BITS[0].take(outcome),
                  bob_bit=_OUTCOME_BITS[1].take(outcome))
