"""Detector events per dwell interval, with Poisson statistics.

One dwell interval is one protocol trial.  Pair production is Poissonian
(``pair_rate * dwell`` per interval, the defaults giving the operating point
of one coincidence per interval) and each detector adds independent Poisson
dark counts.  A trial is kept only when exactly one event landed on exactly
one detector per side, so kept trials are single-photon-faithful; a dark
count paired with an empty interval can still fake a trial with random
bits, which is the instrumental error channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .optics import MeasBasis
from .states import (EveConfig, TwoQubitState, basis_from_angle, dephase_bob,
                     intercept_branches)


@dataclass(frozen=True)
class DetectorConfig:
    dwell: float = 0.1          # seconds per counting interval
    pair_rate: float = 10.0     # entangled pairs per second
    dark_rate: float = 0.1      # dark counts per second per detector

    def __post_init__(self):
        if self.dwell < 0 or self.pair_rate < 0 or self.dark_rate < 0:
            raise ValueError("detector rates and dwell must be nonnegative")


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
    eve_applied: np.ndarray   # bool
    eve_basis: np.ndarray     # int8
    alice_bit: np.ndarray     # int8
    bob_bit: np.ndarray       # int8
    kept: np.ndarray          # bool

    def __len__(self) -> int:
        return len(self.kept)

    def sifted(self) -> np.ndarray:
        """Mask of the kept trials where both parties used the same basis."""
        return self.kept & (self.alice_basis == self.bob_basis)


_PROJ4_CACHE: dict[tuple[str, str], list[np.ndarray]] = {}


def _joint_projectors(a: MeasBasis, b: MeasBasis) -> list[np.ndarray]:
    key = (a.value, b.value)
    if key not in _PROJ4_CACHE:
        ap, am = a.projectors()
        bp, bm = b.projectors()
        # order matches joint_probs: (1,1), (1,0), (0,1), (0,0)
        _PROJ4_CACHE[key] = [qmath.tensor(ap, bp), qmath.tensor(ap, bm),
                             qmath.tensor(am, bp), qmath.tensor(am, bm)]
    return _PROJ4_CACHE[key]


_BIT_PAIRS = ((1, 1), (1, 0), (0, 1), (0, 0))


def joint_probs(s: TwoQubitState, a: MeasBasis, b: MeasBasis) -> np.ndarray:
    """Joint outcome probabilities (p11, p10, p01, p00) for one pair."""
    rho = s.rho
    probs = np.array([np.trace(rho @ proj).real for proj in _joint_projectors(a, b)])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def _eve_scenarios(s: TwoQubitState,
                   eve: EveConfig) -> list[list[tuple[float, TwoQubitState | None]]]:
    """Branches ``(weight, state)`` of the pair after Eve acts, one list per
    basis she may pick (HV then DA under ``random_per_trial``)."""
    if eve.mode == "absent":
        return []
    angles = [0.0, 45.0] if eve.basis_policy == "random_per_trial" else [eve.basis_angle]
    if eve.mode == "dephasing":
        return [[(1.0, dephase_bob(s, angle, eve.strength))] for angle in angles]
    return [intercept_branches(s, basis_from_angle(angle)) for angle in angles]


def _cumulative_tables(s: TwoQubitState, eve: EveConfig) -> np.ndarray:
    """Cumulative joint-outcome tables over :data:`_BIT_PAIRS`.

    Shape ``(scenarios, 2, 2, 4)``, indexed by scenario (0: Eve idle,
    ``1 + k``: Eve acting with the k-th entry of :func:`_eve_scenarios`),
    Alice's basis and Bob's basis.  Eve's outcome is not recorded, so her
    branches are summed into one table.
    """
    scenarios = [[(1.0, s)]] + _eve_scenarios(s, eve)
    tables = np.zeros((len(scenarios), 2, 2, 4))
    for i, branches in enumerate(scenarios):
        for a, b in np.ndindex(2, 2):
            probs = sum(p * joint_probs(state, BASES[a], BASES[b])
                        for p, state in branches if state is not None)
            cum = np.cumsum(probs)
            tables[i, a, b] = cum / cum[-1]
    return tables


def simulate_dwell_stream(s: TwoQubitState, config: DetectorConfig, n_intervals: int,
                          basis_policy, eve: EveConfig, rng) -> Trials:
    """Simulate ``n_intervals`` dwell intervals and return them as columns.

    ``basis_policy`` is either the string ``"random"`` (both parties draw HV
    or DA uniformly each interval) or a fixed ``(alice, bob)`` pair of
    :class:`MeasBasis`.  Every column is drawn at once from the supplied
    generator; identical seeds reproduce identical trials.

    A kept interval has one of two shapes: exactly one pair and no dark
    count, whose bits come from the joint outcome tables, or no pair and one
    dark count per side, whose detectors give the bits.  Intervals with two
    or more pairs are never kept, so their outcomes are never drawn.
    """
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    n = n_intervals
    if basis_policy == "random":
        alice_basis = rng.integers(2, size=n, dtype=np.int8)
        bob_basis = rng.integers(2, size=n, dtype=np.int8)
    elif (isinstance(basis_policy, (tuple, list)) and len(basis_policy) == 2
          and all(b in BASES for b in basis_policy)):
        alice_basis = np.full(n, BASES.index(basis_policy[0]), dtype=np.int8)
        bob_basis = np.full(n, BASES.index(basis_policy[1]), dtype=np.int8)
    else:
        raise ValueError("basis_policy must be 'random' or an (alice, bob) pair "
                         f"of HV/DA bases, not {basis_policy!r}")

    # scenario 0 is Eve idle; 1 + choice indexes her basis in _eve_scenarios
    eve_applied = np.zeros(n, dtype=bool)
    choice, named = 0, -1
    if eve.mode != "absent":
        eve_applied = rng.random(n) < eve.intercept_fraction
        if eve.basis_policy == "random_per_trial":
            choice = named = rng.integers(2, size=n, dtype=np.int8)
        else:
            basis = basis_from_angle(eve.basis_angle)
            named = -1 if basis is None else BASES.index(basis)
    eve_basis = np.where(eve_applied, named, -1).astype(np.int8)
    scenario = np.where(eve_applied, 1 + choice, 0)

    n_pairs = rng.poisson(config.pair_rate * config.dwell, size=n)
    # dark counts per detector: alice 0, alice 1, bob 0, bob 1
    darks = rng.poisson(config.dark_rate * config.dwell, size=(4, n))
    dark_alice, dark_bob = darks[0] + darks[1], darks[2] + darks[3]
    single_pair = (n_pairs == 1) & (dark_alice == 0) & (dark_bob == 0)
    dark_only = (n_pairs == 0) & (dark_alice == 1) & (dark_bob == 1)

    alice_bit = np.full(n, -1, dtype=np.int8)
    bob_bit = np.full(n, -1, dtype=np.int8)
    alice_bit[dark_only] = darks[1, dark_only]
    bob_bit[dark_only] = darks[3, dark_only]

    rows = _cumulative_tables(s, eve)[scenario[single_pair], alice_basis[single_pair],
                                      bob_basis[single_pair]]
    u = rng.random(len(rows))
    k = np.minimum(np.count_nonzero(rows <= u[:, None], axis=1), 3)  # searchsorted, side="right"
    bits = np.array(_BIT_PAIRS, dtype=np.int8)[k]
    alice_bit[single_pair] = bits[:, 0]
    bob_bit[single_pair] = bits[:, 1]

    return Trials(alice_basis=alice_basis, bob_basis=bob_basis,
                  eve_applied=eve_applied, eve_basis=eve_basis,
                  alice_bit=alice_bit, bob_bit=bob_bit,
                  kept=single_pair | dark_only)


CSV_COLUMNS = ("trial_index", "alice_basis", "bob_basis", "eve_basis",
               "alice_bit", "bob_bit", "kept")


_BASIS_TEXT = np.array([b.value for b in BASES] + [""])   # index -1 -> ""
_BIT_TEXT = np.array(["0", "1", ""])


def _write_csv(header, columns, path) -> str:
    """Join equal-length string columns into CSV text; writes to ``path``
    when given, returns the text."""
    lines = columns[0]
    for column in columns[1:]:
        lines = np.char.add(np.char.add(lines, ","), column)
    text = "\n".join([",".join(header), *lines.tolist()]) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def records_to_csv(trials: Trials, path=None) -> str:
    """One row per dwell interval; writes to ``path`` when given, returns
    the text.  Absent bases and bits are empty fields."""
    return _write_csv(CSV_COLUMNS, [
        np.arange(len(trials)).astype(str),
        _BASIS_TEXT[trials.alice_basis], _BASIS_TEXT[trials.bob_basis],
        _BASIS_TEXT[trials.eve_basis],
        _BIT_TEXT[trials.alice_bit], _BIT_TEXT[trials.bob_bit],
        trials.kept.astype(np.int8).astype(str),
    ], path)


SIFTED_COLUMNS = ("trial", "alice", "bob", "agree")


def sifted_to_csv(trials: Trials, path=None) -> str:
    """One row per sifted trial: index, both bits and whether they agree."""
    mask = trials.sifted()
    alice, bob = trials.alice_bit[mask], trials.bob_bit[mask]
    return _write_csv(SIFTED_COLUMNS, [
        np.flatnonzero(mask).astype(str), _BIT_TEXT[alice], _BIT_TEXT[bob],
        (alice == bob).astype(np.int8).astype(str),
    ], path)
