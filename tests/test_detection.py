import collections
import csv
import dataclasses
import io
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from qkdlab import detection, states
from qkdlab.cli import CSV_COLUMNS, load_config, records_to_csv
from qkdlab.detection import (BASES, DetectorConfig, Trials, expected_rates,
                              simulate_dwell_stream)
from qkdlab.optics import MeasBasis, PolState
from qkdlab.pcg64 import PCG64
from qkdlab.protocol import TILE_INTERVALS
from qkdlab.states import (EveConfig, TwoQubitState, add_white_noise, after_eve, bell_phi_plus,
                           bell_phi_plus_ket, eve_scenarios)
from qkdlab.tomography import BellConfig

from conftest import (assert_close, binomial_sigma, intercept_branches, kron_outcome_probs,
                      random_density)

HV_MIXTURE = TwoQubitState(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
HALF_INTERCEPTION = EveConfig(mode="intercept_resend", basis_policy="random_per_trial",
                              intercept_fraction=0.5)


def _pair_probs(s, a, b):
    """(p11, p10, p01, p00) of the pair ``s`` measured in bases ``a`` and
    ``b``: the steps of expected_rates' cumulative table, Eve absent and no
    dark counts."""
    rates = expected_rates(s, DetectorConfig(dark_rate=0.0), EveConfig())
    cum = rates.outcome_cdf[0, BASES.index(a), BASES.index(b), :4]
    return np.diff(cum, prepend=0.0) / rates.single_pair


def test_pair_table_bell_same_basis():
    probs = _pair_probs(bell_phi_plus(), MeasBasis.HV, MeasBasis.HV)
    assert_close(probs, [0.5, 0.0, 0.0, 0.5], tol=1e-12)


def test_pair_table_bell_cross_basis():
    # amplitude oracle: |<x (x) y|psi>|^2 from explicit kets
    psi = bell_phi_plus_ket()
    expected = []
    for x in (PolState.H, PolState.V):
        for y in (PolState.D, PolState.A):
            amp = np.kron(x.ket, y.ket).conj() @ psi
            expected.append(abs(amp) ** 2)
    assert_close(expected, [0.25] * 4, tol=1e-12)
    probs = _pair_probs(bell_phi_plus(), MeasBasis.HV, MeasBasis.DA)
    assert_close(probs, [0.25] * 4, tol=1e-12)


def test_pair_table_mixture_diagonal_basis():
    # trace oracle with hand-written projectors
    p_d = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    p_a = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    expected = []
    for x in (p_d, p_a):
        for y in (p_d, p_a):
            expected.append(np.trace(HV_MIXTURE.rho @ np.kron(x, y)).real)
    assert_close(expected, [0.25] * 4, tol=1e-12)
    probs = _pair_probs(HV_MIXTURE, MeasBasis.DA, MeasBasis.DA)
    assert_close(probs, [0.25] * 4, tol=1e-12)


def _trace_out_second(rho):
    """The first photon's reduced state: entry (a, c) sums rho[2a + b, 2c + b] over b."""
    return np.einsum("abcb->ac", rho.reshape(2, 2, 2, 2))


def test_pair_table_normalized_and_marginal_consistent(rng):
    for _ in range(20):
        s = TwoQubitState(random_density(rng))
        for a in BASES:
            for b in BASES:
                probs = _pair_probs(s, a, b)
                assert probs.sum() == pytest.approx(1.0, abs=1e-10)
                alice_marginal = probs[0] + probs[1]
                reduced = _trace_out_second(s.rho)
                from qkdlab.optics import projector
                expected = np.trace(reduced @ projector(a.plus)).real
                assert alice_marginal == pytest.approx(expected, abs=1e-10)


def _fixed_bases(state, a, b, n, seed=1234):
    """Bits of the kept trials of a dark-free stream in which Alice measured
    in ``a`` and Bob in ``b``: about a quarter of the kept trials."""
    rng = PCG64(seed)
    rates = expected_rates(state, DetectorConfig(dark_rate=0.0), EveConfig())
    trials = simulate_dwell_stream(rates, n, rng)
    mask = ((trials.alice_bit >= 0) & (trials.alice_basis == BASES.index(a))
            & (trials.bob_basis == BASES.index(b)))
    return trials.alice_bit[mask], trials.bob_bit[mask]


def test_sample_trial_same_basis_always_agrees():
    for state in (bell_phi_plus(), HV_MIXTURE):
        alice, bob = _fixed_bases(state, MeasBasis.HV, MeasBasis.HV, 32000)
        assert len(alice) >= 2000
        assert np.array_equal(alice, bob)


def test_sample_trial_cross_basis_agreement_half():
    alice, bob = _fixed_bases(bell_phi_plus(), MeasBasis.HV, MeasBasis.DA, 120000)
    n = len(alice)
    assert n >= 10000
    agree = np.count_nonzero(alice == bob)
    assert abs(agree / n - 0.5) < 4 * binomial_sigma(0.5, n)


def _stream(seed=3, n=10000, dark=0.0, pair_rate=10.0, eve=None):
    rng = PCG64(seed)
    config = DetectorConfig(dwell=0.1, pair_rate=pair_rate, dark_rate=dark)
    return simulate_dwell_stream(expected_rates(bell_phi_plus(), config, eve or EveConfig()),
                                 n, rng)


@pytest.mark.parametrize("eve", [EveConfig(), HALF_INTERCEPTION], ids=["absent", "intercept"])
def test_stream_in_pieces_equals_one_stream(eve):
    # pieces straddle every tile boundary a session cuts; intercept-resend
    # with random bases takes two words per interval
    tile = TILE_INTERVALS
    sizes = [1, tile - 1, tile, tile + 1, 1000]
    config = DetectorConfig(dwell=0.1, pair_rate=10.0, dark_rate=0.9)
    whole_rng, rng = np.random.PCG64(17), np.random.PCG64(17)
    rates = expected_rates(bell_phi_plus(), config, eve)
    whole = simulate_dwell_stream(rates, sum(sizes), whole_rng)
    pieces = [simulate_dwell_stream(rates, k, rng) for k in sizes]
    for f in dataclasses.fields(Trials):
        joined = np.concatenate([getattr(piece, f.name) for piece in pieces])
        assert np.array_equal(joined, getattr(whole, f.name)), f.name
    # the pieces drew exactly the words of the whole stream
    assert rng.state == whole_rng.state


def test_stream_keep_fraction_matches_poisson():
    n = 10000
    trials = _stream(n=n)
    frac = np.count_nonzero(trials.alice_bit >= 0) / n
    expected = np.exp(-1.0)  # exactly one pair in the interval
    assert abs(frac - expected) < 4 * binomial_sigma(expected, n)


def test_stream_no_pairs_no_records_kept():
    trials = _stream(n=2000, pair_rate=0.0)
    assert np.count_nonzero(trials.alice_bit >= 0) == 0


def test_stream_dark_counts_reduce_keep_fraction():
    base = np.count_nonzero(_stream(seed=9, n=10000, dark=0.0).alice_bit >= 0)
    noisy = np.count_nonzero(_stream(seed=9, n=10000, dark=10.0).alice_bit >= 0)
    assert noisy < base


def test_stream_dark_counts_alone_give_random_bits():
    # no pairs: a trial is kept only when each side saw exactly one dark
    # count, and those two detectors are independent coins
    trials = _stream(seed=5, n=80000, dark=5.0, pair_rate=0.0)
    assert np.count_nonzero(trials.alice_bit >= 0) > 0
    mask = trials.sifted()
    n = np.count_nonzero(mask)
    assert n >= 4000
    qber = np.mean(trials.alice_bit[mask] != trials.bob_bit[mask])
    assert abs(qber - 0.5) <= 4 * binomial_sigma(0.5, n)


def test_trials_fields_are_the_records_csv_columns():
    header = _csv_text(records_to_csv, _stream(seed=1, n=10)).splitlines()[0]
    assert header == ",".join(f.name for f in dataclasses.fields(Trials))


def test_stream_kept_records_have_bits():
    # a row holds both bits or neither
    trials = _stream(n=3000, dark=2.0)
    kept = trials.alice_bit >= 0
    assert 0 < np.count_nonzero(kept) < len(trials)
    for bits in (trials.alice_bit, trials.bob_bit):
        assert np.isin(bits[kept], (0, 1)).all()
        assert (bits[~kept] == -1).all()


def test_expected_rates_closed_form():
    lam, mu = 1.0, 0.09   # keygen: 10 pairs/s and 0.9 darks/s over 0.1 s
    p1 = lam * math.exp(-lam - 4 * mu)
    p0 = math.exp(-lam) * (2 * mu * math.exp(-2 * mu)) ** 2
    keygen = DetectorConfig(dwell=0.1, pair_rate=10.0, dark_rate=0.9)
    rates = expected_rates(add_white_noise(bell_phi_plus(), 0.04), keygen, EveConfig())
    assert (rates.single_pair, rates.dark_only) == pytest.approx((p1, p0), rel=1e-12)
    assert rates.kept == pytest.approx(0.26498, abs=5e-6)
    # white noise 0.04 errs with probability 0.02; dark-only bits are coins
    assert rates.qber == pytest.approx((0.02 * p1 + 0.5 * p0) / (p1 + p0), rel=1e-9)
    dark_free = DetectorConfig(dark_rate=0.0)
    for eve, qber in ((EveConfig(), 0.0), (HALF_INTERCEPTION, 0.125),
                      (EveConfig(mode="intercept_resend", basis_policy="random_per_trial"),
                       0.25),
                      (EveConfig(mode="dephasing", basis_angle=45.0, strength=1.0), 0.25)):
        rates = expected_rates(bell_phi_plus(), dark_free, eve)
        assert rates.kept == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert rates.qber == pytest.approx(qber, abs=1e-12), eve
    darks_only = expected_rates(bell_phi_plus(), DetectorConfig(pair_rate=0.0, dark_rate=5.0),
                                EveConfig())
    assert darks_only.qber == pytest.approx(0.5, abs=1e-12)
    nothing = expected_rates(bell_phi_plus(), DetectorConfig(pair_rate=0.0, dark_rate=0.0),
                             EveConfig())
    assert nothing.kept == 0.0 and math.isnan(nothing.qber)


@pytest.mark.parametrize("eve, n_bases", [
    (EveConfig(), 0),
    (EveConfig(mode="dephasing", basis_angle=45.0, strength=0.7), 1),
    (EveConfig(mode="intercept_resend", basis_policy="random_per_trial"), 2),
], ids=["absent", "fixed_basis", "random_basis"])
def test_expected_rates_builds_eve_scenarios_once(monkeypatch, eve, n_bases):
    # the kept state that the QBER reads is mixed from the scenarios that
    # give the outcome tables, not built a second time
    calls = {"eve_scenarios": 0, "dephase_bob": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    scenarios = counted("eve_scenarios", states.eve_scenarios)
    monkeypatch.setattr(states, "eve_scenarios", scenarios)
    monkeypatch.setattr(detection, "eve_scenarios", scenarios)
    monkeypatch.setattr(states, "dephase_bob", counted("dephase_bob", states.dephase_bob))
    expected_rates(add_white_noise(bell_phi_plus(), 0.04), DetectorConfig(dark_rate=0.9), eve)
    assert calls == {"eve_scenarios": 1, "dephase_bob": n_bases}


@pytest.mark.parametrize("eve", [
    EveConfig(),
    EveConfig(mode="intercept_resend", basis_angle=45.0, intercept_fraction=0.6),
    EveConfig(mode="intercept_resend", basis_policy="random_per_trial"),
    EveConfig(mode="dephasing", basis_angle=22.5, strength=0.7),
], ids=["absent", "intercept_45", "intercept_random", "dephasing_22_5"])
def test_outcome_tables_are_the_per_state_formula_bit_for_bit(rng, eve):
    detector = DetectorConfig(dark_rate=0.9)
    for s in (add_white_noise(bell_phi_plus(), 0.04), TwoQubitState(random_density(rng))):
        rates = expected_rates(s, detector, eve)
        _, states, _ = eve_scenarios(s, eve)
        for i, state in enumerate(states):
            for a, b in np.ndindex(2, 2):
                probs = np.array([np.trace(state.rho @ np.kron(pa, pb)).real
                                  for pa in BASES[a].projectors()
                                  for pb in BASES[b].projectors()])
                probs = np.clip(probs, 0.0, None)
                cum = np.cumsum(probs / probs.sum())
                want = rates.single_pair * (cum / cum[-1])
                assert np.array_equal(rates.outcome_cdf[i, a, b, :4], want), (i, a, b)


_INTERCEPT_CASES = [
    pytest.param(EveConfig(mode="intercept_resend", basis_angle=0.0), [MeasBasis.HV],
                 id="fixed_hv"),
    pytest.param(EveConfig(mode="intercept_resend", basis_angle=45.0), [MeasBasis.DA],
                 id="fixed_da"),
    pytest.param(EveConfig(mode="intercept_resend", basis_policy="random_per_trial"),
                 list(BASES), id="random_per_trial"),
    pytest.param(HALF_INTERCEPTION, list(BASES), id="random_per_trial_half"),
]


@pytest.mark.parametrize("eve, eve_bases", _INTERCEPT_CASES)
@pytest.mark.parametrize("state", [
    pytest.param(add_white_noise(bell_phi_plus(), p), id=f"noise_{p}") for p in (0.0, 0.04, 0.1)
] + [pytest.param(TwoQubitState(random_density(np.random.default_rng(13))), id="random_rho")])
def test_intercept_rates_match_branch_oracle(state, eve, eve_bases):
    # The model enters intercept-resend as full dephasing of photon 2; build
    # the same tables from Eve's projective measurement, branch by branch.
    detector = DetectorConfig(dwell=0.1, pair_rate=10.0, dark_rate=0.9)
    lam, mu = 1.0, 0.09
    p1 = lam * math.exp(-lam - 4 * mu)
    p0 = math.exp(-lam) * (2 * mu * math.exp(-2 * mu)) ** 2
    scenarios = [[(1.0, state)]] + [intercept_branches(state, b) for b in eve_bases]
    cdf = np.empty((len(scenarios), 2, 2, 8))
    errors = np.zeros(len(scenarios))   # over the equal-basis settings
    for i, branches in enumerate(scenarios):
        for a, b in np.ndindex(2, 2):
            probs = sum(p * kron_outcome_probs(post.rho, BASES[a], BASES[b])
                        for p, post in branches if post is not None)
            cdf[i, a, b, :4] = p1 * np.cumsum(probs)
            cdf[i, a, b, 4:] = p1 + p0 * np.arange(1, 5) / 4
            if a == b:
                errors[i] += (probs[1] + probs[2]) / 2   # bits (1,0) and (0,1)
    k = len(eve_bases)
    weights = np.array([1 - eve.intercept_fraction] + [eve.intercept_fraction / k] * k)
    rates = expected_rates(state, detector, eve)
    assert_close(rates.outcome_cdf, cdf, tol=1e-12)
    assert rates.qber == pytest.approx((p1 * (weights @ errors) + p0 / 2) / (p1 + p0),
                                       abs=1e-12)


def _session_cases():
    """Every session preset, and the ideal one with half interception."""
    def preset(name):
        return load_config(os.path.join(CONFIG_DIR, name + ".json"), "session")

    names = sorted(n[:-5] for n in os.listdir(CONFIG_DIR) if n.startswith("session_"))
    return ([pytest.param(preset(name), id=name) for name in names]
            + [pytest.param(dataclasses.replace(preset("session_no_eve_ideal"),
                                                eve=HALF_INTERCEPTION),
                            id="half_interception")])


@pytest.mark.parametrize("noise", [0.0, 0.04])
@pytest.mark.parametrize("angle", [0.0, 45.0])
@pytest.mark.parametrize("fraction", [1.0, 0.5, 0.1])
@pytest.mark.parametrize("policy", ["fixed", "random_per_trial"])
@pytest.mark.parametrize("mode", ["intercept_resend", "dephasing"])
def test_session_eve_matches_the_tomo_and_bell_state(mode, policy, fraction, angle, noise):
    # A session's Eve and the state that tomo and bell measure are one model:
    # the session QBER equals the QBER of that state with Eve absent, and so
    # does the outcome table of every basis pair, averaged over Eve's
    # scenarios (idle, then her one or two bases sharing the fraction).
    eve = EveConfig(mode=mode, basis_angle=angle, strength=0.7, intercept_fraction=fraction,
                    basis_policy=policy)
    detector = DetectorConfig()
    session = expected_rates(add_white_noise(bell_phi_plus(), noise), detector, eve)
    prepared = expected_rates(BellConfig(source_noise=noise, eve=eve).measured_state(),
                              detector, EveConfig())
    assert session.qber == pytest.approx(prepared.qber, abs=1e-12)
    k = 2 if policy == "random_per_trial" else 1
    weights = np.array([1.0 - fraction] + [fraction / k] * k)
    assert_close(np.tensordot(weights, session.outcome_cdf, axes=1), prepared.outcome_cdf[0],
                 tol=1e-12)


@pytest.mark.parametrize("config", _session_cases())
def test_sampler_matches_expected_rates(config):
    n = 1_000_000
    state = add_white_noise(bell_phi_plus(), config.source_noise)
    rates = expected_rates(state, config.detector, config.eve)
    trials = simulate_dwell_stream(rates, n, PCG64(config.seed))
    kept = np.count_nonzero(trials.alice_bit >= 0)
    assert abs(kept / n - rates.kept) <= 4 * binomial_sigma(rates.kept, n)
    sifted = trials.sifted()
    m = np.count_nonzero(sifted)
    qber = np.count_nonzero(trials.alice_bit[sifted] != trials.bob_bit[sifted]) / m
    assert abs(qber - rates.qber) <= 4 * binomial_sigma(rates.qber, m), (qber, rates.qber)


def _csv_text(write, trials) -> str:
    fh = io.StringIO()
    write(trials, fh)
    return fh.getvalue()


def test_stream_deterministic_given_seed():
    a = _csv_text(records_to_csv, _stream(seed=42, n=2000, dark=0.5))
    b = _csv_text(records_to_csv, _stream(seed=42, n=2000, dark=0.5))
    assert a == b


@pytest.mark.parametrize("eve, shares", [
    pytest.param(EveConfig(), {-1: 1.0}, id="absent"),
    # Eve acts along an unnamed axis, so she records no basis
    pytest.param(EveConfig(mode="dephasing", basis_angle=22.5, strength=0.7), {-1: 1.0},
                 id="dephasing_22_5"),
    pytest.param(EveConfig(mode="dephasing", basis_angle=0.0), {0: 1.0}, id="dephasing_hv"),
    pytest.param(EveConfig(mode="dephasing", basis_angle=45.0, intercept_fraction=0.5),
                 {-1: 0.5, 1: 0.5}, id="dephasing_da_half"),
    pytest.param(EveConfig(mode="intercept_resend", basis_angle=0.0), {0: 1.0},
                 id="intercept_hv"),
    pytest.param(EveConfig(mode="intercept_resend", basis_angle=45.0), {1: 1.0},
                 id="intercept_da"),
    pytest.param(EveConfig(mode="intercept_resend", basis_policy="random_per_trial"),
                 {0: 0.5, 1: 0.5}, id="intercept_random"),
    pytest.param(HALF_INTERCEPTION, {-1: 0.5, 0: 0.25, 1: 0.25}, id="intercept_random_half"),
])
def test_stream_eve_metadata_recorded(eve, shares):
    # eve_basis holds only the bases that Eve's scenarios record (index into
    # BASES, -1 for none), each at the share of the scenarios recording it
    n = 20000
    trials = _stream(n=n, eve=eve)
    assert set(np.unique(trials.eve_basis).tolist()) <= set(shares)
    for value, share in shares.items():
        got = np.count_nonzero(trials.eve_basis == value) / n
        assert abs(got - share) <= 4 * binomial_sigma(share, n), (value, got, share)


def _parse_records_csv(text):
    """Columns of a records.csv text as arrays in the ``Trials`` encoding;
    ``kept`` is not a column, it is "both bits present"."""
    basis = {b.value: i for i, b in enumerate(BASES)} | {"": -1}
    bit = {"0": 0, "1": 1, "": -1}
    rows = list(csv.DictReader(io.StringIO(text)))

    def column(name, table):
        return np.array([table[r[name]] for r in rows])

    back = {
        "alice_basis": column("alice_basis", basis),
        "bob_basis": column("bob_basis", basis),
        "eve_basis": column("eve_basis", basis),
        "alice_bit": column("alice_bit", bit),
        "bob_bit": column("bob_bit", bit),
    }
    back["kept"] = (back["alice_bit"] != -1) & (back["bob_bit"] != -1)
    return back


def test_csv_roundtrip():
    trials = _stream(n=500, dark=1.0,
                     eve=EveConfig(mode="intercept_resend",
                                   basis_policy="random_per_trial",
                                   intercept_fraction=0.7))
    back = _parse_records_csv(_csv_text(records_to_csv, trials))
    assert len(back["alice_basis"]) == len(trials)
    for name in ("alice_basis", "bob_basis", "eve_basis", "alice_bit", "bob_bit"):
        assert (back[name] == getattr(trials, name)).all(), name
    assert (back["kept"] == (trials.alice_bit >= 0)).all()


def test_csv_file_roundtrip(tmp_path):
    trials = _stream(n=200)
    path = tmp_path / "records.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        records_to_csv(trials, fh)
    text = _csv_text(records_to_csv, trials)
    assert path.read_bytes() == text.encode()
    back = _parse_records_csv(text)
    assert len(back["alice_basis"]) == 200
    assert (back["kept"] == (trials.alice_bit >= 0)).all()


def test_records_to_csv_golden_text(tmp_path):
    # rows: sifted and agreeing; unkept with Eve idle; kept cross-basis;
    # sifted and disagreeing
    trials = Trials(
        alice_basis=np.array([0, 1, 0, 1], dtype=np.int8),
        bob_basis=np.array([0, 0, 1, 1], dtype=np.int8),
        eve_basis=np.array([1, -1, 0, 1], dtype=np.int8),
        alice_bit=np.array([1, -1, 0, 0], dtype=np.int8),
        bob_bit=np.array([1, -1, 1, 1], dtype=np.int8),
    )
    expected = ("alice_basis,bob_basis,eve_basis,alice_bit,bob_bit\n"
                "HV,HV,DA,1,1\n"
                "DA,HV,,,\n"
                "HV,DA,HV,0,1\n"
                "DA,DA,DA,0,1\n")
    assert _csv_text(records_to_csv, trials) == expected
    path = tmp_path / "out.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        records_to_csv(trials, fh)
    assert path.read_bytes() == expected.encode()


def _char_add_csv(header, columns) -> str:
    """Reference: the former writer, which joins whole string columns with
    ``np.char.add`` and returns the file as one string."""
    lines = columns[0]
    for column in columns[1:]:
        lines = np.char.add(np.char.add(lines, ","), column)
    return "\n".join([",".join(header), *lines.tolist()]) + "\n"


_BASIS_TEXT = np.array([b.value for b in BASES] + [""])   # index -1 -> ""
_BIT_TEXT = np.array(["0", "1", ""])


def _oracle_records_csv(trials):
    return _char_add_csv(CSV_COLUMNS, [
        _BASIS_TEXT[trials.alice_basis], _BASIS_TEXT[trials.bob_basis],
        _BASIS_TEXT[trials.eve_basis],
        _BIT_TEXT[trials.alice_bit], _BIT_TEXT[trials.bob_bit],
    ])


def _assert_records_match_oracle(trials):
    got, want = _csv_text(records_to_csv, trials), _oracle_records_csv(trials)
    if got != want:
        # name the first differing line rather than diffing megabytes
        pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
        i, (line, expected) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        pytest.fail(f"records_to_csv line {i}: {line!r}, oracle {expected!r}")


def test_csv_writers_match_oracle_on_every_field_combination():
    # one row per combination of the five fields, with -1 in every column:
    # 3**5 = 243 rows
    rows = np.array(list(itertools.product((0, 1, -1), repeat=5)))
    assert len(rows) == 243
    a, b, e, x, y = (rows[:, i].astype(np.int8) for i in range(5))
    trials = Trials(alice_basis=a, bob_basis=b, eve_basis=e,
                    alice_bit=x, bob_bit=y)
    _assert_records_match_oracle(trials)


@pytest.mark.parametrize("n", [1, 65535, 65536, 65537, 2 * 65536 + 3])
def test_csv_writers_match_oracle_across_chunks(n):
    eve = EveConfig(mode="intercept_resend", basis_policy="random_per_trial",
                    intercept_fraction=0.5)
    _assert_records_match_oracle(_stream(seed=n, n=n, dark=1.0, eve=eve))


def _trial_slice(trials, start, stop):
    return Trials(**{f.name: getattr(trials, f.name)[start:stop]
                     for f in dataclasses.fields(Trials)})


def test_csv_writers_stream_a_million_trials_in_bounded_memory(tmp_path):
    n = 1_000_000
    trials = _stream(seed=5, n=n, dark=0.9)
    tracemalloc.start()
    try:
        with open(tmp_path / "records.csv", "w", encoding="utf-8", newline="") as fh:
            records_to_csv(trials, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, f"traced peak {peak / 1e6:.0f} MB"
    with open(tmp_path / "records.csv", "rb") as fh:
        assert sum(1 for _ in fh) == n + 1
    # the first and last 2000 rows, against the oracle on the trials they
    # come from
    with open(tmp_path / "records.csv", encoding="utf-8", newline="") as fh:
        lines = iter(fh)
        head = [next(lines) for _ in range(2001)]
        tail = collections.deque(lines, maxlen=2000)
    assert "".join(head) == _oracle_records_csv(_trial_slice(trials, 0, 2000))
    assert head[0] + "".join(tail) == _oracle_records_csv(_trial_slice(trials, n - 2000, n))


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(dwell=-0.1)
    for field in ("dwell", "pair_rate", "dark_rate"):
        with pytest.raises(ValueError, match="nonnegative"):
            DetectorConfig(**{field: float("nan")})
    with pytest.raises(ValueError):
        simulate_dwell_stream(expected_rates(bell_phi_plus(), DetectorConfig(), EveConfig()),
                              0, PCG64(0))


@pytest.mark.parametrize("fields", [
    {"dwell": float("inf")},
    {"dark_rate": float("inf")},
    {"dwell": 1e200, "pair_rate": 1e200, "dark_rate": 0.0},
    {"dwell": 1e200, "pair_rate": 0.0, "dark_rate": 1e200},
])
def test_detector_config_rejects_non_finite_rates(fields):
    # an infinite mean count per interval would make every rate table NaN
    with pytest.raises(ValueError, match="finite"):
        DetectorConfig(**fields)
