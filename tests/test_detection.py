import csv
import io

import numpy as np
import pytest

from qkdlab import qmath
from qkdlab.detection import (BASES, DetectorConfig, Trials, joint_probs,
                              records_to_csv, sifted_to_csv, simulate_dwell_stream)
from qkdlab.optics import MeasBasis, PolState
from qkdlab.states import EveConfig, TwoQubitState, bell_phi_plus, bell_phi_plus_ket

from conftest import assert_close, binomial_sigma, random_density

HV_MIXTURE = TwoQubitState(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))


def test_joint_probs_bell_same_basis():
    probs = joint_probs(bell_phi_plus(), MeasBasis.HV, MeasBasis.HV)
    assert_close(probs, [0.5, 0.0, 0.0, 0.5], tol=1e-12)


def test_joint_probs_bell_cross_basis():
    # amplitude oracle: |<x (x) y|psi>|^2 from explicit kets
    psi = bell_phi_plus_ket()
    expected = []
    for x in (PolState.H, PolState.V):
        for y in (PolState.D, PolState.A):
            amp = np.kron(x.ket, y.ket).conj() @ psi
            expected.append(abs(amp) ** 2)
    assert_close(expected, [0.25] * 4, tol=1e-12)
    probs = joint_probs(bell_phi_plus(), MeasBasis.HV, MeasBasis.DA)
    assert_close(probs, [0.25] * 4, tol=1e-12)


def test_joint_probs_mixture_diagonal_basis():
    # trace oracle with hand-written projectors
    p_d = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    p_a = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    expected = []
    for x in (p_d, p_a):
        for y in (p_d, p_a):
            expected.append(np.trace(HV_MIXTURE.rho @ np.kron(x, y)).real)
    assert_close(expected, [0.25] * 4, tol=1e-12)
    probs = joint_probs(HV_MIXTURE, MeasBasis.DA, MeasBasis.DA)
    assert_close(probs, [0.25] * 4, tol=1e-12)


def test_joint_probs_normalized_and_marginal_consistent(rng):
    for _ in range(20):
        s = TwoQubitState(random_density(rng))
        for a in (MeasBasis.HV, MeasBasis.DA, MeasBasis.RL):
            for b in (MeasBasis.HV, MeasBasis.DA):
                probs = joint_probs(s, a, b)
                assert probs.sum() == pytest.approx(1.0, abs=1e-10)
                alice_marginal = probs[0] + probs[1]
                reduced = qmath.partial_trace(s.rho, 2)
                from qkdlab.optics import projector
                expected = np.trace(reduced @ projector(a.plus)).real
                assert alice_marginal == pytest.approx(expected, abs=1e-10)


def _fixed_bases(state, a, b, n, seed=1234):
    """Bits of the kept trials of a dark-free stream with fixed analysers."""
    rng = np.random.default_rng(seed)
    trials = simulate_dwell_stream(state, DetectorConfig(dark_rate=0.0), n, (a, b),
                                   EveConfig(), rng)
    return trials.alice_bit[trials.kept], trials.bob_bit[trials.kept]


def test_sample_trial_same_basis_always_agrees():
    for state in (bell_phi_plus(), HV_MIXTURE):
        alice, bob = _fixed_bases(state, MeasBasis.HV, MeasBasis.HV, 8000)
        assert len(alice) >= 2000
        assert np.array_equal(alice, bob)


def test_sample_trial_cross_basis_agreement_half():
    alice, bob = _fixed_bases(bell_phi_plus(), MeasBasis.HV, MeasBasis.DA, 30000)
    n = len(alice)
    assert n >= 10000
    agree = np.count_nonzero(alice == bob)
    assert abs(agree / n - 0.5) < 4 * binomial_sigma(0.5, n)


def _stream(seed=3, n=10000, dark=0.0, pair_rate=10.0, eve=None):
    rng = np.random.default_rng(seed)
    config = DetectorConfig(dwell=0.1, pair_rate=pair_rate, dark_rate=dark)
    return simulate_dwell_stream(bell_phi_plus(), config, n, "random",
                                 eve or EveConfig(), rng)


def test_stream_keep_fraction_matches_poisson():
    n = 10000
    trials = _stream(n=n)
    frac = np.count_nonzero(trials.kept) / n
    expected = np.exp(-1.0)  # exactly one pair in the interval
    assert abs(frac - expected) < 4 * binomial_sigma(expected, n)


def test_stream_no_pairs_no_records_kept():
    trials = _stream(n=2000, pair_rate=0.0)
    assert np.count_nonzero(trials.kept) == 0


def test_stream_dark_counts_reduce_keep_fraction():
    base = np.count_nonzero(_stream(seed=9, n=10000, dark=0.0).kept)
    noisy = np.count_nonzero(_stream(seed=9, n=10000, dark=10.0).kept)
    assert noisy < base


def test_stream_dark_counts_alone_give_random_bits():
    # no pairs: a trial is kept only when each side saw exactly one dark
    # count, and those two detectors are independent coins
    trials = _stream(seed=5, n=80000, dark=5.0, pair_rate=0.0)
    assert np.count_nonzero(trials.kept) > 0
    mask = trials.sifted()
    n = np.count_nonzero(mask)
    assert n >= 4000
    qber = np.mean(trials.alice_bit[mask] != trials.bob_bit[mask])
    assert abs(qber - 0.5) <= 4 * binomial_sigma(0.5, n)


def test_stream_kept_records_have_bits():
    trials = _stream(n=3000, dark=2.0)
    for bits in (trials.alice_bit, trials.bob_bit):
        assert np.isin(bits[trials.kept], (0, 1)).all()
        assert (bits[~trials.kept] == -1).all()


def test_stream_deterministic_given_seed():
    a = records_to_csv(_stream(seed=42, n=2000, dark=0.5))
    b = records_to_csv(_stream(seed=42, n=2000, dark=0.5))
    assert a == b


def test_stream_eve_metadata_recorded():
    eve = EveConfig(mode="dephasing", basis_angle=45.0, strength=1.0,
                    intercept_fraction=0.5)
    trials = _stream(n=2000, eve=eve)
    applied = trials.eve_applied
    assert 0 < np.count_nonzero(applied) < len(trials)
    assert (trials.eve_basis[applied] == 1).all()  # BASES[1] is DA
    assert (trials.eve_basis[~applied] == -1).all()


def _parse_records_csv(text):
    """Columns of a records.csv text as arrays in the ``Trials`` encoding."""
    basis = {b.value: i for i, b in enumerate(BASES)} | {"": -1}
    bit = {"0": 0, "1": 1, "": -1}
    rows = list(csv.DictReader(io.StringIO(text)))

    def column(name, table):
        return np.array([table[r[name]] for r in rows])

    return {
        "trial_index": np.array([int(r["trial_index"]) for r in rows]),
        "alice_basis": column("alice_basis", basis),
        "bob_basis": column("bob_basis", basis),
        "eve_basis": column("eve_basis", basis),
        "alice_bit": column("alice_bit", bit),
        "bob_bit": column("bob_bit", bit),
        "kept": np.array([r["kept"] == "1" for r in rows]),
    }


def test_csv_roundtrip():
    trials = _stream(n=500, dark=1.0,
                     eve=EveConfig(mode="intercept_resend",
                                   basis_policy="random_per_trial",
                                   intercept_fraction=0.7))
    back = _parse_records_csv(records_to_csv(trials))
    assert (back["trial_index"] == np.arange(len(trials))).all()
    for name in ("alice_basis", "bob_basis", "eve_basis", "alice_bit", "bob_bit",
                 "kept"):
        assert (back[name] == getattr(trials, name)).all(), name


def test_csv_file_roundtrip(tmp_path):
    trials = _stream(n=200)
    path = tmp_path / "records.csv"
    text = records_to_csv(trials, path)
    assert path.read_text(encoding="utf-8") == text
    back = _parse_records_csv(text)
    assert len(back["trial_index"]) == 200
    assert (back["kept"] == trials.kept).all()


def test_records_to_csv_golden_text(tmp_path):
    # rows: sifted and agreeing; unkept with Eve idle; kept cross-basis;
    # sifted and disagreeing
    trials = Trials(
        alice_basis=np.array([0, 1, 0, 1], dtype=np.int8),
        bob_basis=np.array([0, 0, 1, 1], dtype=np.int8),
        eve_applied=np.array([True, False, True, True]),
        eve_basis=np.array([1, -1, 0, 1], dtype=np.int8),
        alice_bit=np.array([1, -1, 0, 0], dtype=np.int8),
        bob_bit=np.array([1, -1, 1, 1], dtype=np.int8),
        kept=np.array([True, False, True, True]),
    )
    expected = ("trial_index,alice_basis,bob_basis,eve_basis,alice_bit,bob_bit,kept\n"
                "0,HV,HV,DA,1,1,1\n"
                "1,DA,HV,,,,0\n"
                "2,HV,DA,HV,0,1,1\n"
                "3,DA,DA,DA,0,1,1\n")
    path = tmp_path / "records.csv"
    assert records_to_csv(trials, path) == expected
    assert path.read_bytes() == expected.encode()
    sifted = "trial,alice,bob,agree\n0,1,1,1\n3,0,1,0\n"
    assert sifted_to_csv(trials, tmp_path / "sifted.csv") == sifted
    assert (tmp_path / "sifted.csv").read_bytes() == sifted.encode()


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(dwell=-0.1)
    with pytest.raises(ValueError):
        simulate_dwell_stream(bell_phi_plus(), DetectorConfig(), 0, "random",
                              EveConfig(), np.random.default_rng(0))
    for policy in ("fixed", (MeasBasis.HV,), (MeasBasis.HV, MeasBasis.RL)):
        with pytest.raises(ValueError, match="basis_policy"):
            simulate_dwell_stream(bell_phi_plus(), DetectorConfig(), 10, policy,
                                  EveConfig(), np.random.default_rng(0))
