import dataclasses
import glob
import math
import os
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qkdlab import tomography
from qkdlab.cli import load_config
from qkdlab.detection import DetectorConfig, expected_rates
from qkdlab.optics import PolState, linear_ket
from qkdlab.pcg64 import PCG64
from qkdlab.states import (EveConfig, TwoQubitState, add_white_noise, after_eve,
                           bell_phi_plus, bell_phi_plus_ket, dephase_bob)
from qkdlab import qmath
from qkdlab.tomography import (_BLOCK, _INVERSION, _PAULIS, _PROJECTORS, _STIRLERR,
                               CHSH_CANONICAL_ANGLES, MAX_COUNT, MAX_REPLICAS, TOMO_SCHEDULE,
                               ReconstructionError, _linear_inversion, _log_pmf, _poisson,
                               _replica_blocks, _spectral_metrics, _wootters_overlaps,
                               bootstrap_metrics, chsh, correlator, expected_probs,
                               run_tomography, simulate_counts, state_metrics)

from conftest import assert_close, binomial_sigma, random_density

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y).real

HV_MIXTURE = TwoQubitState(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
MAXIMALLY_MIXED = TwoQubitState(np.eye(4, dtype=complex) / 4.0)


def test_schedule_is_pinned():
    names = ["".join((a.value, b.value)) for a, b in TOMO_SCHEDULE]
    assert names == ["HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
                     "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL"]


def _setting_index(name):
    return ["".join((a.value, b.value)) for a, b in TOMO_SCHEDULE].index(name)


def test_simulate_counts_means():
    n = 100000
    rng = PCG64(1234)
    counts = simulate_counts(bell_phi_plus(), n, rng)
    assert counts.dtype == np.int64
    hh = counts[_setting_index("HH")]
    assert abs(hh - n / 2) < 4 * np.sqrt(n / 2)       # Poisson sigma
    assert counts[_setting_index("HV")] == 0           # zero mean, always zero
    counts2 = simulate_counts(HV_MIXTURE, n, rng)
    dd = counts2[_setting_index("DD")]
    assert abs(dd - n / 4) < 4 * np.sqrt(n / 4)


def test_simulate_counts_rejects_bad_flux():
    with pytest.raises(ValueError):
        simulate_counts(bell_phi_plus(), 0.0, PCG64(1))


def _chi2_sf(x, df):
    """P(chi^2 with ``df`` degrees of freedom > x): one minus the regularised
    lower incomplete gamma P(df/2, x/2), summed as its series."""
    a, x = df / 2.0, x / 2.0
    term = total = 1.0 / a
    n = a
    while term > total * 1e-17:
        n += 1.0
        term *= x / n
        total += term
    return 1.0 - total * math.exp(a * math.log(x) - x - math.lgamma(a))


@pytest.mark.parametrize("lam", [0.5, 3.0, 9.99, 10.0, 40.0, 1e4])
def test_poisson_law_chi_square(lam):
    # inversion below 10, PTRS from 10 on; the gate p > 1e-6, fixed before
    # running, fails a correct sampler once in a million seeds.  Bins hold
    # single counts where 2e5 draws expect at least 5; the tails join the
    # first and last bins.
    draws = _poisson([PCG64(2024)], lam, (200_000,))[0]
    assert draws.min() >= 0 and np.array_equal(draws, np.floor(draws))
    ks = np.arange(int(max(draws.max(), lam + 12 * math.sqrt(lam) + 20)) + 1)
    pmf = np.exp([-lam + k * math.log(lam) - math.lgamma(k + 1) for k in ks])
    observed = np.bincount(draws.astype(np.int64), minlength=ks.size).astype(float)
    expected = draws.size * pmf
    keep = np.flatnonzero(expected >= 5)
    lo, hi = keep[0], keep[-1]
    obs, exp = observed[lo:hi + 1].copy(), expected[lo:hi + 1].copy()
    obs[0] += observed[:lo].sum()
    exp[0] += draws.size * math.fsum(pmf[:lo])
    obs[-1] += observed[hi + 1:].sum()
    exp[-1] += draws.size * (1.0 - math.fsum(pmf[:hi + 1]))
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert _chi2_sf(stat, obs.size - 1) > 1e-6, (stat, obs.size - 1)


@pytest.mark.parametrize("lam", [1e15, 1e16, MAX_COUNT], ids=["1e15", "1e16", "MAX_COUNT"])
def test_poisson_variance_at_large_means(lam):
    # var/lam within 1.5 % on 2e5 draws (standard error 0.32 %); numpy's
    # Generator.poisson reads about 1.036, 1.42 and 1.54 here, its PTRS log
    # test losing to cancellation
    draws = _poisson([PCG64(7)], lam, (200_000,))[0]
    deviation = draws - lam   # exact: both lie within a factor 2
    assert abs(deviation.mean()) < 5 * math.sqrt(lam / draws.size)
    assert abs(deviation.var() / lam - 1.0) < 0.015


def test_poisson_zero_mean_gives_zero_and_takes_no_word():
    lam = np.array([3.0, 0.0, 40.0, 0.0])
    draws = _poisson([PCG64(5)], lam, (64, 4))[0]
    assert not draws[:, 1::2].any()
    assert np.array_equal(draws[:, ::2], _poisson([PCG64(5)], lam[::2], (64, 2))[0])


def _reference_poisson(rng, lam):
    """One row of ``_poisson`` in plain Python, a draw at a time, in the
    documented word order, with the log test in the textbook form
    ``log V + log(1/alpha) - log(a/us^2 + b) <= -lam + k log lam - log k!``."""
    def uniform():
        return (rng.random_raw() >> 11) * 2.0 ** -53

    out = [0.0] * len(lam)
    for i, mean in enumerate(lam):
        if 0.0 < mean < 10.0:
            u, k = uniform(), 0
            p = cdf = math.exp(-mean)
            while u >= cdf:
                k += 1
                p = p * mean / k
                if cdf + p <= cdf:
                    break
                cdf += p
            out[i] = float(k)
    pending = [i for i, mean in enumerate(lam) if mean >= 10.0]
    while pending:
        words = [uniform() for _ in range(2 * len(pending))]
        rejected = []
        for i, u, v in zip(pending, words, words[len(pending):]):
            mean = lam[i]
            b = 0.931 + 2.53 * math.sqrt(mean)
            a = -0.059 + 0.02483 * b
            u -= 0.5
            us = 0.5 - abs(u)
            k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
            if (us >= 0.07 and v <= 0.9277 - 3.6224 / (b - 2.0)) or (
                    k >= 0 and (us >= 0.013 or v <= us)
                    and math.log(v) + math.log(1.1239 + 1.1328 / (b - 3.4))
                    - math.log(a / (us * us) + b)
                    <= -mean + k * math.log(mean) - math.lgamma(k + 1)):
                out[i] = float(k)
            else:
                rejected.append(i)
        pending = rejected
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_poisson_reads_its_words_in_the_documented_order(seed):
    lam = [0.0, 2.5, 12.0, 7.0, 300.0, 1e4, 0.3, 10.0]
    shape = (40, len(lam))
    want = _reference_poisson(PCG64(seed), np.broadcast_to(lam, shape).ravel().tolist())
    assert _poisson([PCG64(seed)], lam, shape)[0].ravel().tolist() == want


def test_poisson_rows_read_only_their_own_generator(monkeypatch):
    lam = np.array([0.0, 4.0, 25.0, 900.0])

    def generators():
        return [PCG64(3, (0,)), PCG64(4), PCG64(3, (0,)).jumped()]

    together = _poisson(generators(), lam, (300, 4))
    alone = np.array([_poisson([rng], lam, (300, 4))[0] for rng in generators()])
    assert np.array_equal(together, alone)
    # a generator that reads too few words ahead reads more, in stream order
    monkeypatch.setattr(tomography, "_SPARE", 0.0)
    assert np.array_equal(_poisson(generators(), lam, (300, 4)), together)


def _decimal_log_pmf(k, lam):
    """log Poisson(k; lam) in 60-digit decimals: log k! summed below 2000,
    else Stirling's series to its k^-11 term."""
    with localcontext() as ctx:
        ctx.prec = 60
        k, lam = Decimal(k), Decimal(lam)
        if k < 2000:
            log_fact = sum((Decimal(i).ln() for i in range(2, int(k) + 1)), Decimal(0))
        else:
            pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
            log_fact = (k + Decimal("0.5")) * k.ln() - k + (2 * pi).ln() / 2
            for j, c in enumerate((Decimal(1) / 12, Decimal(-1) / 360, Decimal(1) / 1260,
                                   Decimal(-1) / 1680, Decimal(1) / 1188,
                                   Decimal(-691) / 360360)):
                log_fact += c / k ** (2 * j + 1)
        return float(-lam + k * lam.ln() - log_fact)


def test_stirlerr_table_is_loaders_to_the_last_bit():
    # stirlerr(n) = log n! - (n + 1/2) log n + n - log sqrt(2 pi)
    for n in range(1, 16):
        with localcontext() as ctx:
            ctx.prec = 60
            pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
            log_fact = sum((Decimal(i).ln() for i in range(2, n + 1)), Decimal(0))
            want = log_fact - (n + Decimal("0.5")) * Decimal(n).ln() + n - (2 * pi).ln() / 2
        assert _STIRLERR[n] == float(want), n


@pytest.mark.parametrize("k, lam", [
    (0.0, 12.5), (3.0, 12.5), (12.0, 12.5), (15.0, 12.5), (16.0, 12.5), (40.0, 12.5),
    (9500.0, 1e4), (10001.0, 1e4), (10320.0, 1e4), (1e15 + 3e7, 1e15),
    (1e18 - 2.0 ** 32, 1e18), (1e18 + 2.0 ** 33, 1e18), (1e18, 1e18)])
def test_log_pmf_is_free_of_cancellation(k, lam):
    # -lam + k log lam - log k! at lam = 1e18 cancels terms of ~4e19, whose
    # rounding alone is ~8e3; the log pmf itself is ~-21 to -30
    got = float(_log_pmf(np.array([k]), np.array([lam]))[0])
    want = _decimal_log_pmf(k, lam)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)


def _exact_counts(state, n=1e6):
    return n * expected_probs(state)


def _replica_metrics(counts, replicas, seed):
    """Every replica's raw metrics, shape (replicas, 4)."""
    return np.concatenate(list(_replica_blocks(counts, replicas, seed)))


def _reconstruct(counts):
    """The state that run_tomography reconstructs from ``counts``."""
    rho_hat, _ = run_tomography(counts, replicas=2, seed=0)
    return rho_hat


def test_reconstruct_exact_bell():
    rho_hat = _reconstruct(_exact_counts(bell_phi_plus()))
    assert np.linalg.norm(rho_hat.rho - bell_phi_plus().rho) < 1e-8
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        assert rho_hat.rho[i, j].real == pytest.approx(0.5, abs=1e-9)


def test_reconstruct_exact_mixture():
    rho_hat = _reconstruct(_exact_counts(HV_MIXTURE))
    assert np.linalg.norm(rho_hat.rho - HV_MIXTURE.rho) < 1e-8


def test_reconstruct_exact_maximally_mixed():
    rho_hat = _reconstruct(_exact_counts(MAXIMALLY_MIXED))
    assert np.linalg.norm(rho_hat.rho - MAXIMALLY_MIXED.rho) < 1e-8


def test_reconstruct_roundtrip_random_states(rng):
    for _ in range(50):
        s = TwoQubitState(random_density(rng))
        rho_hat = _reconstruct(_exact_counts(s))
        assert np.linalg.norm(rho_hat.rho - s.rho) < 1e-8


def test_reconstruct_input_validation():
    with pytest.raises(ReconstructionError):
        _reconstruct(np.ones(15))
    with pytest.raises(ReconstructionError):
        _reconstruct(np.zeros(16))  # no flux
    with pytest.raises(ReconstructionError):
        _reconstruct(-np.ones(16))
    for bad in (np.nan, np.inf):
        counts = np.ones(16)
        counts[5] = bad
        with pytest.raises(ReconstructionError, match="finite"):
            _reconstruct(counts)


def test_reconstruct_degenerate_counts_give_physical_state():
    counts = np.zeros(16)
    counts[0] = 5.0
    rho_hat = _reconstruct(counts)
    evals = np.linalg.eigvalsh(rho_hat.rho)
    assert np.all(evals >= -1e-10)
    assert np.trace(rho_hat.rho).real == pytest.approx(1.0, abs=1e-10)


def _point(s):
    """(tangle, von Neumann entropy, linear entropy, fidelity) of a state."""
    return dataclasses.astuple(state_metrics(s))[:4]


def test_metrics_bell():
    assert _point(bell_phi_plus()) == pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-9)


def test_metrics_hv_mixture():
    assert _point(HV_MIXTURE) == pytest.approx((0.0, 1.0, 2.0 / 3.0, 0.5), abs=1e-9)


def test_linear_entropy_maximally_mixed():
    assert state_metrics(MAXIMALLY_MIXED).linear_entropy == pytest.approx(1.0, abs=1e-12)


def test_tangle_closed_form_under_dephasing():
    # X-state oracle: concurrence = 2 max(0, |rho_03| - sqrt(rho_11 rho_22))
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        s = dephase_bob(bell_phi_plus(), 0.0, gamma)
        rho = s.rho
        oracle_c = 2.0 * max(0.0, abs(rho[0, 3]) - np.sqrt(rho[1, 1].real * rho[2, 2].real))
        tangle = state_metrics(s).tangle
        assert tangle == pytest.approx(oracle_c ** 2, abs=1e-12)
        assert tangle == pytest.approx((1.0 - gamma) ** 2, abs=1e-9)
    assert state_metrics(dephase_bob(bell_phi_plus(), 0.0, 0.5)).tangle == \
        pytest.approx(0.25, abs=1e-9)


def _random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("p", (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95))
def test_spectral_tangle_exact_on_rank_deficient_spectra(rng, p):
    # p|phi+><phi+| + (1 - p)|HV><HV| has concurrence p, and local unitaries
    # keep it; eigenvalues of rho Y rho* Y near zero would have their
    # rounding noise square-rooted into ~1e-8
    s2 = np.sqrt(0.5)
    kets = np.array([[s2, 0, 0, s2], [0, 1, 0, 0], [s2, 0, 0, -s2], [0, 0, 1, 0]]).T
    w = np.array([p, 1.0 - p, 0.0, 0.0])
    for _ in range(20):
        v = np.kron(_random_unitary(rng, 2), _random_unitary(rng, 2)) @ kets
        assert abs(_spectral_metrics(w, v, bell_phi_plus_ket())[0] - p * p) < 1e-12


def _oracle_metrics(rho, target):
    """The matrix formulas: Wootters' eigenvalues of rho Y rho* Y, the
    entropy of eigvalsh, the purity trace and <t|rho|t>."""
    m = rho @ _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    lams = np.sort(np.sqrt(np.clip(np.linalg.eigvals(m).real, 0.0, None)))
    c = max(0.0, lams[3] - lams[2] - lams[1] - lams[0])
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    entropy = -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum()
    linear = 4.0 / 3.0 * (1.0 - np.trace(rho @ rho).real)
    return c * c, entropy, linear, (target.conj() @ rho @ target).real


def test_linear_inversion_is_the_complex_einsum_bit_for_bit(rng):
    counts = rng.poisson(rng.uniform(0.0, 5000.0, size=16), size=(_BLOCK, 16)).astype(float)
    flux = counts[:, :4].sum(axis=-1, keepdims=True)
    want = np.einsum("...k,kij->...ij", counts / flux, _INVERSION)
    assert np.array_equal(_linear_inversion(counts), want)
    assert np.array_equal(_linear_inversion(counts[7]), want[7])


def test_trace_tables_are_the_per_matrix_loops_bit_for_bit(rng):
    basis = np.array([qmath.tensor(p, q) / 2.0 for p in _PAULIS for q in _PAULIS])
    b_mat = np.array([[np.trace(pk @ gm).real for gm in basis] for pk in _PROJECTORS])
    assert np.array_equal(_INVERSION, np.tensordot(np.linalg.inv(b_mat), basis, axes=(0, 0)))
    presets = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                            "configs", "*.json")))
    # a preset's kind is its name up to the first "_"
    configs = [load_config(path, os.path.basename(path).split("_")[0]) for path in presets]
    states = [cfg.measured_state() for cfg in configs]
    states += [TwoQubitState(random_density(rng)) for _ in range(100)]
    for state in states:
        want = np.array([np.trace(state.rho @ pk).real for pk in _PROJECTORS])
        assert np.array_equal(expected_probs(state), want)

    def projector_at(angle):
        k = linear_ket(angle)
        return np.outer(k, k.conj())

    def loop_correlator(state, alpha, beta):
        result = 0.0
        for sign_a, off_a in ((1, 0.0), (-1, 90.0)):
            pa = projector_at(alpha + off_a)
            for sign_b, off_b in ((1, 0.0), (-1, 90.0)):
                pb = projector_at(beta + off_b)
                result += sign_a * sign_b * np.trace(state.rho @ qmath.tensor(pa, pb)).real
        return float(result)

    angles = (0.0, 22.5, 45.0, 67.5, -37.9, 152.6)
    i2 = np.eye(2, dtype=complex)
    for state in states:
        for alpha in angles:
            for beta in angles:
                assert np.array_equal(correlator(state, alpha, beta),
                                      loop_correlator(state, alpha, beta))
            p_plus = qmath.tensor(i2, projector_at(alpha))
            p_minus = qmath.tensor(i2, projector_at(alpha + 90.0))
            pinched = p_plus @ state.rho @ p_plus + p_minus @ state.rho @ p_minus
            for gamma in (0.0, 0.3, 1.0):
                assert np.array_equal(dephase_bob(state, alpha, gamma).rho,
                                      (1.0 - gamma) * state.rho + gamma * pinched)


def test_wootters_overlaps_are_the_sigma_yy_product_bit_for_bit(rng):
    stack = np.array([random_density(rng) for _ in range(256)])
    _, v = qmath.herm_eig(stack)
    want = qmath.dagger(v) @ _SIGMA_YY @ v.conj()
    assert np.array_equal(_wootters_overlaps(v), want)
    _, v = qmath.herm_eig(bell_phi_plus().rho)   # exact zeros in v
    assert np.array_equal(_wootters_overlaps(v), qmath.dagger(v) @ _SIGMA_YY @ v.conj())


def test_spectral_metrics_match_matrix_formulas_on_full_rank_states(rng):
    stack = np.array([random_density(rng) for _ in range(256)])
    target = rng.normal(size=4) + 1j * rng.normal(size=4)
    target /= np.linalg.norm(target)
    w, v = qmath.herm_eig(stack)
    metrics = _spectral_metrics(np.clip(w, 0.0, None), v, target)
    for rho, row in zip(stack, metrics):
        assert_close(row, _oracle_metrics(rho, target), tol=1e-9)


def test_entropies_monotone_in_dephasing_strength():
    gammas = [0.0, 0.25, 0.5, 0.75, 1.0]
    metrics = [state_metrics(dephase_bob(bell_phi_plus(), 0.0, g)) for g in gammas]
    vn = [m.von_neumann for m in metrics]
    lin = [m.linear_entropy for m in metrics]
    assert all(b >= a - 1e-12 for a, b in zip(vn, vn[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(lin, lin[1:]))
    # a pure state's entropy is +0.0, not -0.0
    hh = np.diag([1.0, 0.0, 0.0, 0.0])
    for entropy in (state_metrics(TwoQubitState(hh.astype(complex))).von_neumann,
                    _spectral_metrics(np.diag(hh), np.eye(4), bell_phi_plus_ket())[1]):
        assert entropy == 0.0 and np.copysign(1.0, entropy) == 1.0


def test_bootstrap_on_sharp_counts():
    metrics = bootstrap_metrics(_exact_counts(bell_phi_plus(), n=1e6),
                                replicas=100, seed=0)
    assert metrics.tangle >= 0.99
    assert metrics.tangle_sigma < 0.01
    assert metrics.fidelity >= 0.99


def test_bootstrap_sigma_grows_with_less_light():
    big = bootstrap_metrics(_exact_counts(bell_phi_plus(), n=1e6), replicas=100, seed=1)
    small = bootstrap_metrics(_exact_counts(bell_phi_plus(), n=1e4), replicas=100, seed=1)
    assert small.tangle_sigma > big.tangle_sigma
    assert small.von_neumann_sigma > big.von_neumann_sigma
    assert small.linear_entropy_sigma > big.linear_entropy_sigma
    assert small.fidelity_sigma > big.fidelity_sigma


def test_bootstrap_degenerate_counts_surface_clean_error():
    counts = np.zeros(16)
    counts[0] = 1.0  # replicas will resample an all-dark run eventually
    with pytest.raises(ReconstructionError):
        bootstrap_metrics(counts, replicas=100, seed=2)


def test_bootstrap_values_clamped():
    metrics = bootstrap_metrics(_exact_counts(HV_MIXTURE, n=200), replicas=50, seed=3)
    for value, top in ((metrics.tangle, 1.0), (metrics.von_neumann, 2.0),
                       (metrics.linear_entropy, 1.0), (metrics.fidelity, 1.0)):
        assert -1e-12 <= value <= top + 1e-12
    assert metrics.clamp_events >= 0


def test_bootstrap_entropy_spread_above_one_bit():
    # a fully dephased noisy pair has ~1.1 bits of entropy: clamping at 1 bit
    # would collapse the spread and count a clamp on nearly every replica
    for angle, seed in ((0.0, 23), (45.0, 25)):
        state = dephase_bob(add_white_noise(bell_phi_plus(), 0.04), angle, 1.0)
        counts = simulate_counts(state, 10000, PCG64(seed))
        _, metrics = run_tomography(counts, replicas=200, seed=seed)
        assert metrics.von_neumann > 1.0
        assert metrics.von_neumann_sigma > 0.01
        assert metrics.clamp_events == 0


def test_bootstrap_blocks_match_single_state_path():
    # replica k's metrics must not depend on the block it is stacked in; its
    # counts are row k % _BLOCK of block k // _BLOCK, drawn alone from the
    # block's jumped generator
    counts = simulate_counts(add_white_noise(bell_phi_plus(), 0.04), 10000, PCG64(7))
    replicas = 2 * _BLOCK + 3
    rows = _replica_metrics(counts.astype(float), replicas, seed=11)
    assert rows.shape == (replicas, 4)
    for k in (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, replicas - 1):
        rng = PCG64(11, spawn_key=(0,))
        for _ in range(k // _BLOCK):
            rng = rng.jumped()
        _, metrics = run_tomography(_poisson([rng], counts, (_BLOCK, 16))[0, k % _BLOCK],
                                    replicas=2, seed=0)
        assert_close(rows[k], dataclasses.astuple(metrics)[:4], tol=1e-9)


def test_bootstrap_replica_does_not_depend_on_replica_count():
    # a short last block draws a prefix of a full block's rows
    counts = simulate_counts(add_white_noise(bell_phi_plus(), 0.04), 10000,
                             PCG64(5)).astype(float)
    short = _replica_metrics(counts, _BLOCK + 3, seed=9)
    full = _replica_metrics(counts, 2 * _BLOCK, seed=9)
    assert_close(short, full[:_BLOCK + 3], tol=1e-9)


def test_bootstrap_replica_zero_does_not_replay_the_counts_stream():
    # cmd_tomo draws the counts from PCG64(seed) and bootstraps with the
    # same seed: replica 0's resampling noise must not repeat the counts' own
    # noise, which would make it a copy of the counts' deviation
    state = add_white_noise(bell_phi_plus(), 0.04)
    truth = state_metrics(state).fidelity
    replica_noise, counts_noise = [], []
    for seed in range(200):
        counts = simulate_counts(state, 10000, PCG64(seed))
        _, metrics = run_tomography(counts, replicas=2, seed=seed)
        point = metrics.fidelity
        replica_noise.append(_replica_metrics(counts.astype(float), 1, seed)[0, 3] - point)
        counts_noise.append(point - truth)
    assert abs(np.corrcoef(replica_noise, counts_noise)[0, 1]) < 0.25


def test_reconstruct_bias_is_that_of_the_sgs_projection():
    # Werner p = 0.04 at 1e4 counts per setting: linear inversion is non-PSD
    # in most seeds.  Means over 400 seeds (s.e. ~0.0006 on fidelity, ~0.002
    # on tangle, ~0.003 on entropy): clip-and-renormalise 0.9592 / 0.8487 /
    # 0.2733 bits, Smolin-Gambetta-Smith 0.9658 / 0.8728 / 0.2344 bits,
    # truth 0.9700 / 0.8836 / 0.2419 bits.  Each bound lies midway between
    # the two rules, about 4 s.e. of a 200-seed mean from either.
    state = add_white_noise(bell_phi_plus(), 0.04)
    metrics = [run_tomography(simulate_counts(state, 10000, PCG64(seed)),
                              replicas=2, seed=seed)[1]
               for seed in range(200)]
    values = np.array([[m.fidelity, m.tangle, m.von_neumann] for m in metrics])
    mean_fidelity, mean_tangle, mean_entropy = values.mean(axis=0)
    assert mean_fidelity == pytest.approx(0.9658, abs=0.0033)
    assert mean_tangle == pytest.approx(0.8728, abs=0.012)
    assert mean_entropy == pytest.approx(0.2344, abs=0.019)


def test_bootstrap_sigma_coverage_is_below_nominal():
    # Werner p = 0.04 at 1e4 counts per setting, 200 seeds of 200 replicas:
    # the share of seeds whose true value lies within one bootstrap sigma of
    # run_tomography's point estimate, against a nominal 68 %.  Measured:
    # tangle 122, von Neumann entropy 114, linear entropy 121 and fidelity
    # 127 of 200; each is pinned within 4 binomial s.e. (~0.035) and below
    # the nominal share.
    state = add_white_noise(bell_phi_plus(), 0.04)
    truth = dataclasses.asdict(state_metrics(state))
    measured = {"tangle": 122, "von_neumann": 114, "linear_entropy": 121, "fidelity": 127}
    seeds = 200
    hits = dict.fromkeys(measured, 0)
    for seed in range(seeds):
        counts = simulate_counts(state, 10000, PCG64(seed))
        _, metrics = run_tomography(counts, replicas=200, seed=seed)
        m = dataclasses.asdict(metrics)
        for name in measured:
            hits[name] += abs(m[name] - truth[name]) <= m[name + "_sigma"]
    for name, count in measured.items():
        share = count / seeds
        assert abs(hits[name] / seeds - share) <= 4 * binomial_sigma(share, seeds), (name, hits)
        assert hits[name] / seeds < 0.68, (name, hits)


def test_bootstrap_golden():
    # Frozen figures: a change here reshuffles the replica streams.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "tomo_no_eve.json")
    cfg = load_config(path, "tomo")
    counts = simulate_counts(cfg.measured_state(), cfg.n_per_setting, PCG64(cfg.seed))
    metrics = bootstrap_metrics(counts, replicas=cfg.replicas, seed=cfg.seed)
    assert dataclasses.asdict(metrics) == pytest.approx({
        "tangle": 0.8837990923860033, "tangle_sigma": 0.03684208517535316,
        "von_neumann": 0.2060567058039794, "von_neumann_sigma": 0.06084833445552825,
        "linear_entropy": 0.07945358251161537,
        "linear_entropy_sigma": 0.025423796548069626,
        "fidelity": 0.96880029272134, "fidelity_sigma": 0.00998457988419363,
        "clamp_events": 0}, rel=1e-9)


def test_bootstrap_memory_does_not_grow_with_replicas():
    bootstrap_metrics(np.full(16, 5000.0), replicas=2, seed=0)   # warm the jump tables
    tracemalloc.start()
    try:
        bootstrap_metrics(np.full(16, 5000.0), replicas=40_960, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"traced peak {peak / 1e6:.2f} MB"


def test_random_basis_eve_leaves_three_halves_bits():
    # full dephasing in HV half the time and in DA the other half leaves
    # Phi+ with eigenvalues 1/2, 1/4, 1/4, 0
    state = after_eve(bell_phi_plus(), EveConfig(mode="dephasing", strength=1.0,
                                                 basis_policy="random_per_trial"))
    assert state_metrics(state).von_neumann == pytest.approx(1.5, abs=1e-9)
    assert correlator(state, 0.0, 22.5) == pytest.approx(np.sqrt(2) / 4, abs=1e-12)


def test_bootstrap_needs_replicas():
    for replicas in (1, MAX_REPLICAS + 1):
        with pytest.raises(ValueError):
            bootstrap_metrics(_exact_counts(bell_phi_plus()), replicas=replicas, seed=0)


def test_run_tomography_composition():
    _, metrics = run_tomography(_exact_counts(bell_phi_plus(), n=1e6), replicas=50, seed=4)
    assert metrics.tangle == pytest.approx(1.0, abs=1e-6)
    assert metrics.tangle_sigma < 0.01


def test_run_tomography_builds_one_spectrum_per_stack(monkeypatch):
    # one SGS spectrum serves the state and the point metrics; each
    # bootstrap block adds one for its stack of replicas
    shapes = []
    spectrum = qmath.physical_spectrum

    def counted(m):
        shapes.append(m.shape)
        return spectrum(m)

    monkeypatch.setattr(qmath, "physical_spectrum", counted)
    counts = simulate_counts(add_white_noise(bell_phi_plus(), 0.04), 10000, PCG64(3))
    run_tomography(counts, replicas=2 * _BLOCK + 3, seed=3)
    assert shapes == [(4, 4), (_BLOCK, 4, 4), (_BLOCK, 4, 4), (3, 4, 4)]


def test_chsh_bell_canonical_angles():
    # closed-form oracle: E(alpha, beta) = cos 2(alpha - beta)
    a, ap, b, bp = CHSH_CANONICAL_ANGLES
    oracle = lambda x, y: np.cos(np.deg2rad(2 * (x - y)))
    expected = oracle(a, b) - oracle(a, bp) + oracle(ap, b) + oracle(ap, bp)
    assert expected == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    assert chsh(bell_phi_plus(), a, ap, b, bp) == pytest.approx(expected, abs=1e-9)


def test_chsh_dephased_state():
    # oracle for the fully HV-dephased pair: E = cos 2a cos 2b
    a, ap, b, bp = CHSH_CANONICAL_ANGLES
    oracle = lambda x, y: np.cos(np.deg2rad(2 * x)) * np.cos(np.deg2rad(2 * y))
    s = dephase_bob(bell_phi_plus(), 0.0, 1.0)
    for x, y in ((a, b), (a, bp), (ap, b), (ap, bp)):
        assert correlator(s, x, y) == pytest.approx(oracle(x, y), abs=1e-9)
    expected = oracle(a, b) - oracle(a, bp) + oracle(ap, b) + oracle(ap, bp)
    assert expected == pytest.approx(np.sqrt(2), abs=1e-12)
    assert chsh(s, a, ap, b, bp) == pytest.approx(np.sqrt(2), abs=1e-9)


def test_chsh_product_state_bounded(rng):
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    product = TwoQubitState(rho)
    for _ in range(100):
        angles = rng.uniform(0, 180, size=4)
        assert abs(chsh(product, *angles)) <= 2.0 + 1e-9


def test_chsh_dephased_states_bounded(rng):
    for angle in (0.0, 45.0):
        s = dephase_bob(add_white_noise(bell_phi_plus(), 0.02), angle, 1.0)
        for _ in range(100):
            angles = rng.uniform(0, 180, size=4)
            assert abs(chsh(s, *angles)) <= 2.0 + 1e-9


def _chsh_qber_eves():
    """Eve absent, then every mode and basis policy over a grid of basis
    angle, dephasing strength and intercepted fraction: 55 configs."""
    yield EveConfig()
    for fraction in (0.4, 0.7, 1.0):
        for strength in (0.3, 0.6, 1.0):
            for angle in (0.0, 45.0, 22.5, 10.0):
                yield EveConfig(mode="dephasing", basis_angle=angle, strength=strength,
                                intercept_fraction=fraction)
            yield EveConfig(mode="dephasing", strength=strength, intercept_fraction=fraction,
                            basis_policy="random_per_trial")
        yield EveConfig(mode="intercept_resend", intercept_fraction=fraction,
                        basis_policy="random_per_trial")
        for angle in (0.0, 45.0):
            yield EveConfig(mode="intercept_resend", basis_angle=angle,
                            intercept_fraction=fraction)


@pytest.mark.parametrize("dark_rate", [0.0, 0.1, 0.9, 3.0])
@pytest.mark.parametrize("noise", [0.0, 0.04, 0.3, 1.0])
def test_chsh_is_the_qber_identity(noise, dark_rate):
    # White noise and every Eve channel keep Phi+ Bell-diagonal with
    # correlators along the linear axes only, so at the canonical angles
    # S = 2 sqrt 2 (1 - 2Q), Q the model's sifted QBER; the state is the kept
    # one: the scenario mixture that tomo and bell measure, with white noise
    # at the dark-only share of the kept intervals
    noisy = add_white_noise(bell_phi_plus(), noise)
    eves = list(_chsh_qber_eves())
    assert len(eves) == 55
    for eve in eves:
        rates = expected_rates(noisy, DetectorConfig(dark_rate=dark_rate), eve)
        kept = add_white_noise(after_eve(noisy, eve), rates.dark_only / rates.kept)
        assert chsh(kept, *CHSH_CANONICAL_ANGLES) == \
            pytest.approx(2 * np.sqrt(2) * (1 - 2 * rates.qber), abs=1e-12), eve


def test_state_metrics_point_values():
    m = state_metrics(bell_phi_plus())
    assert (m.tangle, m.von_neumann, m.linear_entropy, m.fidelity) == \
        pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-9)
    assert m.tangle_sigma == 0.0
