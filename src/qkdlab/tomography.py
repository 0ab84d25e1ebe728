"""Two-photon state tomography, state metrics, CHSH, and the ``tomo`` and ``bell`` configs.

Reconstruction is linear inversion against the fixed 16-setting projective
schedule, followed by the Smolin-Gambetta-Smith projection onto the nearest
physical state; it is exact on noise-free expected counts.  Every metric
(tangle, von Neumann and linear entropy, fidelity) is read from one kernel
over the eigenvalues and eigenvectors of the state, which the projection
already computes.  Metric uncertainties come from a Poisson parametric
bootstrap that draws and reconstructs its replicas in stacks through the same
path as :func:`run_tomography`'s counts vector.  Every Poisson draw, of the
counts and of the replicas, is :func:`_poisson`'s, an exact sampler over the
raw words of :class:`~qkdlab.pcg64.PCG64`, so no output depends on the
streams of ``numpy.random``.
"""

from __future__ import annotations

import sys
from dataclasses import astuple, dataclass, field

import numpy as np

from . import qmath
from .optics import PolState, linear_projectors, projector
from .pcg64 import PCG64, check_seed, uniform
from .states import Beam, EveConfig, TwoQubitState, bell_phi_plus_ket

# Analyzer filter settings (first photon, second photon) in measurement
# order.  The first four form a complete basis, so their counts estimate the
# total flux.
TOMO_SCHEDULE: tuple[tuple[PolState, PolState], ...] = tuple(
    (PolState(a), PolState(b)) for a, b in
    ("HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
     "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL")
)

_PAULIS = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


class ReconstructionError(ValueError):
    """Raised when a counts vector cannot be turned into a physical state."""


# Pi_k, the two-photon projector of each schedule setting.
_PROJECTORS = np.array([qmath.tensor(projector(a), projector(b)) for a, b in TOMO_SCHEDULE])


def _inversion_operators() -> np.ndarray:
    """M[k] with rho = sum_k p_k M[k] for the normalised counts p_k.

    B[k, m] = Tr[Pi_k G_m] over the orthonormal two-photon Pauli basis
    G_m = (sigma_i x sigma_j)/2 is invertible for the fixed schedule, so
    M[k] = sum_m (B^-1)[m, k] G_m."""
    basis = qmath.tensor(_PAULIS[:, None], _PAULIS[None, :]).reshape(16, 4, 4) / 2.0
    b_mat = qmath.expectation(_PROJECTORS[:, None], basis)
    return np.tensordot(np.linalg.inv(b_mat), basis, axes=(0, 0))


_INVERSION = _inversion_operators()
_FLUX = slice(0, 4)  # the HH, HV, VV, VH quartet
# Replicas per random stream and stacked reconstruction in the bootstrap:
# large enough to amortise numpy's per-call cost, small enough to keep peak
# memory flat.  Changing it reshuffles every replica's counts.
_BLOCK = 256
# Blocks drawn by one _poisson call: their retries share rounds, which saves
# time, and their counts are held together, 32 KB a block.  Any value gives
# the same replicas.
_GROUP = 4
# The bootstrap's memory does not grow with its replica count, but its time
# does (~20 us a replica on a 2-vCPU x86 box): 10^7 replicas run for
# minutes and pin each sigma to ~0.02 % (1/sqrt(2 replicas)); a larger
# count is refused rather than left to run for hours or, from a typo, years.
MAX_REPLICAS = 10 ** 7
# A count is an int64 (at most ~9.2e18), and a mean at or below this cap
# draws counts that fit it, which the bootstrap can resample in turn; the
# sampler's law is tested up to this mean.
MAX_COUNT = 1e18


def _checked_counts(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (len(TOMO_SCHEDULE),):
        raise ReconstructionError(f"expected {len(TOMO_SCHEDULE)} counts")
    if not np.all((counts >= 0) & (counts <= MAX_COUNT)):
        raise ReconstructionError(f"counts must be finite and in [0, {MAX_COUNT:g}]")
    return counts


def _linear_inversion(counts: np.ndarray) -> np.ndarray:
    """Counts of shape (..., 16) -> unit-trace Hermitian estimates (..., 4, 4)."""
    flux = counts[..., _FLUX].sum(axis=-1, keepdims=True)
    if np.any(flux <= 0):
        raise ReconstructionError("zero flux estimate: the HH/HV/VV/VH counts are empty")
    # einsum rounds a row the same alone or in a stack; BLAS need not, and a
    # replica's metrics must not depend on the block it is drawn in.  The
    # counts are real, so the real and imaginary parts are two real sums,
    # the complex sum's bit for bit.
    p = counts / flux
    rho = np.empty(p.shape[:-1] + _INVERSION.shape[1:], dtype=complex)
    np.einsum("...k,kij->...ij", p, _INVERSION.real, out=rho.real)
    np.einsum("...k,kij->...ij", p, _INVERSION.imag, out=rho.imag)
    return rho


def _physical_spectrum(counts: np.ndarray):
    """Counts of shape (..., 16) -> the SGS spectrum ``(w, v)`` of the
    physical states, as ``qmath.physical_spectrum`` returns it."""
    rho_lin = _linear_inversion(counts)
    try:
        return qmath.physical_spectrum(rho_lin)
    except ValueError as exc:
        raise ReconstructionError(str(exc)) from exc


def expected_probs(s: TwoQubitState) -> np.ndarray:
    """Transmission probability Tr[rho Pi_k] for every schedule setting."""
    return qmath.expectation(s.rho, _PROJECTORS)


# Poisson sampling.  Below _PTRS_MIN a draw inverts the CDF; at or above it,
# Hoermann's PTRS (Insurance: Math. Econ. 12, 1993), whose hat is valid there.
_PTRS_MIN = 10.0
# Loader's stirlerr(n) = log n! - log(sqrt(2 pi n) (n/e)^n) for n = 0 .. 15
# ("Fast and accurate computation of binomial probabilities", 2000); 0 is a
# placeholder, since k = 0 takes the log pmf -lambda directly.
_STIRLERR = np.array([
    0.0, 0.0810614667953272582196702, 0.0413406959554092940938221,
    0.02767792568499833914878929, 0.02079067210376509311152277,
    0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.010411265261972096497478567,
    0.009255462182712732917728637, 0.008330563433362871256469318,
    0.007573675487951840794972024, 0.006942840107209529865664152,
    0.006408994188004207068439631, 0.005951370112758847735624416,
    0.005554733551962801371038690])
# the Stirling series' coefficients 1/12, 1/360, 1/1260, 1/1680, 1/1188
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
# 1/(2j + 1) for j = 9 .. 1: bd0's series in v^2, which for |v| < 0.1 has
# converged to double precision by its ninth term
_BD0_SERIES = tuple(1 / (2 * j + 1) for j in range(9, 0, -1))
_HALF_LOG_2PI = 0.5 * np.log(2 * np.pi)
# Words read ahead for each stream's retries with its first attempt, per
# PTRS draw: the retries need ~0.27 on average.  A stream that runs short
# reads more.
_SPARE = 0.35


def _log_pmf(k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log Poisson(k; lam) for integers ``k >= 0`` (as floats) and ``lam > 0``
    as ``-stirlerr(k) - bd0(k, lam) - log sqrt(2 pi k)``, and ``-lam`` at
    ``k = 0`` (Loader 2000), free of the cancellation in ``-lam + k log lam -
    log k!``.  ``bd0(x, m) = x log(x/m) + m - x`` is the series in ``v = (x -
    m)/(x + m)`` where ``|v| < 0.1``."""
    x = np.maximum(k, 1.0)
    r = 1.0 / (x * x)
    s0, s1, s2, s3, s4 = _STIRLING
    stirlerr = (s0 - (s1 - (s2 - (s3 - s4 * r) * r) * r) * r) / x
    low = np.flatnonzero(x <= 15.0)
    if low.size:
        stirlerr[low] = _STIRLERR[x[low].astype(np.intp)]
    d = x - lam
    v = d / (x + lam)
    v2 = v * v
    series = _BD0_SERIES[0]
    for c in _BD0_SERIES[1:]:
        series = series * v2 + c
    bd0 = d * v + 2.0 * x * v * v2 * series
    far = np.flatnonzero(np.abs(v) >= 0.1)
    if far.size:
        bd0[far] = x[far] * np.log(x[far] / lam[far]) - d[far]
    return np.where(k > 0.0, -stirlerr - bd0 - _HALF_LOG_2PI - 0.5 * np.log(x), -lam)


def _invert(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The smallest k with ``u < F(k)``, the Poisson(lam) CDF summed term by
    term.  A term too small to move the sum ends the search."""
    k = np.zeros(lam.shape)
    p = np.exp(-lam)
    live = np.flatnonzero(u >= p)
    lam, u, p, cdf = lam[live], u[live], p[live], p[live]
    j = 0
    while live.size:
        j += 1
        k[live] = j
        p = p * lam / j
        grown = cdf + p
        more = (grown > cdf) & (u >= grown)
        live, lam, u, p, cdf = live[more], lam[more], u[more], p[more], grown[more]
    return k


def _ptrs_constants(lam: np.ndarray) -> np.ndarray:
    """PTRS's constants for each mean, as rows: 2a, lam, v_r and b."""
    b = 0.931 + 2.53 * np.sqrt(lam)
    return np.stack([2.0 * (-0.059 + 0.02483 * b), lam, 0.9277 - 3.6224 / (b - 2.0), b])


def _ptrs(c: np.ndarray, u_words: np.ndarray, v_words: np.ndarray):
    """One PTRS attempt per column of constants ``c`` from its words U and V:
    the candidate counts (floats) and which of them are accepted."""
    u = uniform(u_words)
    u -= 0.5
    us = np.abs(u)
    np.subtract(0.5, us, out=us)
    v = uniform(v_words)
    k = np.divide(c[0], us)
    k += c[3]
    k *= u
    k += c[1]
    k += 0.43
    np.floor(k, out=k)
    accept = (us >= 0.07) & (v <= c[2])
    test = np.flatnonzero(~accept & (k >= 0.0) & ((us >= 0.013) | (v <= us)))
    if test.size:
        two_a, lam, _, b = c[:, test]
        us = us[test]
        hat = (1.1239 + 1.1328 / (b - 3.4)) / (0.5 * two_a / (us * us) + b)
        accept[test] = np.log(v[test] * hat) <= _log_pmf(k[test], lam)
    return k, accept


def _poisson(rngs, lam, shape) -> np.ndarray:
    """Poisson counts of shape ``(len(rngs),) + shape``, exact in law, as floats,
    with means ``lam`` broadcast to ``shape``.  Row ``i`` reads only the raw
    words of the bit generator ``rngs[i]``.

    In each row a mean of 0 gives 0 and reads no word.  A row reads its
    words in this order: one for each draw with 0 < mean < ``_PTRS_MIN``,
    whose :func:`~qkdlab.pcg64.uniform` inverts the CDF; then one PTRS
    attempt for each draw with mean >= ``_PTRS_MIN``, as the U words of all
    such draws, then their V words; then, while any of its draws is
    rejected, one more attempt for each rejected draw in the same form.
    Draws take their words in C order of ``shape``, so the words a row
    reads depend on ``lam``, ``shape`` and the words alone, and its counts
    on its own generator alone.  The rows' retries run in shared rounds,
    and each generator reads ahead, so its position after the call is not
    defined."""
    lam = np.broadcast_to(np.asarray(lam, dtype=float), shape).reshape(-1)
    small = (lam > 0.0) & (lam < _PTRS_MIN)
    large = lam >= _PTRS_MIN
    size, lam_small, consts = lam.size, lam[small], _ptrs_constants(lam[large])
    n = consts.shape[1]
    first = lam_small.size + 2 * n
    spare = int(_SPARE * n) + 16
    uniforms = np.empty((len(rngs), lam_small.size))
    k_large = np.empty((len(rngs), n))
    done = np.empty((len(rngs), n), dtype=bool)
    pools = []   # each row's words after its first attempt
    for row, rng in enumerate(rngs):
        words = rng.random_raw(first + spare)
        uniforms[row] = uniform(words[:lam_small.size])
        k_large[row], done[row] = _ptrs(consts, words[lam_small.size:first - n],
                                        words[first - n:first])
        pools.append(words[first:].copy())
    used = [0] * len(rngs)
    pending = np.flatnonzero(~done)
    while pending.size:
        rows, columns = np.divmod(pending, n)
        u_words, v_words = [], []
        for row, count in enumerate(np.bincount(rows, minlength=len(rngs)).tolist()):
            while used[row] + 2 * count > len(pools[row]):
                pools[row] = np.concatenate([pools[row], rngs[row].random_raw(spare)])
            u_words.append(pools[row][used[row]:used[row] + count])
            v_words.append(pools[row][used[row] + count:used[row] + 2 * count])
            used[row] += 2 * count
        k, accept = _ptrs(consts[:, columns], np.concatenate(u_words), np.concatenate(v_words))
        k_large.flat[pending[accept]] = k[accept]
        pending = pending[~accept]
    if n == size:
        return k_large.reshape((len(rngs),) + tuple(shape))
    counts = np.zeros((len(rngs), size))
    counts[:, large] = k_large
    counts[:, small] = _invert(np.broadcast_to(lam_small, uniforms.shape).reshape(-1),
                               uniforms.reshape(-1)).reshape(uniforms.shape)
    return counts.reshape((len(rngs),) + tuple(shape))


def simulate_counts(s: TwoQubitState, n_per_setting: float, rng) -> np.ndarray:
    """Poisson counts with mean ``n_per_setting * Tr[rho Pi_k]``, drawn by
    :func:`_poisson` from the bit generator ``rng``."""
    if n_per_setting <= 0:
        raise ValueError("n_per_setting must be positive")
    if n_per_setting > MAX_COUNT:
        raise ValueError(f"n_per_setting must be at most {MAX_COUNT:g}")
    means = np.clip(n_per_setting * expected_probs(s), 0.0, None)
    return _poisson([rng], means, means.shape)[0].astype(np.int64)


# Column j of Y = sigma_y x sigma_y holds one nonzero entry, Y[3 - j, j].
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])


def _wootters_overlaps(v: np.ndarray) -> np.ndarray:
    """V^dagger Y V* on a stack.  V^dagger Y is V^dagger's columns reversed
    and signed, the matrix product's bit for bit, as each of its sums has
    one nonzero term."""
    return (qmath.dagger(v)[..., ::-1] * _YY_SIGNS) @ v.conj()


# Tangle, von Neumann entropy in bits, linear entropy and fidelity of a
# two-qubit state lie in [0, _METRIC_MAX]; bootstrap values are clamped to
# that range.
_METRIC_MAX = np.array([1.0, 2.0, 1.0, 1.0])


def _spectral_metrics(w: np.ndarray, v: np.ndarray, target: np.ndarray) -> np.ndarray:
    """(tangle, von Neumann entropy, linear entropy, fidelity), shape (..., 4),
    of the states ``v diag(w) v^dagger`` with ``w`` nonnegative, unit sum,
    on a stack.

    The Wootters concurrence (PRL 80, 2245, 1998) is max(0, s1 - s2 - s3 -
    s4) over the descending singular values of diag(sqrt w) V^dagger Y V*
    diag(sqrt w), Y = sigma_y x sigma_y: the square roots of the
    eigenvalues of rho Y rho* Y, without taking roots of their rounding
    noise when rho is rank-deficient.  V^dagger Y V* is
    :func:`_wootters_overlaps`, which signs and reverses columns in place of
    a product with Y.
    """
    root = np.sqrt(w)
    overlaps = _wootters_overlaps(v)
    sv = np.linalg.svd(root[..., :, None] * overlaps * root[..., None, :], compute_uv=False)
    c = np.maximum(0.0, sv[..., 0] - sv[..., 1] - sv[..., 2] - sv[..., 3])
    # 0 log 0 = 0; adding 0.0 turns a pure state's -0.0 into 0.0
    entropy = -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=-1) + 0.0
    linear = 4.0 / 3.0 * (1.0 - (w * w).sum(axis=-1))
    fid = (w * np.abs(target.conj() @ v) ** 2).sum(axis=-1)
    return np.stack([c * c, entropy, linear, fid], axis=-1)


@dataclass
class StateMetrics:
    """Point metrics with bootstrap spreads (sigmas are zero outside bootstrap);
    metrics and sigmas each follow the column order of :func:`_spectral_metrics`."""

    tangle: float
    von_neumann: float
    linear_entropy: float
    fidelity: float
    tangle_sigma: float = 0.0
    von_neumann_sigma: float = 0.0
    linear_entropy_sigma: float = 0.0
    fidelity_sigma: float = 0.0
    clamp_events: int = 0


def state_metrics(s: TwoQubitState) -> StateMetrics:
    """Raw (unclamped) metrics of a single state, sigmas zero:

    - ``tangle``: the squared Wootters concurrence, 0 separable, 1 maximally
      entangled;
    - ``von_neumann``: -Tr(rho log2 rho) in bits, with 0 log 0 = 0;
    - ``linear_entropy``: (4/3)(1 - Tr rho^2), 0 pure, 2/3 a two-state
      mixture, 1 maximally mixed;
    - ``fidelity``: <Phi+|rho|Phi+>, against the entangled source state.
    """
    w, v = qmath.herm_eig(s.rho)
    return StateMetrics(*map(float, _spectral_metrics(np.clip(w, 0.0, None), v,
                                                      bell_phi_plus_ket())))


def _replica_blocks(counts: np.ndarray, replicas: int, seed: int):
    """Raw (tangle, von Neumann, linear entropy, fidelity) of the replicas,
    one array of shape (rows, 4) per block of ``_BLOCK`` replicas, each block
    drawn and reconstructed as one stack."""
    target = bell_phi_plus_ket()
    # spawn_key (0,) keeps block 0 off the stream of PCG64(seed), which may
    # have drawn the counts themselves; block b's generator is this one
    # jumped b times.
    rng = PCG64(seed, spawn_key=(0,))
    for lo in range(0, replicas, _BLOCK * _GROUP):
        rngs = [rng]
        while len(rngs) < min(_GROUP, -(-(replicas - lo) // _BLOCK)):
            rngs.append(rngs[-1].jumped())
        rng = rngs[-1].jumped()
        draws = _poisson(rngs, counts, (_BLOCK, counts.size))
        for i in range(len(rngs)):
            yield _spectral_metrics(*_physical_spectrum(draws[i, :replicas - lo - i * _BLOCK]),
                                    target)
        del draws   # before the next group's draw, which would hold both


def bootstrap_metrics(counts, replicas: int, seed: int) -> StateMetrics:
    """Poisson parametric bootstrap of the reconstruction metrics.

    Replica ``k`` resamples counts' ~ Poisson(counts), reconstructs and
    computes the metrics.  Its counts are row ``k % _BLOCK`` of the
    :func:`_poisson` draw of shape ``(_BLOCK, 16)`` from
    ``PCG64(seed, spawn_key=(0,))`` jumped ``k // _BLOCK`` times; every block
    draws all its rows, and a short last block keeps a prefix.  So a
    replica's values depend on ``(seed, k)`` alone, not on ``replicas``.
    Each metric is clamped to its physical range (von Neumann entropy to
    [0, 2] bits, the others to [0, 1]) before aggregation; clamping events
    are counted in the result.
    ``replicas`` must lie in [2, :data:`MAX_REPLICAS`].  The means and
    (population) sigmas merge each block's count, mean and sum of squared
    deviations with Chan, Golub and LeVeque's update, so memory does not
    grow with ``replicas``.
    """
    if not 2 <= replicas <= MAX_REPLICAS:
        raise ValueError(f"bootstrap needs 2 to {MAX_REPLICAS} replicas, got {replicas}")
    n, mean, m2, clamp_events = 0, np.zeros(4), np.zeros(4), 0
    for rows in _replica_blocks(_checked_counts(counts), replicas, seed):
        clipped = np.clip(rows, 0.0, _METRIC_MAX)
        clamp_events += int(np.count_nonzero(np.abs(clipped - rows) > 1e-12))
        k = len(clipped)
        block_mean = clipped.mean(axis=0)
        delta = block_mean - mean
        m2 += ((clipped - block_mean) ** 2).sum(axis=0) + delta * delta * (n * k / (n + k))
        mean += delta * (k / (n + k))
        n += k
    return StateMetrics(*map(float, mean), *map(float, np.sqrt(m2 / n)), clamp_events)


def run_tomography(counts, replicas: int, seed: int) -> tuple[TwoQubitState, StateMetrics]:
    """Reconstruct a counts vector and bootstrap its metric uncertainties,
    as the pair ``(rho_hat, metrics)`` that ``qkdlab tomo`` writes.

    The counts, normalised by the HH+HV+VV+VH flux, are inverted and
    projected onto the nearest physical state; exact expected counts give
    back the input state to floating-point accuracy.  The state and its
    point metrics come from one SGS spectrum."""
    counts = _checked_counts(counts)
    w, v = _physical_spectrum(counts)
    rho_hat = TwoQubitState(qmath.nearest_physical(w, v))
    point = _spectral_metrics(w, v, bell_phi_plus_ket())
    boot = bootstrap_metrics(counts, replicas=replicas, seed=seed)
    return rho_hat, StateMetrics(*map(float, point), *astuple(boot)[4:])


def correlator(s: TwoQubitState, alpha: float, beta: float) -> float:
    """E(alpha, beta) for linear analyzers at the given angles (degrees from
    horizontal): one stacked trace over the four joint ports, signs (+,-,-,+)."""
    p = qmath.expectation(s.rho, qmath.joint_projectors(linear_projectors(alpha),
                                                        linear_projectors(beta)))
    return float(p[0] - p[1] - p[2] + p[3])


def chsh(s: TwoQubitState, a: float, a_prime: float, b: float, b_prime: float) -> float:
    """CHSH combination E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    return (correlator(s, a, b) - correlator(s, a, b_prime)
            + correlator(s, a_prime, b) + correlator(s, a_prime, b_prime))


CHSH_CANONICAL_ANGLES = (0.0, 45.0, 22.5, 67.5)


@dataclass(frozen=True)
class TomoConfig(Beam):
    """A ``tomo`` run.  It checks its seed; :func:`simulate_counts` and
    :func:`bootstrap_metrics` check the other ranges."""

    seed: int
    replicas: int = 200
    n_per_setting: float = 10000.0
    source_noise: float = 0.0
    eve: EveConfig = field(default_factory=EveConfig)
    counts_file: str | None = None

    def __post_init__(self):
        super().__post_init__()
        check_seed(self.seed)


@dataclass(frozen=True)
class BellConfig(Beam):
    """A ``bell`` run at the analyzer angles [a, a', b, b'], in degrees."""

    angles: tuple[float, ...] = CHSH_CANONICAL_ANGLES
    source_noise: float = 0.0
    eve: EveConfig = field(default_factory=EveConfig)

    def __post_init__(self):
        super().__post_init__()
        if len(self.angles) != 4 or not all(isinstance(a, (int, float)) and not isinstance(a, bool)
                                            and abs(a) <= sys.float_info.max for a in self.angles):
            raise ValueError("angles must be four finite numbers [a, a', b, b']")
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
