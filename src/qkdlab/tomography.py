"""Two-photon state tomography, state metrics, CHSH, and the ``tomo`` and ``bell`` configs.

Reconstruction is linear inversion against the fixed 16-setting projective
schedule, followed by the Smolin-Gambetta-Smith projection onto the nearest
physical state; it is exact on noise-free expected counts.  Every metric
(tangle, von Neumann and linear entropy, fidelity) is read from one kernel
over the eigenvalues and eigenvectors of the state, which the projection
already computes.  Metric uncertainties come from a Poisson parametric
bootstrap that draws and reconstructs its replicas in stacks through the same
path as :func:`run_tomography`'s counts vector.
"""

from __future__ import annotations

import sys
from dataclasses import astuple, dataclass, field

import numpy as np

from . import qmath
from .optics import PolState, linear_projectors, projector
from .pcg64 import check_seed
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
# The bootstrap's memory does not grow with its replica count, but its time
# does (~20 us a replica on a 2-vCPU x86 box): 10^7 replicas run for
# minutes and pin each sigma to ~0.02 % (1/sqrt(2 replicas)); a larger
# count is refused rather than left to run for hours or, from a typo, years.
MAX_REPLICAS = 10 ** 7
# numpy's Poisson sampler refuses a mean above ~9.2e18: a count stays at or
# below this, so a simulated count above its mean can still be resampled.
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


def simulate_counts(s: TwoQubitState, n_per_setting: float, rng) -> np.ndarray:
    """Poisson counts with mean ``n_per_setting * Tr[rho Pi_k]``."""
    if n_per_setting <= 0:
        raise ValueError("n_per_setting must be positive")
    if n_per_setting > MAX_COUNT:
        raise ValueError(f"n_per_setting must be at most {MAX_COUNT:g}")
    means = np.clip(n_per_setting * expected_probs(s), 0.0, None)
    return rng.poisson(means)


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
    for lo in range(0, replicas, _BLOCK):
        # spawn_key keeps block 0 off the stream of default_rng(seed), which
        # may have drawn the counts themselves; SeedSequence([seed, 0]) would
        # not, as it hashes like SeedSequence(seed).
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(lo // _BLOCK,)))
        draws = rng.poisson(counts, size=(min(_BLOCK, replicas - lo), counts.size))
        yield _spectral_metrics(*_physical_spectrum(draws.astype(float)), target)


def bootstrap_metrics(counts, replicas: int, seed: int) -> StateMetrics:
    """Poisson parametric bootstrap of the reconstruction metrics.

    Replica ``k`` resamples counts' ~ Poisson(counts), reconstructs and
    computes the metrics.  Its counts are row ``k % _BLOCK`` of the draw
    ``poisson(counts, size=(_BLOCK, 16))`` from
    ``default_rng(SeedSequence(seed, spawn_key=(k // _BLOCK,)))``; a short
    last block draws a prefix of those rows.  So a replica's values depend
    on ``(seed, k)`` alone, not on ``replicas``.  Each metric is clamped to
    its physical range (von Neumann entropy to [0, 2] bits, the others to
    [0, 1]) before aggregation; clamping events are counted in the result.
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
