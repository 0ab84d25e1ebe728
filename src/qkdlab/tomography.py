"""Two-photon state tomography, state metrics and the CHSH correlator.

Reconstruction is linear inversion against the fixed 16-setting projective
schedule, followed by the Smolin-Gambetta-Smith projection onto the nearest
physical state; it is exact on noise-free expected counts.  Every metric
(tangle, von Neumann and linear entropy, fidelity) is read from one kernel
over the eigenvalues and eigenvectors of the state, which the projection
already computes.  Metric uncertainties come from a Poisson parametric
bootstrap that draws and reconstructs its replicas in stacks through the same
path as a single counts vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import qmath
from .optics import PolState, linear_projector, projector
from .states import TwoQubitState, bell_phi_plus_ket

# Analyzer filter settings (first photon, second photon) in measurement
# order.  The first four form a complete basis, so their counts estimate the
# total flux.
TOMO_SCHEDULE: tuple[tuple[PolState, PolState], ...] = tuple(
    (PolState(a), PolState(b)) for a, b in
    ("HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
     "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL")
)

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class ReconstructionError(ValueError):
    """Raised when a counts vector cannot be turned into a physical state."""


def _inversion_operators() -> np.ndarray:
    """M[k] with rho = sum_k p_k M[k] for the normalised counts p_k.

    B[k, m] = Tr[Pi_k G_m] over the orthonormal two-photon Pauli basis
    G_m = (sigma_i x sigma_j)/2 is invertible for the fixed schedule, so
    M[k] = sum_m (B^-1)[m, k] G_m."""
    basis = np.array([qmath.tensor(p, q) / 2.0 for p in _PAULIS for q in _PAULIS])
    projs = [qmath.tensor(projector(a), projector(b)) for a, b in TOMO_SCHEDULE]
    b_mat = np.array([[np.trace(pk @ gm).real for gm in basis] for pk in projs])
    return np.tensordot(np.linalg.inv(b_mat), basis, axes=(0, 0))


_INVERSION = _inversion_operators()
_FLUX = slice(0, 4)  # the HH, HV, VV, VH quartet
# Replicas per random stream and stacked reconstruction in the bootstrap:
# large enough to amortise numpy's per-call cost, small enough to keep peak
# memory flat.  Changing it reshuffles every replica's counts.
_BLOCK = 256


def _checked_counts(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (len(TOMO_SCHEDULE),):
        raise ReconstructionError(f"expected {len(TOMO_SCHEDULE)} counts")
    if not np.all((counts >= 0) & (counts < np.inf)):
        raise ReconstructionError("counts must be finite and nonnegative")
    return counts


def _linear_inversion(counts: np.ndarray) -> np.ndarray:
    """Counts of shape (..., 16) -> unit-trace Hermitian estimates (..., 4, 4)."""
    flux = counts[..., _FLUX].sum(axis=-1, keepdims=True)
    if np.any(flux <= 0):
        raise ReconstructionError("zero flux estimate: the HH/HV/VV/VH counts are empty")
    # einsum rounds a row the same alone or in a stack; BLAS need not, and a
    # replica's metrics must not depend on the block it is drawn in.
    return np.einsum("...k,kij->...ij", counts / flux, _INVERSION)


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
    return np.array([
        np.trace(s.rho @ qmath.tensor(projector(a), projector(b))).real
        for a, b in TOMO_SCHEDULE
    ])


def simulate_counts(s: TwoQubitState, n_per_setting: float, rng) -> np.ndarray:
    """Poisson counts with mean ``n_per_setting * Tr[rho Pi_k]``."""
    if n_per_setting <= 0:
        raise ValueError("n_per_setting must be positive")
    means = np.clip(n_per_setting * expected_probs(s), 0.0, None)
    return rng.poisson(means)


def reconstruct(counts) -> TwoQubitState:
    """Linear-inversion tomography plus physicality projection.

    The total flux is estimated from the HH+HV+VV+VH quartet, the normalized
    counts are inverted through the schedule's design matrix, and the result
    is projected onto the nearest physical state.  Exact expected counts
    reproduce the input state to floating-point accuracy.
    """
    rho_lin = _linear_inversion(_checked_counts(counts))
    try:
        rho = qmath.nearest_physical(rho_lin)
    except ValueError as exc:
        raise ReconstructionError(str(exc)) from exc
    return TwoQubitState(rho)


_SIGMA_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real
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
    noise when rho is rank-deficient.
    """
    root = np.sqrt(w)
    overlaps = qmath.dagger(v) @ _SIGMA_YY @ v.conj()
    sv = np.linalg.svd(root[..., :, None] * overlaps * root[..., None, :], compute_uv=False)
    c = np.maximum(0.0, sv[..., 0] - sv[..., 1] - sv[..., 2] - sv[..., 3])
    # 0 log 0 = 0; adding 0.0 turns a pure state's -0.0 into 0.0
    entropy = -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=-1) + 0.0
    linear = 4.0 / 3.0 * (1.0 - (w * w).sum(axis=-1))
    fid = (w * np.abs(target.conj() @ v) ** 2).sum(axis=-1)
    return np.stack([c * c, entropy, linear, fid], axis=-1)


def _target_ket(target_ket) -> np.ndarray:
    if target_ket is None:
        return bell_phi_plus_ket()
    t = np.asarray(target_ket, dtype=complex)
    if t.shape != (4,) or not abs(np.vdot(t, t).real - 1.0) <= qmath.TRACE_TOL:
        raise ValueError("target_ket must be a unit-norm vector of length 4")
    return t


def _point_metrics(s: TwoQubitState, target_ket=None) -> np.ndarray:
    w, v = qmath.herm_eig(s.rho)
    return _spectral_metrics(np.clip(w, 0.0, None), v, _target_ket(target_ket))


def tangle(s: TwoQubitState) -> float:
    """Squared Wootters concurrence: 0 separable, 1 maximally entangled."""
    return float(_point_metrics(s)[0])


def von_neumann(s: TwoQubitState) -> float:
    """-Tr(rho log2 rho), with 0 log 0 = 0."""
    return float(_point_metrics(s)[1])


def linear_entropy(s: TwoQubitState) -> float:
    """(4/3)(1 - Tr rho^2): 0 pure, 2/3 two-state mixture, 1 maximally mixed."""
    return float(_point_metrics(s)[2])


def fidelity(s: TwoQubitState, target_ket: np.ndarray | None = None) -> float:
    """<t|rho|t> against a pure target (default: the entangled source state);
    a target that is not a unit-norm length-4 vector raises ValueError."""
    return float(_point_metrics(s, target_ket)[3])


@dataclass
class StateMetrics:
    """Point metrics with bootstrap spreads (sigmas are zero outside bootstrap)."""

    tangle: float
    von_neumann: float
    linear_entropy: float
    fidelity: float
    tangle_sigma: float = 0.0
    von_neumann_sigma: float = 0.0
    linear_entropy_sigma: float = 0.0
    fidelity_sigma: float = 0.0
    clamp_events: int = 0


def state_metrics(s: TwoQubitState, target_ket: np.ndarray | None = None) -> StateMetrics:
    """Raw (unclamped) metrics of a single state; the target is checked as
    in ``fidelity``."""
    return StateMetrics(*map(float, _point_metrics(s, target_ket)))


def _replica_metrics(counts: np.ndarray, replicas: int, seed: int) -> np.ndarray:
    """Raw (tangle, von Neumann, linear entropy, fidelity) of each replica,
    shape (replicas, 4), drawn and reconstructed ``_BLOCK`` replicas at a time."""
    rows = np.empty((replicas, 4))
    target = bell_phi_plus_ket()
    for lo in range(0, replicas, _BLOCK):
        hi = min(lo + _BLOCK, replicas)
        # spawn_key keeps block 0 off the stream of default_rng(seed), which
        # may have drawn the counts themselves; SeedSequence([seed, 0]) would
        # not, as it hashes like SeedSequence(seed).
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(lo // _BLOCK,)))
        w, v = _physical_spectrum(rng.poisson(counts, size=(hi - lo, counts.size)).astype(float))
        rows[lo:hi] = _spectral_metrics(w, v, target)
    return rows


def bootstrap_metrics(counts, replicas: int = 200, seed: int = 0) -> StateMetrics:
    """Poisson parametric bootstrap of the reconstruction metrics.

    Replica ``k`` resamples counts' ~ Poisson(counts), reconstructs and
    computes the metrics.  Its counts are row ``k % _BLOCK`` of the draw
    ``poisson(counts, size=(_BLOCK, 16))`` from
    ``default_rng(SeedSequence(seed, spawn_key=(k // _BLOCK,)))``; a short
    last block draws a prefix of those rows.  So a replica's values depend
    on ``(seed, k)`` alone, not on ``replicas``.  Each metric is clamped to
    its physical range (von Neumann entropy to [0, 2] bits, the others to
    [0, 1]) before aggregation; clamping events are counted in the result.
    """
    if replicas < 2:
        raise ValueError("bootstrap needs at least 2 replicas")
    rows = _replica_metrics(_checked_counts(counts), replicas, seed)
    clipped = np.clip(rows, 0.0, _METRIC_MAX)
    mean = clipped.mean(axis=0)
    std = clipped.std(axis=0)
    return StateMetrics(
        tangle=float(mean[0]), von_neumann=float(mean[1]),
        linear_entropy=float(mean[2]), fidelity=float(mean[3]),
        tangle_sigma=float(std[0]), von_neumann_sigma=float(std[1]),
        linear_entropy_sigma=float(std[2]), fidelity_sigma=float(std[3]),
        clamp_events=int(np.count_nonzero(np.abs(clipped - rows) > 1e-12)),
    )


@dataclass
class TomographyRun:
    """Counts, the state reconstructed from them, and its metrics."""

    counts: np.ndarray
    total_estimate: float
    rho_hat: TwoQubitState
    metrics: StateMetrics


def run_tomography(counts, replicas: int = 200, seed: int = 0) -> TomographyRun:
    """Reconstruct a counts vector and bootstrap its metric uncertainties."""
    counts = np.asarray(counts, dtype=float)
    rho_hat = reconstruct(counts)
    point = _spectral_metrics(*_physical_spectrum(counts), bell_phi_plus_ket())
    boot = bootstrap_metrics(counts, replicas=replicas, seed=seed)
    metrics = replace(boot, tangle=float(point[0]), von_neumann=float(point[1]),
                      linear_entropy=float(point[2]), fidelity=float(point[3]))
    return TomographyRun(counts=counts, total_estimate=float(counts[_FLUX].sum()),
                         rho_hat=rho_hat, metrics=metrics)


def correlator(s: TwoQubitState, alpha: float, beta: float) -> float:
    """E(alpha, beta) for linear analyzers at the given angles (degrees
    from horizontal), signs (+,-,-,+) over the four joint ports."""
    rho = s.rho
    result = 0.0
    for sign_a, off_a in ((1, 0.0), (-1, 90.0)):
        pa = linear_projector(alpha + off_a)
        for sign_b, off_b in ((1, 0.0), (-1, 90.0)):
            pb = linear_projector(beta + off_b)
            result += sign_a * sign_b * np.trace(rho @ qmath.tensor(pa, pb)).real
    return float(result)


def chsh(s: TwoQubitState, a: float, a_prime: float, b: float, b_prime: float) -> float:
    """CHSH combination E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    return (correlator(s, a, b) - correlator(s, a, b_prime)
            + correlator(s, a_prime, b) + correlator(s, a_prime, b_prime))


CHSH_CANONICAL_ANGLES = (0.0, 45.0, 22.5, 67.5)
