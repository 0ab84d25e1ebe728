"""Two-photon state tomography, state metrics and the CHSH correlator.

Reconstruction is linear inversion against the fixed 16-setting projective
schedule, followed by the Smolin-Gambetta-Smith projection onto the nearest
physical state; it is exact on noise-free expected counts.  Metric
uncertainties come from a Poisson parametric bootstrap that draws and
reconstructs its replicas in stacks through the same path as a single counts
vector.
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


def _physical_states(counts: np.ndarray) -> np.ndarray:
    """Counts of shape (..., 16) -> physical density matrices (..., 4, 4)."""
    flux = counts[..., _FLUX].sum(axis=-1, keepdims=True)
    if np.any(flux <= 0):
        raise ReconstructionError("zero flux estimate: the HH/HV/VV/VH counts are empty")
    # einsum rounds a row the same alone or in a stack; BLAS need not, and the
    # square roots in the tangle turn a last-bit difference into ~1e-8.
    rho_lin = np.einsum("...k,kij->...ij", counts / flux, _INVERSION)
    try:
        return qmath.nearest_physical(rho_lin)
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
    return TwoQubitState(_physical_states(_checked_counts(counts)))


_SIGMA_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real
# The metrics below take one density matrix or a stack (..., 4, 4).  For two
# qubits (tangle, von Neumann entropy in bits, linear entropy, fidelity) lie
# in [0, _METRIC_MAX]; bootstrap values are clamped to that range.
_METRIC_MAX = np.array([1.0, 2.0, 1.0, 1.0])


def _tangle(rho: np.ndarray) -> np.ndarray:
    m = rho @ _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    lams = np.sort(np.sqrt(np.clip(np.linalg.eigvals(m).real, 0.0, None)), axis=-1)
    c = np.maximum(0.0, lams[..., 3] - lams[..., 2] - lams[..., 1] - lams[..., 0])
    return c * c


def _von_neumann(rho: np.ndarray) -> np.ndarray:
    w = np.clip(qmath.herm_eig(rho)[0], 0.0, None)
    return -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=-1)


def _linear_entropy(rho: np.ndarray) -> np.ndarray:
    purity = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    return 4.0 / 3.0 * (1.0 - purity)


def _fidelity(rho: np.ndarray, target_ket: np.ndarray) -> np.ndarray:
    return (target_ket.conj() @ rho @ target_ket).real


def tangle(s: TwoQubitState) -> float:
    """Squared Wootters concurrence: 0 separable, 1 maximally entangled."""
    return float(_tangle(s.rho))


def von_neumann(s: TwoQubitState) -> float:
    """-Tr(rho log2 rho), with 0 log 0 = 0."""
    return float(_von_neumann(s.rho))


def linear_entropy(s: TwoQubitState) -> float:
    """(4/3)(1 - Tr rho^2): 0 pure, 2/3 two-state mixture, 1 maximally mixed."""
    return float(_linear_entropy(s.rho))


def fidelity(s: TwoQubitState, target_ket: np.ndarray | None = None) -> float:
    """<t|rho|t> against a pure target (default: the entangled source state)."""
    t = bell_phi_plus_ket() if target_ket is None else np.asarray(target_ket, dtype=complex)
    return float(_fidelity(s.rho, t))


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

    def as_dict(self) -> dict:
        return {
            "tangle": self.tangle, "tangle_sigma": self.tangle_sigma,
            "von_neumann": self.von_neumann, "von_neumann_sigma": self.von_neumann_sigma,
            "linear_entropy": self.linear_entropy,
            "linear_entropy_sigma": self.linear_entropy_sigma,
            "fidelity": self.fidelity, "fidelity_sigma": self.fidelity_sigma,
            "clamp_events": self.clamp_events,
        }


def state_metrics(s: TwoQubitState, target_ket: np.ndarray | None = None) -> StateMetrics:
    """Raw (unclamped) metrics of a single state."""
    return StateMetrics(tangle(s), von_neumann(s), linear_entropy(s),
                        fidelity(s, target_ket))


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
        rho = _physical_states(rng.poisson(counts, size=(hi - lo, counts.size)).astype(float))
        rows[lo:hi] = np.stack(
            [_tangle(rho), _von_neumann(rho), _linear_entropy(rho), _fidelity(rho, target)], -1)
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
    point = state_metrics(rho_hat)
    boot = bootstrap_metrics(counts, replicas=replicas, seed=seed)
    metrics = replace(boot, tangle=point.tangle, von_neumann=point.von_neumann,
                      linear_entropy=point.linear_entropy, fidelity=point.fidelity)
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
