"""Entangled-pair source, imperfection model and the eavesdropper channel.

The source is axiomatically the polarization-entangled pair
``(|HH> + |VV>)/sqrt(2)`` plus optional white noise; Eve acts only on the
second photon (the one heading to the receiver), through one channel,
:func:`dephase_bob`: a birefringent plate that destroys a fraction of the
coherence between the two components along its axes.  Intercept-resend, a
projective measurement of photon 2 whose result is not kept, averages to
full dephasing along Eve's basis, so it enters the model as that channel
at strength 1.  :func:`eve_scenarios` turns an :class:`EveConfig` into her
scenarios, the weighted states that sessions sample from and the basis Eve
records in each, and :func:`after_eve` is their :func:`mixture`: the state
that ``tomo`` and ``bell`` measure and that a session's QBER reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .optics import MeasBasis, linear_projectors

SPEED_OF_LIGHT_MM_PER_FS = 2.99792458e-4  # 299792458 m/s expressed in mm/fs

EVE_MODES = ("absent", "intercept_resend", "dephasing")
BASIS_POLICIES = ("fixed", "random_per_trial")

_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A two-photon polarization state as a 4x4 density matrix.

    The matrix is validated on construction (Hermitian, unit trace, PSD)
    and stored read-only; basis order is HH, HV, VH, VV.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("TwoQubitState needs a 4x4 matrix")
        if not qmath.is_density(rho):
            raise ValueError("TwoQubitState: matrix violates density invariants")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class QuartzPlate:
    """Birefringent plate standing in for the eavesdropper.

    ``axis_angle_deg`` orients the fast axis: 0 decoheres the H/V
    components, 45 the D/A components.  The default birefringence is
    back-solved so that an 8 mm plate delays the components by ~207 fs.
    """

    thickness_mm: float
    birefringence: float = 0.00776
    coherence_time_fs: float = 54.0
    axis_angle_deg: float = 0.0

    def __post_init__(self):
        if not self.thickness_mm >= 0:
            raise ValueError("plate thickness must be nonnegative")
        if not self.coherence_time_fs > 0:
            raise ValueError("coherence time must be positive")


@dataclass(frozen=True)
class EveConfig:
    """Eavesdropper configuration for a protocol session.

    ``basis_angle`` is the polarization angle of Eve's basis in degrees
    (0 = HV, 45 = DA); ``strength`` is the dephasing fraction gamma;
    ``intercept_fraction`` Bernoulli-gates whether Eve touches a given
    trial at all.
    """

    mode: str = "absent"
    basis_angle: float = 0.0
    strength: float = 1.0
    intercept_fraction: float = 1.0
    basis_policy: str = "fixed"

    def __post_init__(self):
        if self.mode not in EVE_MODES:
            raise ValueError(f"eve mode must be one of {EVE_MODES}")
        if self.basis_policy not in BASIS_POLICIES:
            raise ValueError(f"basis policy must be one of {BASIS_POLICIES}")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError("strength must be in [0, 1]")
        if not 0.0 <= self.intercept_fraction <= 1.0:
            raise ValueError("intercept_fraction must be in [0, 1]")
        if (self.mode == "intercept_resend" and self.basis_policy == "fixed"
                and basis_from_angle(self.basis_angle) is None):
            raise ValueError("intercept-resend needs basis_angle 0 (HV) or 45 (DA)")


def basis_from_angle(angle_deg: float) -> MeasBasis | None:
    """Map a basis angle to the named measurement basis, if it has a name."""
    a = angle_deg % 90.0
    if np.isclose(a, 0.0) or np.isclose(a, 90.0):
        return MeasBasis.HV
    if np.isclose(a, 45.0):
        return MeasBasis.DA
    return None


def bell_phi_plus() -> TwoQubitState:
    """The source state ``(|HH> + |VV>)/sqrt(2)`` as a density matrix."""
    rho = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            rho[i, j] = 0.5
    return TwoQubitState(rho)


def bell_phi_plus_ket() -> np.ndarray:
    k = np.zeros(4, dtype=complex)
    k[0] = k[3] = 1.0 / np.sqrt(2.0)
    return k


def add_white_noise(s: TwoQubitState, p: float) -> TwoQubitState:
    """Mix in the maximally mixed state: rho' = (1-p) rho + p I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("noise fraction must be in [0, 1]")
    rho = (1.0 - p) * s.rho + p * np.eye(4, dtype=complex) / 4.0
    return TwoQubitState(rho)


def dephase_bob(s: TwoQubitState, basis_angle: float, gamma: float) -> TwoQubitState:
    """Partially decohere photon 2 along the basis at ``basis_angle``.

    rho' = (1-gamma) rho + gamma (P+ rho P+ + P- rho P-), with (P+, P-) the
    ``linear_projectors(basis_angle)`` pair acting on the second photon
    only.  gamma = 0 is the identity channel, gamma = 1 kills the coherence
    between the two basis branches entirely.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    p_plus, p_minus = qmath.tensor(_I2, linear_projectors(basis_angle))
    rho = s.rho
    pinched = p_plus @ rho @ p_plus + p_minus @ rho @ p_minus
    return TwoQubitState((1.0 - gamma) * rho + gamma * pinched)


def eve_scenarios(s: TwoQubitState, eve: EveConfig) -> tuple[np.ndarray, list, list]:
    """The weight, pair's state and Eve's recorded basis of each of her scenarios.

    Scenario 0 is Eve idle: ``s`` at weight ``1 - intercept_fraction``,
    recording None.  Scenario ``1 + k`` is Eve acting in her k-th basis (HV
    then DA under ``random_per_trial``, else ``basis_angle``), recording its
    :func:`basis_from_angle`; these share the intercepted fraction equally.
    Eve acting is :func:`dephase_bob` along her basis, at ``strength`` for
    ``dephasing`` and 1 for ``intercept_resend``.  With Eve absent, ``s`` is
    the one scenario.
    """
    if eve.mode == "absent":
        return np.array([1.0]), [s], [None]
    angles = [0.0, 45.0] if eve.basis_policy == "random_per_trial" else [eve.basis_angle]
    gamma = eve.strength if eve.mode == "dephasing" else 1.0
    f, k = eve.intercept_fraction, len(angles)
    weights = np.array([1.0 - f] + [f / k] * k)
    return (weights, [s] + [dephase_bob(s, angle, gamma) for angle in angles],
            [None] + [basis_from_angle(angle) for angle in angles])


def mixture(weights: np.ndarray, states: list) -> TwoQubitState:
    """The states mixed with the weights, as :func:`eve_scenarios` gives them."""
    return TwoQubitState(sum(w * state.rho for w, state in zip(weights, states)))


def after_eve(s: TwoQubitState, eve: EveConfig) -> TwoQubitState:
    """The pair ``s`` after Eve: the :func:`mixture` of her scenarios, with
    the weights a session samples them by (its model mixes the ones it holds)."""
    weights, states, _ = eve_scenarios(s, eve)
    return mixture(weights, states)


class Beam:
    """The pairs that a run measures, for a config dataclass with the fields
    ``source_noise``, the source's white-noise fraction, and ``eve``."""

    def __post_init__(self):
        if not 0.0 <= self.source_noise <= 1.0:
            raise ValueError("source_noise must be in [0, 1]")

    def measured_state(self) -> TwoQubitState:
        """The state that ``tomo`` and ``bell`` measure: the noisy source after Eve."""
        return after_eve(add_white_noise(bell_phi_plus(), self.source_noise), self.eve)


def plate_delay_fs(plate: QuartzPlate) -> float:
    """Temporal walk-off between the plate's fast and slow components."""
    return plate.birefringence * plate.thickness_mm / SPEED_OF_LIGHT_MM_PER_FS


def plate_gamma(plate: QuartzPlate) -> float:
    """Dephasing strength of a plate: 1 - exp(-(tau/tau_c)^2).

    Gaussian mutual-coherence decay in the delay tau; a delay well past the
    coherence time gives gamma ~ 1 (a full eavesdropper), a thin plate only
    partially decoheres the pair.
    """
    tau = plate_delay_fs(plate)
    try:
        return float(1.0 - np.exp(-((tau / plate.coherence_time_fs) ** 2)))
    except OverflowError:   # a delay whose square overflows is full dephasing
        return 1.0
