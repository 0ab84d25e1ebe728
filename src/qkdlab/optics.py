"""Polarization states, wave-plate Jones operators and analyzer chains.

Conventions used throughout the package:

* Jones vectors live in the (H, V) frame: ``|H> = (1, 0)``, ``|V> = (0, 1)``.
* Wave-plate fast-axis angles are measured from the *vertical*, positive
  counter-clockwise looking into the beam.  Linear polarization *directions*
  (e.g. for the CHSH analyzers) are quoted from the horizontal.
* Circular handedness: ``|R> = (|H> - i|V>)/sqrt(2)`` and the quarter-wave
  plate retards its slow axis by +90 deg.  This is the unique pairing under
  which the analyzer table's R and L rows transmit R and L.
* Global phases are never meaningful; state equality means
  ``|<a|b>|^2 == 1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

_SQRT2 = np.sqrt(2.0)

_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "A": np.array([1.0, -1.0], dtype=complex) / _SQRT2,
    "R": np.array([1.0, -1.0j], dtype=complex) / _SQRT2,
    "L": np.array([1.0, 1.0j], dtype=complex) / _SQRT2,
}


class PolState(enum.Enum):
    """The six polarization states of the three mutually unbiased bases."""

    H = "H"
    V = "V"
    D = "D"
    A = "A"
    R = "R"
    L = "L"

    @property
    def ket(self) -> np.ndarray:
        return _KETS[self.value].copy()


class MeasBasis(enum.Enum):
    """Measurement basis with the bit convention plus -> 1, minus -> 0."""

    HV = "HV"
    DA = "DA"
    RL = "RL"

    @property
    def plus(self) -> PolState:
        return PolState(self.value[0])

    @property
    def minus(self) -> PolState:
        return PolState(self.value[1])

    @property
    def states(self) -> tuple[PolState, PolState]:
        return self.plus, self.minus

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(plus, minus) rank-1 projectors."""
        return projector(self.plus), projector(self.minus)


@dataclass(frozen=True)
class AnalyzerSetting:
    """Quarter- and half-wave plate fast-axis angles, degrees from vertical."""

    qwp_angle: float
    hwp_angle: float


def _rotation(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _waveplate(theta_deg: float, retardance: float) -> np.ndarray:
    # Fast axis theta_deg from vertical = theta_deg + 90 from horizontal;
    # the slow axis picks up exp(i * retardance).
    phi = np.deg2rad(theta_deg + 90.0)
    r = _rotation(phi)
    return r @ np.diag([1.0, np.exp(1j * retardance)]) @ r.conj().T


def hwp(theta: float) -> np.ndarray:
    """Half-wave plate, fast axis ``theta`` degrees from vertical.

    Maps a linear polarization at angle phi to one at 2*theta - phi
    (angles in the same from-vertical convention), up to a global phase.
    """
    return _waveplate(theta, np.pi)


def qwp(theta: float) -> np.ndarray:
    """Quarter-wave plate, fast axis ``theta`` degrees from vertical."""
    return _waveplate(theta, np.pi / 2.0)


def hwp_angle_from_horizontal(angle_deg: float) -> float:
    """Translate a from-horizontal fast-axis angle into this module's
    from-vertical convention (the protocol quotes its 0/22.5 deg knobs from
    the horizontal)."""
    return angle_deg - 90.0


def linear_ket(angle_from_h_deg: float) -> np.ndarray:
    """Linear polarization state at the given angle from horizontal."""
    a = np.deg2rad(angle_from_h_deg)
    return np.array([np.cos(a), np.sin(a)], dtype=complex)


def linear_projector(angle_from_h_deg: float) -> np.ndarray:
    """Projector onto linear polarization at the given angle from horizontal."""
    k = linear_ket(angle_from_h_deg)
    return np.outer(k, k.conj())


def projector(s: PolState) -> np.ndarray:
    """Rank-1 projector |s><s|."""
    k = s.ket
    return np.outer(k, k.conj())


_P_VERTICAL = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

# Wave-plate settings that make the chain QWP -> HWP -> vertical polarizer
# transmit each named state and block its orthogonal partner.  For the
# circular rows the half-wave plate sits at +-22.5 deg so that the effective
# polarizer lands 45 deg from the quarter-wave fast axis (the half-wave
# angle is half the effective polarizer rotation).
ANALYZER_SETTINGS: dict[PolState, AnalyzerSetting] = {
    PolState.H: AnalyzerSetting(90.0, 45.0),
    PolState.V: AnalyzerSetting(0.0, 0.0),
    PolState.D: AnalyzerSetting(-45.0, -22.5),
    PolState.A: AnalyzerSetting(45.0, 22.5),
    PolState.R: AnalyzerSetting(0.0, 22.5),
    PolState.L: AnalyzerSetting(0.0, -22.5),
}


def analyzer_chain(setting: AnalyzerSetting) -> np.ndarray:
    """Effective operator of the transmitted analyzer port.

    The photon traverses the quarter-wave plate, then the half-wave plate,
    then a vertical polarizer; the transmission probability for an input
    ket is ``norm(chain @ ket)**2``.  Only the transmitted port is modeled;
    the deflected port is the orthogonal projector.
    """
    return _P_VERTICAL @ hwp(setting.hwp_angle) @ qwp(setting.qwp_angle)
