"""Polarization states, measurement bases and projectors.

Every analyzer is modelled as the ideal projector it realises; the lab's
wave-plate settings for each state are tabulated in the README.

Conventions used throughout the package:

* Jones vectors live in the (H, V) frame: ``|H> = (1, 0)``, ``|V> = (0, 1)``.
  Linear polarization directions (e.g. for the CHSH analyzers) are quoted
  in degrees from the horizontal.
* Circular handedness is defined by ``|R> = (|H> - i|V>)/sqrt(2)``.
* Global phases are never meaningful; state equality means
  ``|<a|b>|^2 == 1``.
"""

from __future__ import annotations

import enum
import math

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

    def projectors(self) -> np.ndarray:
        """The (plus, minus) rank-1 projectors, stacked: shape (2, 2, 2)."""
        return np.array([projector(self.plus), projector(self.minus)])


def linear_ket(angle_from_h_deg: float) -> np.ndarray:
    """Linear polarization state at the given angle from horizontal."""
    a = np.deg2rad(angle_from_h_deg)
    return np.array([np.cos(a), np.sin(a)], dtype=complex)


def linear_projectors(angle_from_h_deg: float) -> np.ndarray:
    """The stacked (plus, minus) projectors onto linear polarization at the
    given angle from horizontal and at 90 degrees more.  The angle is first
    reduced modulo 360, which is exact and leaves (-360, 360) unchanged: at a
    huge angle, adding 90 would round away the minus state."""
    a = math.fmod(angle_from_h_deg, 360.0)
    k = linear_ket(np.array([a, a + 90.0])).T
    return k[:, :, None] * k[:, None, :].conj()


def projector(s: PolState) -> np.ndarray:
    """Rank-1 projector |s><s|."""
    k = s.ket
    return np.outer(k, k.conj())

