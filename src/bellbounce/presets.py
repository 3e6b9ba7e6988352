"""Reference operators, measurement settings, and coefficient families.

These encode the concrete instances the package reproduces end to end: the
Gisin-variant Hamiltonian H_G with its tetrahedron/axes settings, the
two-CHSH-games inequality with its own settings, and the elegant-inequality
operator used for the extended bound searches.
"""

from __future__ import annotations

import numpy as np

from .bell import BellCoeffs
from .mapping import MeasurementSettings

__all__ = [
    "H_G_COEFFS",
    "ELEGANT_COEFFS",
    "tetrahedron_axes_settings",
    "two_chsh_settings",
    "two_chsh_coeffs",
    "operator_preset",
    "OPERATOR_PRESETS",
]

_SQRT3 = np.sqrt(3.0)

# Pauli coefficients (row order xx..zz) of H_G = (4/sqrt3)(XX + YY + 2 ZZ).
H_G_COEFFS = (4.0 / _SQRT3) * np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0, 2.0])
H_G_COEFFS.flags.writeable = False

# The elegant-inequality operator (4/sqrt3)(XX + YY + ZZ).
ELEGANT_COEFFS = (4.0 / _SQRT3) * np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0])
ELEGANT_COEFFS.flags.writeable = False

OPERATOR_PRESETS = ("H_G", "gisin_elegant")


def operator_preset(name: str) -> np.ndarray:
    """Pauli coefficient vector of a named operator preset."""
    if name == "H_G":
        return H_G_COEFFS.copy()
    if name == "gisin_elegant":
        return ELEGANT_COEFFS.copy()
    raise ValueError(f"unknown operator preset {name!r}; choose from {OPERATOR_PRESETS}")


# Coordinate axes as (theta, phi): x = (0, 0), y = (pi/2, 0), z = (pi/2, pi/2).
_AXES_B = np.array([[0.0, 0.0], [np.pi / 2, 0.0], [np.pi / 2, np.pi / 2]])


def tetrahedron_axes_settings() -> MeasurementSettings:
    """Four tetrahedral A directions (+-1,+-1,+-1)/sqrt3 with axis B settings.

    Together with the Delta=2 coefficient family these settings compose to
    the Hamiltonian H_G.
    """
    t = np.arccos(1.0 / _SQRT3)
    party_a = np.array(
        [
            [t, np.pi / 4],               # (1, 1, 1)/sqrt3
            [t, 5 * np.pi / 4],           # (1, -1, -1)/sqrt3
            [np.pi - t, 7 * np.pi / 4],   # (-1, 1, -1)/sqrt3
            [np.pi - t, 3 * np.pi / 4],   # (-1, -1, 1)/sqrt3
        ]
    )
    return MeasurementSettings(party_a, _AXES_B)


def two_chsh_settings() -> MeasurementSettings:
    """A settings of the two-CHSH-games inequality, with axis B settings.

    A0 = (Y+Z)/sqrt2, A1 = (-X-Z)/sqrt2, A2 = (X-Z)/sqrt2, A3 = (-Y+Z)/sqrt2.
    """
    party_a = np.array(
        [
            [np.pi / 2, np.pi / 4],
            [3 * np.pi / 4, 3 * np.pi / 2],
            [np.pi / 4, 3 * np.pi / 2],
            [np.pi / 2, 3 * np.pi / 4],
        ]
    )
    return MeasurementSettings(party_a, _AXES_B)


def two_chsh_coeffs() -> BellCoeffs:
    """Coefficients of the inequality that plays two CHSH games at once."""
    alpha = np.array(
        [
            [0.0, 1.0, -1.0],
            [-1.0, 0.0, 1.0],
            [1.0, 0.0, 1.0],
            [0.0, -1.0, -1.0],
        ]
    )
    return BellCoeffs(alpha)
