"""Reference conversions and instances that only tests use: Pauli coefficient vectors
to and from 4x4 operators, and the two-CHSH-games inequality with its settings."""

import numpy as np

from bellbounce.bell import BellCoeffs
from bellbounce.mapping import MeasurementSettings
from bellbounce.pauli import EMBEDDED_PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, _check_hermitian

PAULI_PAIR_LABELS = ("xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz")

_SIGMAS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# sigma_i (x) sigma_j stacked in the row order of PAULI_PAIR_LABELS.
_PAIRS = np.stack([np.kron(si, sj) for si in _SIGMAS for sj in _SIGMAS])

# Residual single-body/identity content above this means the operator is not
# a pure two-body correlator combination.
CORRELATOR_CONTENT_TOL = 1e-10

# Coordinate axes as (theta, phi): x = (0, 0), y = (pi/2, 0), z = (pi/2, pi/2).
_AXES_B = np.array([[0.0, 0.0], [np.pi / 2, 0.0], [np.pi / 2, np.pi / 2]])


def pauli_coeffs_from_operator(h_op) -> np.ndarray:
    """Project a 4x4 Hermitian operator onto the two-body Pauli basis.

    Coefficient convention: h_ij = Tr((sigma_i x sigma_j) H) / 4, so that
    H = sum_ij h_ij sigma_i x sigma_j holds exactly for pure correlator
    operators.

    Args:
        h_op: 4x4 Hermitian matrix with no identity or single-body content.

    Returns:
        Array of shape (9,) in the fixed row order.

    Raises:
        ValueError: if the operator is not Hermitian, or carries identity or
            single-body components above 1e-10.
    """
    h_op = _check_hermitian(h_op, 4, "operator")
    ident = np.trace(h_op).real / 4.0
    if abs(ident) > CORRELATOR_CONTENT_TOL:
        raise ValueError(
            f"not a correlator operator: identity component {ident!r}"
        )
    for k_a, k_b in zip(*EMBEDDED_PAULIS):
        one_a = np.trace(k_a @ h_op).real / 4.0
        one_b = np.trace(k_b @ h_op).real / 4.0
        if abs(one_a) > CORRELATOR_CONTENT_TOL or abs(one_b) > CORRELATOR_CONTENT_TOL:
            raise ValueError(
                "not a correlator operator: single-body component "
                f"({one_a!r}, {one_b!r})"
            )
    return np.einsum("kab,ba->k", _PAIRS, h_op).real / 4.0


def operator_from_pauli_coeffs(h) -> np.ndarray:
    """Assemble sum_ij h_ij sigma_i x sigma_j from a 9-component vector."""
    h = np.asarray(h, dtype=float)
    if h.shape != (9,):
        raise ValueError(f"coefficient vector must have shape (9,), got {h.shape}")
    return np.einsum("k,kab->ab", h, _PAIRS)


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
