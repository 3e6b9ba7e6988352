"""Two-qubit Pauli algebra.

Bloch-vector observables, Pauli correlator decompositions of 4x4 Hermitian
operators, density-matrix sanity checks, and the smallest eigenvalue of a
4x4 Hermitian operator.

All 9-component coefficient/correlator vectors use the fixed row order
(xx, xy, xz, yx, yy, yz, zx, zy, zz), i.e. index 3*i + j for Pauli pair
(sigma_i, sigma_j).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY_2",
    "PAULI_PAIR_LABELS",
    "EMBEDDED_PAULIS",
    "observable_from_bloch",
    "pauli_coeffs_from_operator",
    "operator_from_pauli_coeffs",
    "min_eigenvalue",
    "check_state",
    "correlator_vector",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

PAULI_PAIR_LABELS = ("xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz")

_SIGMAS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# sigma_i (x) sigma_j stacked in the fixed row order above.
_PAULI_PAIRS = np.stack([np.kron(si, sj) for si in _SIGMAS for sj in _SIGMAS])
# EMBEDDED_PAULIS[q, i] is sigma_i on qubit q and the identity on the other;
# qubit 0 is the first tensor factor.
EMBEDDED_PAULIS = np.stack(
    [[np.kron(s, IDENTITY_2) for s in _SIGMAS], [np.kron(IDENTITY_2, s) for s in _SIGMAS]]
)
EMBEDDED_PAULIS.flags.writeable = False

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
# Residual single-body/identity content above this means the operator is not
# a pure two-body correlator combination.
CORRELATOR_CONTENT_TOL = 1e-10


def _bloch_batch(angles: np.ndarray, derivatives: bool = False):
    """Bloch vectors n = (cos t, sin t cos p, sin t sin p) of (..., 2) angle rows (t, p).

    With derivatives, also returns dn/d(t, p) with shape (..., 2, 3).
    """
    t, p = angles[..., 0], angles[..., 1]
    ct, st, cp, sp = np.cos(t), np.sin(t), np.cos(p), np.sin(p)
    n = np.stack([ct, st * cp, st * sp], axis=-1)
    if not derivatives:
        return n
    dn = np.zeros(n.shape[:-1] + (2, 3))
    dn[..., 0, 0] = -st
    dn[..., 0, 1] = ct * cp
    dn[..., 0, 2] = ct * sp
    dn[..., 1, 1] = -n[..., 2]
    dn[..., 1, 2] = n[..., 1]
    return n, dn


def observable_from_bloch(n) -> np.ndarray:
    """Build the dichotomic observable n . sigma for a unit direction n.

    Args:
        n: length-3 real direction; must have unit norm within 1e-12.

    Returns:
        2x2 complex Hermitian matrix with eigenvalues +1 and -1.

    Raises:
        ValueError: if the direction is not normalized.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {n.shape}")
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"invalid direction: |n| = {norm!r}, expected 1")
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def _check_hermitian(h: np.ndarray, dim: int, what: str) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got shape {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian within {HERMITICITY_TOL}")
    return h


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
    return np.einsum("kab,ba->k", _PAULI_PAIRS, h_op).real / 4.0


def operator_from_pauli_coeffs(h) -> np.ndarray:
    """Assemble sum_ij h_ij sigma_i x sigma_j from a 9-component vector."""
    h = np.asarray(h, dtype=float)
    if h.shape != (9,):
        raise ValueError(f"coefficient vector must have shape (9,), got {h.shape}")
    return np.einsum("k,kab->ab", h, _PAULI_PAIRS)


def min_eigenvalue(h_op) -> float:
    """Smallest eigenvalue of a 4x4 Hermitian operator (LAPACK eigvalsh).

    Raises:
        ValueError: if the input is not Hermitian within 1e-12.
    """
    h_op = _check_hermitian(h_op, 4, "operator")
    return float(np.linalg.eigvalsh(h_op)[0])


def check_state(rho) -> np.ndarray:
    """Validate a two-qubit density matrix and return it as a complex array.

    Accepts Hermitian (1e-12), unit-trace (1e-12) matrices whose smallest
    eigenvalue is >= -1e-10 (floating-point slack for CPTP evolution).

    Raises:
        ValueError: describing the first failed check.
    """
    rho = _check_hermitian(rho, 4, "state")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace is {tr!r}, expected 1")
    lam = min_eigenvalue(rho)
    if lam < -POSITIVITY_TOL:
        raise ValueError(f"state has negative eigenvalue {lam!r}")
    return rho


def correlator_vector(rho) -> np.ndarray:
    """Two-body Pauli correlators c_ij = Tr(rho sigma_i x sigma_j).

    Args:
        rho: valid two-qubit density matrix.

    Returns:
        Array of shape (9,) in the fixed row order; entries lie in [-1, 1]
        up to floating-point slack.
    """
    rho = check_state(rho)
    return np.einsum("kab,ba->k", _PAULI_PAIRS, rho).real
