"""Two-qubit Pauli algebra.

Bloch-vector observables, density-matrix sanity checks, two-body Pauli
correlators of a state, and the smallest eigenvalue of a 4x4 Hermitian
operator.

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
    "EMBEDDED_PAULIS",
    "observable_from_bloch",
    "min_eigenvalue",
    "check_state",
    "correlator_vector",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

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


def _bloch_batch(angles: np.ndarray, derivatives: bool = False):
    """Bloch vectors n = (cos t, sin t cos p, sin t sin p) of (..., 2) angle rows (t, p).

    With derivatives, also returns dn/d(t, p) with shape (..., 2, 3).
    """
    # on flat (rows, k) buffers, whose columns are 1-d views: numpy's fastest elementwise loops
    shape = angles.shape[:-1]
    a = angles.reshape(-1, 2)
    c, s = np.cos(a), np.sin(a)
    ct, cp, st, sp = c[:, 0], c[:, 1], s[:, 0], s[:, 1]
    n = np.empty((len(a), 3))
    n[:, 0] = ct
    np.multiply(st, cp, out=n[:, 1])
    np.multiply(st, sp, out=n[:, 2])
    if not derivatives:
        return n.reshape(shape + (3,))
    dn = np.empty((len(a), 6))  # the rows of dn/dt, dn/dp
    np.negative(st, out=dn[:, 0])
    np.multiply(ct, cp, out=dn[:, 1])
    np.multiply(ct, sp, out=dn[:, 2])
    dn[:, 3] = 0.0
    np.negative(n[:, 2], out=dn[:, 4])
    dn[:, 5] = n[:, 1]
    return n.reshape(shape + (3,)), dn.reshape(shape + (2, 3))


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
