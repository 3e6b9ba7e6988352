"""Two-qubit Pauli algebra.

Bloch-vector observables, density-matrix sanity checks, two-body Pauli
correlators of a state, and the smallest eigenvalue of a 4x4 Hermitian
operator. The checks, the correlators and the eigenvalue also take a
(..., 4, 4) stack and treat each matrix in it as one input.

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


def _bloch_batch(angles: np.ndarray, trig: bool = False):
    """Bloch vectors n = (cos t, sin t cos p, sin t sin p) of (..., 2) angle rows (t, p).

    With trig, also returns (cos t, cos p, sin t, sin p), four flat arrays with
    one entry per row, which _bloch_chain takes to chain a gradient to the angles.
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
    n = n.reshape(shape + (3,))
    return (n, (ct, cp, st, sp)) if trig else n


def _bloch_chain(trig, g: np.ndarray) -> np.ndarray:
    """Chain a gradient g (..., 3) in the Bloch vectors to their angles, one
    (d/dt, d/dp) row per vector: (rows, 2), rows = g.size // 3.

    trig is the (cos t, cos p, sin t, sin p) of _bloch_batch(angles, trig=True),
    with g laid out like its vectors. In closed form, per vector:
      dn/dt . g = cos t (cos p g_y + sin p g_z) - sin t g_x
      dn/dp . g = sin t (cos p g_z - sin p g_y)
    """
    ct, cp, st, sp = trig
    flat = g.reshape(-1, 3)
    gx, gy, gz = flat[:, 0], flat[:, 1], flat[:, 2]
    out = np.empty((len(flat), 2))
    dt, dp = out[:, 0], out[:, 1]
    np.multiply(cp, gy, out=dt)
    dt += sp * gz
    dt *= ct
    dt -= st * gx
    np.multiply(cp, gz, out=dp)
    dp -= sp * gy
    dp *= st
    return out


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
    # one dim x dim matrix or a (..., dim, dim) stack of them
    h = np.asarray(h, dtype=complex)
    if h.shape[-2:] != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got shape {h.shape}")
    # every comparison with nan is False, so a nan entry would pass the checks below
    if not np.isfinite(h).all():
        raise ValueError(f"{what} has a non-finite entry")
    if np.max(np.abs(h - h.conj().swapaxes(-1, -2))) > HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian within {HERMITICITY_TOL}")
    return h


def min_eigenvalue(h_op) -> float | np.ndarray:
    """Smallest eigenvalue of a 4x4 Hermitian operator (LAPACK eigvalsh).

    A (..., 4, 4) stack gives an array (...) of each operator's smallest
    eigenvalue; one operator gives a float.

    Raises:
        ValueError: if an entry is not finite, or an operator is not Hermitian
            within 1e-12.
    """
    h_op = _check_hermitian(h_op, 4, "operator")
    lam = np.linalg.eigvalsh(h_op)[..., 0]
    return float(lam) if lam.ndim == 0 else lam


def check_state(rho) -> np.ndarray:
    """Validate a two-qubit density matrix, or each of a (..., 4, 4) stack, and
    return it as a complex array.

    Accepts finite Hermitian (1e-12), unit-trace (1e-12) matrices whose smallest
    eigenvalue is >= -1e-10 (floating-point slack for CPTP evolution).

    Raises:
        ValueError: describing the first failed check, with a failing state's value.
    """
    rho = _check_hermitian(rho, 4, "state")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > TRACE_TOL
    if bad.any():
        raise ValueError(f"state trace is {float(tr[bad][0])!r}, expected 1")
    # min_eigenvalue would check rho a second time
    lam = np.min(np.linalg.eigvalsh(rho)[..., 0])
    if lam < -POSITIVITY_TOL:
        raise ValueError(f"state has negative eigenvalue {float(lam)!r}")
    return rho


def correlator_vector(rho) -> np.ndarray:
    """Two-body Pauli correlators c_ij = Tr(rho sigma_i x sigma_j).

    Args:
        rho: valid two-qubit density matrix, or a (..., 4, 4) stack of them.

    Returns:
        Array of shape (9,), or (..., 9) for a stack, in the fixed row order;
        entries lie in [-1, 1] up to floating-point slack.
    """
    rho = check_state(rho)
    return np.einsum("kab,...ba->...k", _PAULI_PAIRS, rho).real
