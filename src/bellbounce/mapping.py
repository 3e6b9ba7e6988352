"""Linear map between inequality coefficients and Bell-operator coefficients.

For measurement settings theta the transfer matrix T(theta) satisfies
T . alpha = h, where alpha are the correlator coefficients of the inequality
and h the Pauli coefficients of the Bell operator built from the same
settings. Rows follow the fixed Pauli-pair order of :mod:`bellbounce.pauli`;
columns are lexicographic in the setting pair (x1, x2).

T = NA^T (x) NB^T, so T . alpha = h is NA^T alpha NB = H (H = h as 3x3), solved
on the 3-column factors (pinv(A (x) B) = pinv(A) (x) pinv(B), Van Loan 2000) by
batch kernels shared with the optimizer. T's singular values are the products of
the factors', so the rank cutoff applies to those products. The kernels also
return the factors' pseudo-inverses, which the optimizer's bound gradient reuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import BellCoeffs, Scenario
from .pauli import _bloch_batch, observable_from_bloch

__all__ = [
    "MeasurementSettings",
    "TransferMatrix",
    "LinearSolveError",
    "build_transfer_matrix",
    "bell_operator",
    "solve_alpha",
    "quantum_value_from_data",
    "RESIDUAL_RTOL",
    "RANK_RCOND",
]

# Consistency gate for solved systems: ||T a - h|| <= RESIDUAL_RTOL * max(1, ||h||).
RESIDUAL_RTOL = 1e-8
# Relative singular-value cutoff for rank decisions and pseudo-inversion.
RANK_RCOND = 1e-10


class LinearSolveError(RuntimeError):
    """T . alpha = h could not be solved to tolerance (rank or residual)."""


@dataclass(frozen=True)
class MeasurementSettings:
    """Bloch angles of each party's observables.

    party_a: array (m1, 2) of (theta, phi) rows.
    party_b: array (m2, 2) of (gamma, phi_prime) rows.
    """

    party_a: np.ndarray
    party_b: np.ndarray

    def __post_init__(self):
        for name in ("party_a", "party_b"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 1:
                raise ValueError(f"{name} must be an (m, 2) angle array, got {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} angles must be finite")
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def m1(self) -> int:
        return self.party_a.shape[0]

    @property
    def m2(self) -> int:
        return self.party_b.shape[0]

    def scenario(self) -> Scenario:
        return Scenario(self.m1, self.m2)

    def bloch_a(self) -> np.ndarray:
        return _bloch_batch(self.party_a)

    def bloch_b(self) -> np.ndarray:
        return _bloch_batch(self.party_b)

    def to_vector(self) -> np.ndarray:
        """Flatten to (theta_A0, phi_A0, ..., gamma_B0, phi'_B0, ...)."""
        return np.concatenate([self.party_a.ravel(), self.party_b.ravel()])

    @classmethod
    def from_vector(cls, m1: int, m2: int, vec) -> "MeasurementSettings":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (2 * (m1 + m2),):
            raise ValueError(
                f"expected {2 * (m1 + m2)} angles for ({m1}, {m2}), got {vec.shape}"
            )
        return cls(vec[: 2 * m1].reshape(m1, 2), vec[2 * m1 :].reshape(m2, 2))


@dataclass(frozen=True)
class TransferMatrix:
    """T = NA^T (x) NB^T, the 9 x (m1*m2) matrix linking alpha to Pauli coefficients,
    held as its factors: the parties' Bloch vectors na (m1, 3) and nb (m2, 3)."""

    na: np.ndarray
    nb: np.ndarray

    def __post_init__(self):
        for name in ("na", "nb"):
            v = np.array(getattr(self, name), dtype=float)
            if v.ndim != 2 or v.shape[1] != 3:
                raise ValueError(f"{name} must be an (m, 3) Bloch-vector array, got {v.shape}")
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def matrix(self) -> np.ndarray:
        return np.einsum("ai,bj->ijab", self.na, self.nb).reshape(9, self.m1 * self.m2)

    @property
    def m1(self) -> int:
        return self.na.shape[0]

    @property
    def m2(self) -> int:
        return self.nb.shape[0]


def build_transfer_matrix(ms: MeasurementSettings) -> TransferMatrix:
    """T[3i+j, x1*m2+x2] = nA[x1, i] * nB[x2, j] for the settings' Bloch vectors."""
    return TransferMatrix(ms.bloch_a(), ms.bloch_b())


def bell_operator(ms: MeasurementSettings, bc: BellCoeffs) -> np.ndarray:
    """Sum alpha[x1,x2] A_x1 (x) B_x2 as an explicit 4x4 Hermitian matrix.

    Built directly from the observables, independently of the transfer
    matrix, so the two construction paths can be cross-checked.
    """
    if (ms.m1, ms.m2) != bc.alpha.shape:
        raise ValueError(
            f"settings ({ms.m1}, {ms.m2}) do not match alpha {bc.alpha.shape}"
        )
    ops_a = [observable_from_bloch(n) for n in ms.bloch_a()]
    ops_b = [observable_from_bloch(n) for n in ms.bloch_b()]
    out = np.zeros((4, 4), dtype=complex)
    for x1 in range(ms.m1):
        for x2 in range(ms.m2):
            out += bc.alpha[x1, x2] * np.kron(ops_a[x1], ops_b[x2])
    return out


def _residual_batch(na, nb, alpha, hmat) -> np.ndarray:
    # ||NA^T alpha NB - H||_F, the same number as ||T vec(alpha) - h||.
    return np.linalg.norm(na.swapaxes(-1, -2) @ alpha @ nb - hmat, axis=(-2, -1))


def _residual_gate(h) -> float:
    # Largest residual a solved system may leave: RESIDUAL_RTOL * max(1, ||h||).
    return RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(h)))


def _quantum_values(na, nb, cmat, alpha) -> np.ndarray:
    # c . T . alpha = sum_ab alpha_ab nA_a^T C nB_b for batches na (n, m1, 3),
    # nb (n, m2, 3). The contraction order is fixed, so a row's value does not
    # depend on the batch size; the bounce loop's half-step contracts rely on it.
    return np.einsum("nai,ij,nbj,ab->n", na, cmat, nb, alpha)


def _rank_deficient(na, nb) -> np.ndarray:
    # cond(T) = cond(NA) cond(NB), since T's singular values are the products;
    # a product that overflows to inf is deficient.
    with np.errstate(over="ignore"):
        return np.linalg.cond(na) * np.linalg.cond(nb) >= 1.0 / RANK_RCOND


def _solve_min_norm_batch(na: np.ndarray, nb: np.ndarray, hmat: np.ndarray):
    """Minimum-norm alpha of NA^T alpha NB = H for batches na (n, m1, 3), nb (n, m2, 3).

    With NA^T = Ua Sa Va^T and NB^T = Ub Sb Vb^T, alpha = Va (W o Ua^T H Ub) Vb^T,
    where W inverts the products Sa_i Sb_j above the cutoff and zeroes the rest.
    Returns (alpha, pa, pbt) with pa = pinv(NA^T) = Va Sa^-1 Ua^T and
    pbt = pinv(NB^T)^T = Ub Sb^-1 Vb^T, so alpha = pa H pbt when nothing is cut.
    """
    ua, sa, vta = np.linalg.svd(na.swapaxes(-1, -2), full_matrices=False)
    ub, sb, vtb = np.linalg.svd(nb.swapaxes(-1, -2), full_matrices=False)
    s = sa[:, :, None] * sb[:, None, :]
    w = np.divide(1.0, s, out=np.zeros_like(s), where=s > RANK_RCOND * s[:, :1, :1])
    alpha = vta.swapaxes(-1, -2) @ (w * (ua.swapaxes(-1, -2) @ hmat @ ub)) @ vtb
    # a zero or subnormal singular value gives inf/nan
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pa = vta.swapaxes(-1, -2) @ (ua.swapaxes(-1, -2) / sa[:, :, None])
        pbt = (ub / sb[:, None, :]) @ vtb
    return alpha, pa, pbt


def _solve_unique_batch(na: np.ndarray, nb: np.ndarray, hmat: np.ndarray):
    """alpha = NA^-T H NB^-1 plus one refinement step, for batches of 3x3 factors.

    Returns (alpha, NA^-T, NB^-1), the same triple as _solve_min_norm_batch.
    """
    try:
        ia = np.linalg.inv(na).swapaxes(-1, -2)
        ib = np.linalg.inv(nb)
    except np.linalg.LinAlgError:
        # an exactly singular factor: minimum-norm rows, nan where T is rank-deficient
        alpha, pa, pbt = _solve_min_norm_batch(na, nb, hmat)
        alpha[_rank_deficient(na, nb)] = np.nan
        return alpha, pa, pbt
    alpha = ia @ hmat @ ib
    return alpha + ia @ (hmat - na.swapaxes(-1, -2) @ alpha @ nb) @ ib, ia, ib


def residual_norm(t: TransferMatrix, alpha_flat: np.ndarray, h: np.ndarray) -> float:
    alpha = np.asarray(alpha_flat, dtype=float).reshape(t.m1, t.m2)
    return float(_residual_batch(t.na, t.nb, alpha, np.asarray(h, dtype=float).reshape(3, 3)))


def _inverts_factors(m1: int, m2: int) -> bool:
    # The one solve-kernel choice, by shape: at 3x3 both factors are square and
    # _solve_unique_batch inverts them; otherwise _solve_min_norm_batch.
    return m1 == m2 == 3


def solve_alpha(t: TransferMatrix, h) -> BellCoeffs:
    """Solve T . alpha = h for the inequality coefficients.

    The kernel follows the shape, as in the optimizer: at 3x3 the factors are
    inverted (exact solve plus one iterative-refinement step); otherwise
    alpha is the least-squares solution of minimal Euclidean norm (cutoff
    1e-10 relative on the singular values of T).

    Args:
        t: transfer matrix of the settings.
        h: 9-component Pauli coefficient vector.

    Returns:
        BellCoeffs over the transfer matrix's scenario.

    Raises:
        ValueError: if h does not have shape (9,).
        LinearSolveError: if a 3x3 T is numerically rank-deficient, or the
            residual exceeds 1e-8 * max(1, ||h||) (h not representable).
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (9,):
        raise ValueError(f"h must have shape (9,), got {h.shape}")
    na, nb, hmat = t.na[None], t.nb[None], h.reshape(3, 3)
    if _inverts_factors(t.m1, t.m2):
        if _rank_deficient(na, nb)[0]:
            raise LinearSolveError("transfer matrix is numerically rank-deficient")
        alpha = _solve_unique_batch(na, nb, hmat)[0][0]
    else:
        alpha = _solve_min_norm_batch(na, nb, hmat)[0][0]
    res = residual_norm(t, alpha, h)
    if not np.isfinite(res) or res > _residual_gate(h):
        raise LinearSolveError(
            f"inconsistent system: residual {res!r} for these settings"
        )
    return BellCoeffs(Scenario(t.m1, t.m2), alpha)


def quantum_value_from_data(c, t: TransferMatrix, bc: BellCoeffs) -> float:
    """Evaluate c . T . alpha for measured Pauli correlators c."""
    c = np.asarray(c, dtype=float)
    if c.shape != (9,):
        raise ValueError(f"correlator vector must have shape (9,), got {c.shape}")
    if np.max(np.abs(c)) > 1.0 + 1e-9:
        raise ValueError("correlator entries must lie in [-1, 1]")
    if (t.m1, t.m2) != bc.alpha.shape:
        raise ValueError(
            f"transfer matrix ({t.m1}, {t.m2}) does not match alpha {bc.alpha.shape}"
        )
    return float(_quantum_values(t.na[None], t.nb[None], c.reshape(3, 3), bc.alpha)[0])
