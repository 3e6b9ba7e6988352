"""Linear map between inequality coefficients and Bell-operator coefficients.

For measurement settings theta the transfer matrix T(theta) satisfies
T . alpha = h, where alpha are the correlator coefficients of the inequality
and h the Pauli coefficients of the Bell operator built from the same
settings. Rows follow the fixed Pauli-pair order of :mod:`bellbounce.pauli`;
columns are lexicographic in the setting pair (x1, x2). T is fixed by the
settings, so solve_alpha, residual_norm and quantum_value_from_data take the
MeasurementSettings and read their Bloch vectors; build_transfer_matrix forms
the explicit 9 x (m1*m2) array when one is wanted.

T = NA^T (x) NB^T, so T . alpha = h is NA^T alpha NB = H (H = h as 3x3), solved
on the 3-column factors (pinv(A (x) B) = pinv(A) (x) pinv(B), Van Loan 2000) by
one batch kernel shared with the optimizer. It inverts only 3x3 matrices, in
one call: a factor of 3 settings itself, any other its Gram matrix. A singular
or badly conditioned row takes an SVD solve; a party with fewer than 3
settings has a singular Gram matrix, so its rows reach the SVD through that
fallback. T's singular values are the products of the factors', so that
solve's rank cutoff applies to those products. The kernel also returns the
factors' pseudo-inverses, which the optimizer's bound gradient reuses.

The quantum value c . T . alpha is linear in each party's Bloch vectors, so
_block_descent, the noise sweep's search, sets each party's vectors to their
closed-form best response in turn. After each such sweep it also turns all of a
row's vectors by one rotation, the best one in closed form for the symmetric
part of C: a noisy singlet's C is close to -I, so beta_Q barely changes along
joint rotations, and block steps alone creep along them for hundreds of sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import BellCoeffs
from .pauli import _bloch_batch, observable_from_bloch

__all__ = [
    "MeasurementSettings",
    "LinearSolveError",
    "build_transfer_matrix",
    "bell_operator",
    "solve_alpha",
    "quantum_value_from_data",
    "RESIDUAL_RTOL",
    "RANK_RCOND",
]

# Consistency gate for solved systems: ||T a - h|| <= RESIDUAL_RTOL * ||h||.
RESIDUAL_RTOL = 1e-8
# Relative singular-value cutoff for rank decisions and pseudo-inversion.
RANK_RCOND = 1e-10
# Unless both factors are 3x3, a row is solved by SVD instead when a 3x3 matrix
# the kernel inverts may have a condition number above 1e6: the factor itself at
# 3 settings, else its Gram matrix, whose condition number is the factor's
# squared (Golub & Van Loan, Matrix Computations, 5.3).
MAX_COND_SQUARED = 1e12


class LinearSolveError(RuntimeError):
    """T . alpha = h could not be solved within the residual gate."""


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


def build_transfer_matrix(ms: MeasurementSettings) -> np.ndarray:
    """T[3i+j, x1*m2+x2] = nA[x1, i] * nB[x2, j] for the settings' Bloch vectors, 9 x (m1*m2)."""
    return np.einsum("ai,bj->ijab", ms.bloch_a(), ms.bloch_b()).reshape(9, ms.m1 * ms.m2)


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


def _residual_scale(h) -> float:
    # 2^-e, e = frexp(max|h|)[1] >= -1021: times it, h and its residuals square without
    # underflow or overflow, and a power of two scales exactly, so the norm keeps its bits.
    return math.ldexp(1.0, -max(math.frexp(float(np.max(np.abs(h))))[1], -1021))


def _residual_batch(na, nb, alpha, hmat, scale: float = 1.0) -> np.ndarray:
    # ||NA^T alpha NB - H||_F, the same number as ||T vec(alpha) - h||, formed times scale
    # (_residual_scale(H)): np.linalg.norm's Frobenius formula, without its dispatch
    r = na.swapaxes(-1, -2) @ alpha @ nb - hmat
    r *= scale
    return np.sqrt(np.add.reduce(r * r, axis=(-2, -1))) / scale


def _residual_gate(h, scale: float | None = None) -> float:
    # Largest residual a solved system may leave: RESIDUAL_RTOL * ||h||, at every scale.
    scale = _residual_scale(h) if scale is None else scale
    return RESIDUAL_RTOL * float(np.linalg.norm(h * scale)) / scale


def _quantum_values(na, nb, cmats, alpha) -> tuple[np.ndarray, np.ndarray]:
    # c . T . alpha = sum_ab alpha_ab nA_a^T C nB_b for batches na (n, m1, 3),
    # nb (n, m2, 3) and cmats (n, 3, 3), or (1, 3, 3) for a C every row shares.
    # Returns (values (n,), ga (n, m1, 3)) with ga_a = d beta_Q/d nA_a = C sum_b
    # alpha_ab nB_b: beta_Q is linear in nA_a, so beta_Q = sum_a nA_a . ga_a.
    # Each row takes its own matmul chain and its own reduce, so its value
    # depends neither on the batch size nor on the other rows' C; the bounce
    # loop's half-step contracts rely on it.
    ga = alpha @ nb @ cmats.swapaxes(-1, -2)
    return np.add.reduce((na * ga).reshape(len(na), -1), axis=1), ga


def _values_at(alpha_mat, cmats, thetas):
    # beta_Q of each row of angles, as quantum_value_from_data reads them
    m1 = alpha_mat.shape[0]
    bloch = _bloch_batch(thetas.reshape(len(thetas), -1, 2))
    return _quantum_values(bloch[:, :m1], bloch[:, m1:], cmats, alpha_mat)[0]


def _unit(g: np.ndarray, n: np.ndarray):
    # (g_i / |g_i|, |g_i|) for the 3-vectors g_i of g, where a zero g_i keeps n_i
    gg = g * g
    norms = gg[..., 0] + gg[..., 1]
    norms += gg[..., 2]
    np.sqrt(norms, out=norms)
    if norms.all():
        return g / norms[..., None], norms
    out = n.copy()
    np.divide(g, norms[..., None], out=out, where=norms[..., None] > 0)
    return out, norms


def _eigenrotation(m: np.ndarray, order: int = 1) -> np.ndarray:
    # A rotation whose columns are eigenvectors of sym(m), for a batch m (n, 3, 3), their
    # eigenvalues ascending (order 1) or descending (order -1). Each column's sign is
    # free, so the last one's is chosen to make det +1.
    v = np.linalg.eigh(m + m.swapaxes(-1, -2))[1][..., ::order]
    v[..., 2] *= np.sign(np.linalg.det(v))[..., None]
    return v


def _block_descent(alpha_mat: np.ndarray, cmats: np.ndarray, thetas: np.ndarray, max_sweeps: int):
    """Minimise beta_Q = sum_ab alpha_ab nA_a^T C nB_b from each row of angles (n, dim)
    by exact block steps (see-saw: Werner & Wolf 2001; Pal & Vertesi 2010).

    cmats is (n, 3, 3), one C per row, or (1, 3, 3) for one C every row shares.
    beta_Q is linear in each Bloch vector, so with B fixed nA_a = -v_a/|v_a|,
    v_a = C sum_b alpha_ab nB_b, is A's best response, and then nB_b = -w_b/|w_b|,
    w_b = C^T sum_a alpha_ab nA_a, is B's, after which beta_Q = -sum_b |w_b|. A zero
    v_a or w_b keeps its vector.

    After each sweep, turning every vector of both parties by one rotation R makes
    beta_Q = tr(C R N R^T), N = sum_ab alpha_ab nB_b nA_a^T. With sym(C) = U diag(lambda)
    U^T (once per call) and sym(N) = V diag(sigma) V^T, R = U J V^T, where J pairs
    ascending lambda with descending sigma and makes det R = +1, minimises
    tr(sym(C) R sym(N) R^T) over rotations (von Neumann's trace inequality). That is
    beta_Q itself only for a symmetric C, so a row takes the turned vectors only where
    they strictly lower beta_Q.

    A row stops at its first sweep that does not strictly lower beta_Q, keeping the
    vectors before it (turned or not); max_sweeps caps the sweeps. Returns
    (values (n,), thetas (n, dim)): each row's angles, read off its vectors, and
    _values_at them, or the start's angles and value unless that is strictly lower.
    A row's result depends neither on the rest of the batch nor on the other rows' C.
    """
    n, (m1, m2) = len(thetas), alpha_mat.shape
    start = _values_at(alpha_mat, cmats, thetas)
    bloch = _bloch_batch(thetas.reshape(n, -1, 2))
    na, nb = bloch[:, :m1], bloch[:, m1:]
    # alpha and each C times 2^-e, e the exponent of its largest entry: exact, and it
    # leaves every best response as it is while no squared norm overflows or underflows
    sa, sc = (np.ldexp(1.0, -np.frexp(np.abs(x).max(axis=(-2, -1)))[1])
              for x in (alpha_mat, cmats))
    alpha_t = (alpha_mat * sa).T
    cs = cmats * sc[:, None, None]
    # -v = K vec(nB) and -w = K^T vec(nA), with K = -kron(alpha, C) per row
    k = (alpha_mat * -sa)[None, :, None, :, None] * cs[:, None, :, None, :]
    k = np.broadcast_to(k.reshape(-1, 3 * m1, 3 * m2), (n, 3 * m1, 3 * m2))
    kt = np.ascontiguousarray(k.swapaxes(-1, -2))
    u, cs = (np.broadcast_to(x, (n, 3, 3)) for x in (_eigenrotation(cs), cs))
    best = start * (sa * sc)  # beta_Q in the same scaled units, exactly
    rows = np.arange(n)
    for _ in range(max_sweeps):
        na_new = _unit((k @ nb.reshape(-1, 3 * m2, 1)).reshape(-1, m1, 3), na)[0]
        nb_new, norms = _unit((kt @ na_new.reshape(-1, 3 * m1, 1)).reshape(-1, m2, 3), nb)
        value = -np.add.reduce(norms, axis=1)
        lower = value < best
        if not lower.all():  # these rows stop, keeping their vectors before this sweep
            done = rows[~lower]
            bloch[done, :m1], bloch[done, m1:] = na[~lower], nb[~lower]
            rows, k, kt, u, cs = rows[lower], k[lower], kt[lower], u[lower], cs[lower]
            na_new, nb_new, value = na_new[lower], nb_new[lower], value[lower]
            if not len(rows):
                break
        # the best joint rotation R, taken where it strictly lowers beta_Q = tr(C R N R^T)
        nmat = nb_new.swapaxes(-1, -2) @ (alpha_t @ na_new)
        r = u @ _eigenrotation(nmat, -1).swapaxes(-1, -2)
        turned = cs * (r @ nmat.swapaxes(-1, -2) @ r.swapaxes(-1, -2))
        turned = np.add.reduce(turned.reshape(-1, 9), axis=1)
        better = turned < value
        if better.any():
            rt = r[better].swapaxes(-1, -2)
            na_new[better], nb_new[better] = na_new[better] @ rt, nb_new[better] @ rt
            value[better] = turned[better]
        na, nb, best = na_new, nb_new, value
    else:
        bloch[rows, :m1], bloch[rows, m1:] = na, nb
    # (t, p) of n = (cos t, sin t cos p, sin t sin p)
    x, y, z = bloch.reshape(-1, 3).T
    angles = np.stack([np.arctan2(np.hypot(y, z), x), np.arctan2(z, y)], axis=1).reshape(n, -1)
    values = _values_at(alpha_mat, cmats, angles)
    kept = ~(values < start)
    np.copyto(values, start, where=kept)
    np.copyto(angles, thetas, where=kept[:, None])
    return values, angles


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


def _inverted(f: np.ndarray) -> np.ndarray:
    # The 3x3 matrix inverted for pinv(F) of factors F (n, m, 3): F itself at m = 3,
    # F^T F otherwise (singular at m < 3).
    return f if f.shape[-2] == 3 else f.swapaxes(-1, -2) @ f


def _pinv_from(f: np.ndarray, inv: np.ndarray) -> np.ndarray:
    # pinv(F) (n, 3, m) from the inverse of _inverted(F): F^-1 at m = 3, else (F^T F)^-1 F^T.
    return inv if f.shape[-2] == 3 else inv @ f.swapaxes(-1, -2)


def _solve_unique_batch(na: np.ndarray, nb: np.ndarray, hmat: np.ndarray):
    """alpha = pinv(T) h plus one refinement step, for batches na (n, m1, 3), nb (n, m2, 3).

    pinv(T) = pinv(NA^T) (x) pinv(NB^T), each factor's taken from the inverse of
    the 3x3 matrix _inverted(F); one call inverts both factors' for every row.
    Returns (alpha, pa, pbt), the same triple as _solve_min_norm_batch. Rows
    whose inversion fails, or (unless both factors are 3x3) whose inverted
    matrices are not finite or may be badly conditioned (see MAX_COND_SQUARED),
    take _solve_min_norm_batch's values. A party with fewer than 3 settings has
    a singular Gram matrix, so every row of such a batch reaches the SVD solve
    through that fallback. No row is refused here: the residual gate decides
    whether a row's alpha solves its system. hmat is (3, 3) or (n, 3, 3); a row
    gets the same bits alone as in any batch.
    """
    n, m1, m2 = len(na), na.shape[1], nb.shape[1]
    try:
        invs = np.linalg.inv(np.concatenate((_inverted(na), _inverted(nb)))).reshape(2, n, 3, 3)
    except np.linalg.LinAlgError:
        if n > 1:  # an exactly singular matrix: solve each row alone
            hs = np.broadcast_to(hmat, (n, 3, 3))
            rows = [_solve_unique_batch(a, b, h) for a, b, h in zip(na[:, None], nb[:, None], hs)]
            return tuple(np.concatenate(parts) for parts in zip(*rows))
        return _solve_min_norm_batch(na, nb, hmat)
    pa, pbt = _pinv_from(na, invs[0]).swapaxes(-1, -2), _pinv_from(nb, invs[1])
    alpha = pa @ hmat @ pbt
    alpha += pa @ (hmat - na.swapaxes(-1, -2) @ alpha @ nb) @ pbt
    if not m1 == m2 == 3:
        # Bound on the squared Frobenius condition number of each inverted matrix X,
        # for factors of m unit rows (||F||_F^2 = m): ||X||_F^2 is m for X = F and at
        # most m^2 for a Gram matrix, times ||X^-1||_F^2. A nan or inf inverse fails
        # the test too; bounded ones give a finite alpha.
        sq = np.einsum("knij,knij->kn", invs, invs)
        sq[0] *= m1 if m1 == 3 else m1 * m1
        sq[1] *= m2 if m2 == 3 else m2 * m2
        ok = sq <= MAX_COND_SQUARED
        if not ok.all():
            redo = ~ok.all(axis=0)
            hs = np.broadcast_to(hmat, (n, 3, 3))[redo]
            alpha[redo], pa[redo], pbt[redo] = _solve_min_norm_batch(na[redo], nb[redo], hs)
    return alpha, pa, pbt


def residual_norm(ms: MeasurementSettings, alpha_flat: np.ndarray, h: np.ndarray) -> float:
    """||T . alpha - h|| for the transfer matrix T of the settings ms."""
    alpha = np.asarray(alpha_flat, dtype=float).reshape(ms.m1, ms.m2)
    hmat = np.asarray(h, dtype=float).reshape(3, 3)
    na, nb = ms.bloch_a(), ms.bloch_b()
    # formed at the residual's own power-of-two scale, so it squares without underflow
    # or overflow, whatever the scale of h
    scale = _residual_scale(na.T @ alpha @ nb - hmat)
    return float(_residual_batch(na, nb, alpha, hmat, scale))


def solve_alpha(ms: MeasurementSettings, h) -> BellCoeffs:
    """Solve T . alpha = h for the inequality coefficients.

    alpha is pinv(T) h, the least-squares solution of minimal Euclidean norm,
    by the optimizer's kernel: it inverts each factor, or its 3x3 Gram matrix
    at any other number of settings, and takes one iterative-refinement step;
    singular or badly conditioned factors take an SVD solve (cutoff 1e-10
    relative on the singular values of T). A party with fewer than 3 settings
    has a singular Gram matrix, so it reaches the SVD through that fallback.

    Args:
        ms: measurement settings; T is their transfer matrix.
        h: 9-component Pauli coefficient vector.

    Returns:
        BellCoeffs over the settings' scenario (m1, m2).

    Raises:
        ValueError: if h does not have shape (9,).
        LinearSolveError: if the residual exceeds 1e-8 * ||h|| or is
            not finite (h not representable at these settings). This is the
            optimizer's feasibility gate, so a point the bound objective
            scores finite is always solved.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (9,):
        raise ValueError(f"h must have shape (9,), got {h.shape}")
    na, nb, hmat = ms.bloch_a()[None], ms.bloch_b()[None], h.reshape(3, 3)
    scale = _residual_scale(h)
    # as in the optimizer: a nearly singular T may overflow, and the gate refuses it
    with np.errstate(all="ignore"):
        alpha = _solve_unique_batch(na, nb, hmat)[0][0]
        res = float(_residual_batch(na[0], nb[0], alpha, hmat, scale))
    if not np.isfinite(res) or res > _residual_gate(h, scale):
        raise LinearSolveError(
            f"inconsistent system: residual {res!r} for these settings"
        )
    return BellCoeffs(alpha)


def quantum_value_from_data(c, ms: MeasurementSettings, bc: BellCoeffs) -> float:
    """Evaluate c . T . alpha for measured Pauli correlators c at the settings ms."""
    c = np.asarray(c, dtype=float)
    if c.shape != (9,):
        raise ValueError(f"correlator vector must have shape (9,), got {c.shape}")
    if not np.all(np.abs(c) <= 1.0 + 1e-9):
        raise ValueError("correlator entries must lie in [-1, 1]")
    if (ms.m1, ms.m2) != bc.alpha.shape:
        raise ValueError(
            f"scenario ({ms.m1}, {ms.m2}) of the settings does not match alpha {bc.alpha.shape}"
        )
    na, nb = ms.bloch_a()[None], ms.bloch_b()[None]
    return float(_quantum_values(na, nb, c.reshape(1, 3, 3), bc.alpha)[0][0])
