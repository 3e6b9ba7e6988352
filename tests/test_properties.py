"""Property tests: the factored solve against the full transfer-matrix solve,
the value objective's exact gradient against probed central differences,
and the symmetries of the classical bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbounce.bell import BellCoeffs, classical_bound
from bellbounce.mapping import (
    RANK_RCOND,
    LinearSolveError,
    MeasurementSettings,
    _solve_min_norm_batch,
    _solve_unique_batch,
    build_transfer_matrix,
    solve_alpha,
)
from bellbounce.optimize import _enumerated_bounds, value_objective

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def oracle_solve(t: np.ndarray, h: np.ndarray, mode: str) -> np.ndarray | None:
    """Solve T . alpha = h on the full 9 x (m1*m2) matrix.

    None when unique mode finds T numerically rank-deficient. This is the solve
    the factored kernels replaced, kept as the reference they must match.
    """
    if mode == "unique":
        s = np.linalg.svd(t, compute_uv=False)
        if s[-1] <= RANK_RCOND * s[0]:
            return None
        alpha = np.linalg.solve(t, h)
        return alpha + np.linalg.solve(t, h - t @ alpha)
    u, s, vt = np.linalg.svd(t, full_matrices=False)
    keep = s > RANK_RCOND * s[0]
    return vt.T @ np.divide(u.T @ h, s, out=np.zeros_like(s), where=keep)


@st.composite
def party_angles(draw, m: int) -> np.ndarray:
    # Random (theta, phi) rows; some rows are copies of the first, exact or
    # tilted by 1e-3 to 1e-1 rad, to reach (nearly) parallel Bloch vectors.
    angle = st.floats(0.0, 2 * np.pi, allow_nan=False)
    rows = [[draw(angle), draw(angle)] for _ in range(m)]
    for k in range(1, m):
        tilt = draw(st.sampled_from([None, 0.0, 1e-3, 1e-2, 1e-1]))
        if tilt is not None:
            rows[k] = [rows[0][0] + tilt, rows[0][1] - tilt]
    return np.array(rows)


def solve_tolerance(t: np.ndarray) -> float | None:
    """Allowed ||alpha - ref|| / max(1, ||ref||) between the two solves of T.

    100 eps cond(T) over T's kept singular values (the largest ratio seen in
    5,600 random near-parallel cases was 20 eps cond(T)). None when a singular
    value lies within 100x of the rank cutoff, where the two solves may
    rightly keep different ranks.
    """
    s = np.linalg.svd(t, compute_uv=False)
    cut = RANK_RCOND * s[0]
    if np.any((s > cut / 100) & (s < cut * 100)):
        return None
    return 100 * np.finfo(float).eps * s[0] / s[s > cut][-1]


def assert_matches_oracle(t: np.ndarray, h: np.ndarray, mode: str, alpha) -> None:
    tol, ref = solve_tolerance(t), oracle_solve(t, h, mode)
    if tol is not None and ref is not None:
        assert np.linalg.norm(alpha.ravel() - ref) <= tol * max(1.0, np.linalg.norm(ref))


@st.composite
def solve_cases(draw, mode: str):
    # A batch of 1-3 settings of one scenario, each with an h it can reach.
    m1, m2 = (3, 3) if mode == "unique" else (draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    batch = []
    for _ in range(draw(st.integers(1, 3))):
        t = build_transfer_matrix(
            MeasurementSettings(draw(party_angles(m1)), draw(party_angles(m2))))
        x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=m1 * m2)
        batch.append((t, t.matrix @ x))
    return batch


@pytest.mark.parametrize("mode", ["unique", "min_norm"])
@PROPERTY
@given(data=st.data())
def test_factored_solve_matches_full_solve(mode, data):
    batch = data.draw(solve_cases(mode))
    t, h = batch[0]
    shape_mode = "unique" if (t.m1, t.m2) == (3, 3) else "min_norm"  # solve_alpha's kernel
    if solve_tolerance(t.matrix) is not None:
        if oracle_solve(t.matrix, h, shape_mode) is None:
            with pytest.raises(LinearSolveError):
                solve_alpha(t, h)
        else:
            assert_matches_oracle(t.matrix, h, shape_mode, solve_alpha(t, h).alpha)
    kernel = _solve_unique_batch if mode == "unique" else _solve_min_norm_batch
    na = np.stack([t.na for t, _ in batch])
    nb = np.stack([t.nb for t, _ in batch])
    hmats = np.stack([h.reshape(3, 3) for _, h in batch])
    with np.errstate(over="ignore", invalid="ignore"):  # singular unique rows blow up
        alphas = kernel(na, nb, hmats)[0]
    assert alphas.shape == (len(batch), t.m1, t.m2)
    for (t, h), alpha in zip(batch, alphas):
        assert_matches_oracle(t.matrix, h, mode, alpha)


def test_unique_kernel_singular_batch_falls_back():
    rng = np.random.default_rng(5)
    good = MeasurementSettings(rng.uniform(0, 3, (3, 2)), rng.uniform(0, 3, (3, 2)))
    a = good.party_a.copy()
    a[2] = a[1]  # a repeated setting makes NA exactly singular
    bad = MeasurementSettings(a, good.party_b)
    na = np.stack([good.bloch_a(), bad.bloch_a()])
    nb = np.stack([good.bloch_b(), bad.bloch_b()])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(na)
    t = build_transfer_matrix(good)
    h = t.matrix @ rng.normal(size=9)
    alpha = _solve_unique_batch(na, nb, h.reshape(3, 3))[0]
    assert_matches_oracle(t.matrix, h, "unique", alpha[0])
    assert np.all(np.isnan(alpha[1]))


@st.composite
def bound_cases(draw):
    m1, m2 = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    alpha = rng.normal(size=(m1, m2))
    if draw(st.booleans()):
        alpha = np.round(alpha * 2)  # integer entries, rich in ties
    return alpha, rng


@PROPERTY
@given(case=bound_cases(), scale=st.floats(1e-3, 1e3))
def test_bound_symmetries(case, scale):
    alpha, rng = case
    beta, witness = classical_bound(BellCoeffs.from_matrix(alpha))
    assert witness.correlators().ravel() @ alpha.ravel() == pytest.approx(beta, rel=1e-12, abs=1e-12)
    assert _enumerated_bounds(alpha[None])[0][0] == pytest.approx(beta, rel=1e-12, abs=1e-12)
    flips = rng.choice([-1.0, 1.0], size=(alpha.shape[0], 1))
    variants = [
        (alpha[rng.permutation(alpha.shape[0])], 1.0),
        (alpha[:, rng.permutation(alpha.shape[1])], 1.0),
        (flips * alpha, 1.0),
        (scale * alpha, scale),
    ]
    for variant, factor in variants:
        got = classical_bound(BellCoeffs.from_matrix(variant))[0]
        assert got == pytest.approx(factor * beta, rel=1e-12, abs=1e-12)


def oracle_central_difference(values, thetas: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient of a batched value function at each row of thetas.

    Evaluates every point and its 2 * dim probes in one call; a coordinate with a
    non-finite side gets 0. This is the probe layout the closed form replaced,
    kept as the reference it must match.
    """
    n, dim = thetas.shape
    offsets = np.concatenate([np.zeros((1, dim)), np.eye(dim) * step, -np.eye(dim) * step])
    vals = values((thetas[:, None, :] + offsets[None, :, :]).reshape(-1, dim)).reshape(n, -1)
    f_up, f_down = vals[:, 1 : dim + 1], vals[:, dim + 1 :]
    ok = np.isfinite(f_up) & np.isfinite(f_down)
    diff = np.subtract(f_up, f_down, out=np.zeros_like(f_up), where=ok)
    return diff / (2.0 * step)


@st.composite
def value_cases(draw):
    # An inequality, correlators and a batch of 1-3 angle vectors of one scenario.
    m1, m2 = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thetas = rng.uniform(-np.pi, 2 * np.pi, size=(draw(st.integers(1, 3)), 2 * (m1 + m2)))
    return BellCoeffs.from_matrix(rng.normal(size=(m1, m2))), rng.uniform(-1, 1, 9), thetas


@pytest.mark.parametrize("step", [1e-4, 1e-2])
@PROPERTY
@given(case=value_cases())
def test_value_gradient_matches_central_difference(step, case):
    # Every Bloch component is a unit-frequency sinusoid in each angle and the value
    # is linear in each Bloch vector, so the central difference at step h is exactly
    # sin(h)/h times the derivative; at 1e-2 that factor is 1 - 1.7e-5, far above
    # the tolerance, so it is divided out rather than ignored.
    alpha, c, thetas = case
    objective = value_objective(alpha, c)
    grad = objective.evaluate(thetas)[2]
    ref = oracle_central_difference(lambda x: objective.evaluate(x)[0], thetas, step)
    ref /= np.sin(step) / step
    assert grad.shape == thetas.shape
    assert np.linalg.norm(grad - ref) <= 1e-8 * np.linalg.norm(ref)
