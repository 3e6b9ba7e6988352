"""Property tests: the factored solve against the full transfer-matrix solve,
the value objective's exact gradient against probed central differences,
the symmetries of the classical bound and its witness's tie rule, the bound
objective's settings-independent ceiling and rotation invariance, and the
bounce loop's contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbounce.bell import BellCoeffs, Scenario, classical_bound
from bellbounce.mapping import (
    RANK_RCOND,
    LinearSolveError,
    MeasurementSettings,
    _residual_gate,
    _solve_min_norm_batch,
    _solve_unique_batch,
    build_transfer_matrix,
    solve_alpha,
)
from bellbounce.noise import P_MAX, PLACEMENTS, prepare_noisy_singlets
from bellbounce.optimize import (
    OptimizerConfig,
    _enumerated_bounds,
    bounce_loop,
    bound_objective,
    value_objective,
)
from bellbounce.pauli import _bloch_batch, correlator_vector
from bellbounce.presets import ELEGANT_COEFFS, H_G_COEFFS

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
        ms = MeasurementSettings(draw(party_angles(m1)), draw(party_angles(m2)))
        x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=m1 * m2)
        batch.append((ms, build_transfer_matrix(ms) @ x))
    return batch


@pytest.mark.parametrize("mode", ["unique", "min_norm"])
@PROPERTY
@given(data=st.data())
def test_factored_solve_matches_full_solve(mode, data):
    batch = data.draw(solve_cases(mode))
    ms, h = batch[0]
    t = build_transfer_matrix(ms)
    shape_mode = "unique" if (ms.m1, ms.m2) == (3, 3) else "min_norm"  # solve_alpha's kernel
    if solve_tolerance(t) is not None:
        if oracle_solve(t, h, shape_mode) is None:
            # T is rank-deficient: solve_alpha refuses exactly what the engine scores -inf
            objective = bound_objective(h, Scenario(ms.m1, ms.m2))
            if np.isfinite(objective.evaluate(ms.to_vector()[None])[0][0]):
                solve_alpha(ms, h)
            else:
                with pytest.raises(LinearSolveError):
                    solve_alpha(ms, h)
        else:
            assert_matches_oracle(t, h, shape_mode, solve_alpha(ms, h).alpha)
    # the pseudo-inverse kernel against its shape's oracle, and the SVD kernel
    # against the minimum-norm one
    na = np.stack([ms.bloch_a() for ms, _ in batch])
    nb = np.stack([ms.bloch_b() for ms, _ in batch])
    hmats = np.stack([h.reshape(3, 3) for _, h in batch])
    with np.errstate(over="ignore", invalid="ignore"):  # singular unique rows blow up
        solves = [(_solve_unique_batch(na, nb, hmats)[0], shape_mode)]
        if mode == "min_norm":
            solves.append((_solve_min_norm_batch(na, nb, hmats)[0], mode))
    for alphas, oracle in solves:
        assert alphas.shape == (len(batch), ms.m1, ms.m2)
        for (ms_row, h), alpha in zip(batch, alphas):
            assert_matches_oracle(build_transfer_matrix(ms_row), h, oracle, alpha)


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
    h = t @ rng.normal(size=9)
    alpha, pa, pbt = _solve_unique_batch(na, nb, h.reshape(3, 3))
    assert_matches_oracle(t, h, "unique", alpha[0])
    # the singular row gets the SVD solve, as at any other shape
    for got, want in zip((alpha, pa, pbt), _solve_min_norm_batch(na[1:], nb[1:], h.reshape(3, 3))):
        assert np.array_equal(got[1:], want)
    # the good row gets, bit for bit, what it gets alone
    solo = _solve_unique_batch(na[:1], nb[:1], h.reshape(3, 3))
    for got, want in zip((alpha, pa, pbt), solo):
        assert np.array_equal(got[:1], want)
    # at 4x3: a generic row, one with an exactly singular NB (a repeated setting) and
    # one with an ill-conditioned NA (every A setting within 2e-13 rad of the equator,
    # so T is numerically rank-deficient and NA's Gram matrix has no accurate inverse)
    generic = MeasurementSettings(rng.uniform(0, 3, (4, 2)), rng.uniform(0, 3, (3, 2)))
    b = generic.party_b.copy()
    b[2] = b[1]
    a = generic.party_a.copy()
    a[:, 0] = np.pi / 2 + np.array([1e-13, -1e-13, 2e-13, 0.0])
    rows = [generic, MeasurementSettings(generic.party_a, b), MeasurementSettings(a, generic.party_b)]
    ts = [build_transfer_matrix(ms) for ms in rows]
    na, nb = np.stack([ms.bloch_a() for ms in rows]), np.stack([ms.bloch_b() for ms in rows])
    hmats = np.stack([(t @ rng.normal(size=12)).reshape(3, 3) for t in ts])
    full = _solve_unique_batch(na, nb, hmats)
    for i in (1, 2):
        assert np.all(np.isfinite(full[0][i]))
        assert_matches_oracle(ts[i], hmats[i].ravel(), "min_norm", full[0][i])
    # a row's bits do not depend on its batch, also where no row is exactly singular
    solo = [_solve_unique_batch(na[i : i + 1], nb[i : i + 1], hmats[i : i + 1]) for i in range(3)]
    pair = _solve_unique_batch(na[[0, 2]], nb[[0, 2]], hmats[[0, 2]])
    for got, row, i in ((full, 0, 0), (pair, 0, 0), (pair, 1, 2)):
        for part, want in zip(got, solo[i]):
            assert np.array_equal(part[row : row + 1], want)


def test_bound_objective_row_ignores_singular_neighbour():
    # a neighbour whose first two A settings are both (0, 0) has an exactly
    # singular NA; a generic row's value and gradient keep their bits
    objective = bound_objective(H_G_COEFFS, Scenario(3, 3))
    generic = np.random.default_rng(6).uniform(0, np.pi, objective.dim)
    singular = generic.copy()
    singular[:4] = 0.0
    alone = objective.evaluate(generic[None])
    batched = objective.evaluate(np.stack([generic, singular]))
    for got, want in zip(batched, alone):
        assert np.array_equal(got[:1], want)


@pytest.mark.parametrize("shape", [(3, 3), (4, 3)])
@pytest.mark.parametrize("operator", ["H_G", "elegant", "random"])
def test_solve_alpha_refuses_exactly_what_the_engine_scores_infeasible(operator, shape):
    # Near-degenerate points: party A's third setting within 10^-k of its first, k = 5..9,
    # where T's condition number climbs past 1e10 and the residual gate starts refusing.
    # One feasibility rule: solve_alpha returns exactly where the bound objective scores a
    # point finite, and the alpha it returns has the engine's bound to the bit.
    m1, m2 = shape
    rng = np.random.default_rng(31)
    h = {"H_G": H_G_COEFFS, "elegant": ELEGANT_COEFFS}.get(operator)
    h = rng.normal(size=9) if h is None else h
    objective = bound_objective(h, Scenario(m1, m2))
    for k in range(5, 10):
        thetas = rng.uniform(0, 2 * np.pi, size=(400, objective.dim))
        step = rng.normal(size=(len(thetas), 2))
        thetas[:, 4:6] = thetas[:, :2] + 10.0**-k * step / np.linalg.norm(step, axis=1, keepdims=True)
        values = objective.evaluate(thetas)[0]
        for theta, value in zip(thetas, values):
            ms = MeasurementSettings.from_vector(m1, m2, theta)
            if np.isfinite(value):
                alpha = solve_alpha(ms, h).alpha
                assert _enumerated_bounds(alpha[None])[0][0] == value
            else:
                with pytest.raises(LinearSolveError):
                    solve_alpha(ms, h)


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
    beta, witness = classical_bound(BellCoeffs(alpha))
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
        got = classical_bound(BellCoeffs(variant))[0]
        assert got == pytest.approx(factor * beta, rel=1e-12, abs=1e-12)


@PROPERTY
@given(case=bound_cases())
def test_bound_witness_is_the_engines(case):
    # One tie rule: the engine's first optimal pattern of the smaller side, so on exact
    # entries transposing a non-square alpha swaps the parties' answers.
    alpha, _ = case
    beta, witness = classical_bound(BellCoeffs(alpha))
    _, (a,), (b,) = _enumerated_bounds(alpha[None])
    assert witness.a.tolist() == a.tolist() and witness.b.tolist() == b.tolist()
    if alpha.shape[0] != alpha.shape[1] and np.array_equal(alpha, np.round(alpha)):
        beta_t, witness_t = classical_bound(BellCoeffs(alpha.T))
        assert beta_t == beta
        assert witness_t.a.tolist() == witness.b.tolist()
        assert witness_t.b.tolist() == witness.a.tolist()


def _rotation(rng) -> np.ndarray:
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return q * np.linalg.det(q)  # det +1


@st.composite
def ceiling_cases(draw):
    # An operator (H_G, elegant or random) and 128 random angle vectors of a 3x3, 4x3 or
    # 3x4 scenario, with a rotation for each party.
    m1, m2 = draw(st.sampled_from([(3, 3), (4, 3), (3, 4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    operator = draw(st.sampled_from(["H_G", "elegant", "random"]))
    h = {"H_G": H_G_COEFFS, "elegant": ELEGANT_COEFFS}.get(operator)
    h = rng.normal(size=9) if h is None else h
    thetas = rng.uniform(0, 2 * np.pi, size=(128, 2 * (m1 + m2)))
    return Scenario(m1, m2), h, thetas, _rotation(rng), _rotation(rng)


@PROPERTY
@given(case=ceiling_cases())
def test_bound_objective_ceiling_and_rotation_invariance(case):
    # Where NA^T alpha NB = H holds within the residual gate g, a product state with unit Bloch
    # vectors r and s has correlators (n_a . r)(n_b . s), so beta_C <= r^T H s + g; with
    # (r, -s) H's top singular pair, beta_C <= -sigma_max(H) + g, whatever the settings.
    scenario, h, thetas, rot_a, rot_b = case
    m1, n = scenario.m1, len(thetas)
    hmat = h.reshape(3, 3)
    values = bound_objective(h, scenario).evaluate(thetas)[0]
    feasible = np.isfinite(values)
    assert np.all(values[feasible] <= -np.linalg.norm(hmat, 2) + _residual_gate(h))
    # Settings (R n_a, S n_b) with operator R H S^T solve for the same alpha, so the same beta_C.
    # The solve's rounding grows with cond(NA) cond(NB) (measured: up to about 3 eps times
    # that product), so the comparison takes the points where the product is at most 1e3.
    bloch = _bloch_batch(thetas.reshape(n, -1, 2))
    moved = np.concatenate([bloch[:, :m1] @ rot_a.T, bloch[:, m1:] @ rot_b.T], axis=1)
    polar = np.arctan2(np.hypot(moved[..., 1], moved[..., 2]), moved[..., 0])
    rotated = np.stack([polar, np.arctan2(moved[..., 2], moved[..., 1])], axis=-1).reshape(n, -1)
    turned = bound_objective((rot_a @ hmat @ rot_b.T).ravel(), scenario).evaluate(rotated)[0]
    tame = np.linalg.cond(bloch[:, :m1]) * np.linalg.cond(bloch[:, m1:]) <= 1e3
    assert np.array_equal(np.isfinite(turned[tame]), feasible[tame])
    both = tame & feasible
    assert np.all(np.abs(turned[both] - values[both]) <= 1e-12 * np.abs(values[both]))


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
    return BellCoeffs(rng.normal(size=(m1, m2))), rng.uniform(-1, 1, 9), thetas


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
    grad = objective.evaluate(thetas)[1]
    ref = oracle_central_difference(lambda x: objective.evaluate(x)[0], thetas, step)
    ref /= np.sin(step) / step
    assert grad.shape == thetas.shape
    assert np.linalg.norm(grad - ref) <= 1e-8 * np.linalg.norm(ref)


@st.composite
def bounce_cases(draw):
    # Generic settings, noisy-singlet correlators, and a start: an inequality, or the
    # inequality solved from an operator T(ms) x that the settings reach.
    m1, m2 = draw(st.sampled_from([(m1, m2) for m1 in (2, 3, 4) for m2 in (2, 3, 4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angles = rng.uniform(0, 2 * np.pi, (m1 + m2, 2))
    ms = MeasurementSettings(angles[:m1], angles[m1:])
    x = rng.normal(size=(m1, m2))
    if draw(st.booleans()):
        start = BellCoeffs(x)
    else:
        start = solve_alpha(ms, build_transfer_matrix(ms) @ x.ravel())
    p, placement = draw(st.floats(0.0, P_MAX)), draw(st.sampled_from(PLACEMENTS))
    return start, ms, correlator_vector(prepare_noisy_singlets([p], placement)[0])


@settings(PROPERTY, max_examples=40)
@given(case=bounce_cases())
def test_bounce_contracts_from_random_starts(case):
    start, ms, c = case
    res = bounce_loop(start, ms, c, cfg=OptimizerConfig(max_steps=25), max_loops=3)
    assert len(res.records) == 1 + 2 * res.loops
    assert [r.kind for r in res.records[1:]] == ["minimize-quantum-value",
                                                 "maximize-classical-bound"] * res.loops
    for prev, cur in zip(res.records, res.records[1:]):
        if cur.kind == "minimize-quantum-value":
            assert cur.beta_q <= prev.beta_q
            assert cur.beta_c == prev.beta_c
        else:
            assert cur.beta_c >= prev.beta_c
    assert all(r.gap == r.beta_q - r.beta_c for r in res.records)
    assert res.violation == (res.final_gap < 0)
