import tracemalloc

import numpy as np
import pytest

from bellbounce import bell, optimize
from bellbounce.bell import BellCoeffs, Scenario, classical_bound, gisin_variant
from bellbounce.mapping import (
    MeasurementSettings,
    build_transfer_matrix,
    quantum_value_from_data,
    solve_alpha,
)
from bellbounce.optimize import (
    AdamState,
    NoFeasiblePointError,
    OptimizerConfig,
    adam_init,
    adam_step,
    bounce_loop,
    bound_objective,
    random_starts,
    run_search,
    value_objective,
)
from bellbounce.noise import NoiseModel, prepare_noisy_singlet
from bellbounce.pauli import correlator_vector
from bellbounce.presets import (
    ELEGANT_COEFFS,
    H_G_COEFFS,
    tetrahedron_axes_settings,
)
from finite_diff import finite_diff_gradient

SINGLET = correlator_vector(prepare_noisy_singlet(NoiseModel(0.0)))
FAST = OptimizerConfig(learning_rate=0.02, max_steps=120)
FAST_DOWN = OptimizerConfig(learning_rate=0.01, max_steps=120)
GISIN_2 = gisin_variant(2.0)


def _random_settings(rng, m1, m2):
    vec = rng.random(2 * (m1 + m2))
    vec[0::2] *= np.pi
    vec[1::2] *= 2 * np.pi
    return MeasurementSettings.from_vector(m1, m2, vec)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.1, max_steps=0)
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.1, max_steps=optimize.MAX_STEPS + 1)
    assert OptimizerConfig(learning_rate=0.1, max_steps=optimize.MAX_STEPS).max_steps == 2**25 - 1
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=bad)


def test_adam_step_reference():
    # follow the textbook recursion for a few steps and compare
    cfg = OptimizerConfig(learning_rate=0.1)
    theta = np.array([1.0, -2.0])
    state = adam_init(theta)
    m = np.zeros(2)
    v = np.zeros(2)
    for t in range(1, 6):
        g = 2 * state.theta  # gradient of |theta|^2
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g**2
        expected = state.theta - cfg.learning_rate * (m / (1 - 0.9**t)) / (
            np.sqrt(v / (1 - 0.999**t)) + 1e-8
        )
        state = adam_step(state, g, cfg)
        assert state.step == t
        assert np.allclose(state.theta, expected, atol=1e-15)


def test_adam_first_step_is_signed_learning_rate():
    cfg = OptimizerConfig(learning_rate=0.05)
    state = adam_step(adam_init(np.zeros(3)), np.array([4.0, -1.0, 0.0]), cfg)
    # bias correction makes the first move lr * sign(g) up to epsilon
    assert np.allclose(state.theta, [-0.05, 0.05, 0.0], atol=1e-8)
    up = adam_step(adam_init(np.zeros(3)), np.array([4.0, -1.0, 0.0]), cfg, maximize=True)
    assert np.allclose(up.theta, [0.05, -0.05, 0.0], atol=1e-8)


def test_finite_diff_on_quadratics():
    rng = np.random.default_rng(51)
    for _ in range(20):
        a = rng.normal(size=(5, 5))
        a = a + a.T
        x0 = rng.normal(size=5)
        grad = finite_diff_gradient(lambda x: x @ a @ x, x0)
        assert np.allclose(grad, 2 * a @ x0, atol=1e-5)


def test_finite_diff_rejects_nonfinite():
    with pytest.raises(ValueError):
        finite_diff_gradient(lambda x: np.inf, np.zeros(2))


def _kink_free(alpha_row, m1, m2, margin=1e-6):
    # The winning strategy is unique (up to the global flip) by more than margin.
    amats, m = alpha_row.reshape(1, m1, m2), min(m1, m2)
    (patterns,) = bell._pattern_blocks(m, m - 1)
    values = np.unique(-np.abs(bell._side_products(amats, patterns)).sum(axis=1))
    return values[1] - values[0] > margin


# the pseudo-inverse derivative at 3x3 (square factors) and at 4x3 (NA through its Gram matrix)
@pytest.mark.parametrize("m1", [pytest.param(3, id="3-unique"), pytest.param(4, id="4-min_norm")])
@pytest.mark.parametrize("operator", ["H_G", "elegant", "random"])
def test_bound_gradient_matches_finite_differences(m1, operator):
    rng = np.random.default_rng(54)
    h = {"H_G": H_G_COEFFS, "elegant": ELEGANT_COEFFS, "random": rng.normal(size=9)}[operator]
    objective = bound_objective(h, Scenario(m1, 3))
    checked = 0
    for _ in range(40):
        theta = _random_settings(rng, m1, 3).to_vector()
        values, alpha, grad = objective.evaluate(theta[None])
        assert np.isfinite(values[0])  # generic settings are feasible
        if not _kink_free(alpha[0], m1, 3):
            continue
        ref = finite_diff_gradient(lambda x: objective.evaluate(x[None])[0][0], theta, 1e-6)
        assert np.linalg.norm(grad[0] - ref) <= 1e-5 * np.linalg.norm(ref)
        checked += 1
    assert checked >= 30


def test_bound_gradient_zero_when_infeasible():
    # a generic target is unreachable in a 2x2 scenario
    h = np.array([1.0, 0.7, -0.3, 0.2, -1.0, 0.4, 0.9, -0.6, 0.5])
    objective = bound_objective(h, Scenario(2, 2))
    theta = _random_settings(np.random.default_rng(55), 2, 2).to_vector()
    values, _, grad = objective.evaluate(theta[None])
    assert values[0] == -np.inf
    assert np.array_equal(grad, np.zeros((1, 8)))


def test_maximize_bound_consistency():
    rng = np.random.default_rng(52)
    start = _random_settings(rng, 3, 3).to_vector()[None, :]
    res = run_search(bound_objective(H_G_COEFFS, Scenario(3, 3)), start, FAST)
    # reported alpha reproduces h at the reported settings
    t = build_transfer_matrix(res.settings)
    resid = np.linalg.norm(t @ res.alpha.alpha.ravel() - H_G_COEFFS)
    assert resid <= 1e-8 * np.linalg.norm(H_G_COEFFS)
    # reported value is the exact enumerated bound of the reported alpha
    assert abs(res.value - classical_bound(res.alpha)[0]) < 1e-12
    # best-so-far history never decreases
    finite = res.history[np.isfinite(res.history)]
    assert np.all(np.diff(finite) >= 0)


def test_minimize_value_descends():
    rng = np.random.default_rng(53)
    bc = gisin_variant(2.0)
    c = SINGLET
    init = _random_settings(rng, 4, 3)
    res = run_search(value_objective(bc, c), init.to_vector()[None, :], FAST_DOWN)
    assert res.value <= res.history[0]
    assert np.all(np.diff(res.history) <= 0)
    assert len(res.history) == FAST_DOWN.max_steps + 1
    assert res.value >= -4 * np.sqrt(6) - 1e-9  # optimum over settings for ideal data


def test_history_is_the_batch_best_so_far():
    # row 0 leads early, row 1 takes over at step 3 and row 2, infeasible at step 0,
    # wins at the last step: the curve follows the batch, not the winner's own row
    table = np.array([
        [1.0, 0.0, -np.inf],
        [2.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 3.0, 0.0],
        [0.0, 0.0, 5.0],
    ])
    calls = iter(table)

    def evaluate(thetas):
        return next(calls).copy(), None, np.zeros_like(thetas)

    objective = optimize.Objective(Scenario(2, 2), True, evaluate)
    cfg = OptimizerConfig(learning_rate=0.1, max_steps=len(table) - 1)
    res = run_search(objective, np.zeros((3, objective.dim)), cfg)
    assert res.best_index == 2 and res.value == 5.0
    assert res.history.tolist() == np.maximum.accumulate(table.max(axis=1)).tolist()
    assert res.history[-1] == res.value
    assert len(res.history) == cfg.max_steps + 1


def test_engine_memory_does_not_grow_with_rows_times_steps():
    # every row improves at every step; the engine keeps per-row state and one
    # curve, far below a rows x (steps + 1) array
    n, steps = 1000, 1000

    def evaluate(thetas):
        return thetas[:, 0].copy(), None, np.ones_like(thetas)

    objective = optimize.Objective(Scenario(2, 2), True, evaluate)
    starts = np.zeros((n, objective.dim))
    cfg = OptimizerConfig(learning_rate=0.01, max_steps=steps)
    tracemalloc.start()
    try:
        res = run_search(objective, starts, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.history) == steps + 1 and np.all(np.diff(res.history) > 0)
    assert peak < n * (steps + 1) * 8 / 4


AXES = tetrahedron_axes_settings().party_b  # x, y and z


@pytest.mark.parametrize(
    "objective, canonical, cfg",
    [
        (bound_objective(H_G_COEFFS, Scenario(3, 3)), MeasurementSettings(AXES, AXES), FAST),
        (value_objective(GISIN_2, SINGLET * 0.92),
         tetrahedron_axes_settings(), FAST_DOWN),
    ],
    ids=["bound", "value"],
)
def test_harness_determinism_and_seeding(objective, canonical, cfg):
    # ineq2ham stacks its canonical start on the random ones and runs them as one batch
    starts = np.vstack([canonical.to_vector(), random_starts(objective.dim, 3, seed=9)])
    out1 = run_search(objective, starts, cfg)
    out2 = run_search(objective, starts, cfg)
    assert out1.values.tolist() == out2.values.tolist()
    assert np.array_equal(out1.settings.to_vector(), out2.settings.to_vector())
    # each row gets, bit for bit, what it gets when it runs alone
    for row, value, theta in zip(starts, out1.values, out1.thetas):
        solo = run_search(objective, row[None, :], cfg)
        assert solo.value == value
        assert np.array_equal(solo.settings.to_vector(), theta)
    if not objective.maximize:
        # so does a row with its own correlators in a batch whose rows' differ
        cs = SINGLET * np.linspace(0.7, 1.0, len(starts))[:, None]
        stacked = run_search(value_objective(GISIN_2, cs), starts, cfg)
        for row, c, value, theta in zip(starts, cs, stacked.values, stacked.thetas):
            solo = run_search(value_objective(GISIN_2, c), row[None, :], cfg)
            assert solo.value == value
            assert np.array_equal(solo.settings.to_vector(), theta)
    # random start i depends only on (seed, i), not on how many are drawn
    assert np.array_equal(random_starts(objective.dim, 1, seed=9), starts[1:2])
    different = run_search(objective, random_starts(objective.dim, 1, seed=10), cfg)
    assert different.value != out1.values[1]
    assert run_search(objective, np.vstack([starts[1], starts[1]]), cfg).best_index == 0
    assert random_starts(objective.dim, 0, seed=1).shape == (0, objective.dim)
    with pytest.raises(ValueError):
        random_starts(objective.dim, -1, seed=1)
    with pytest.raises(ValueError):
        run_search(objective, random_starts(objective.dim, 0, seed=1), cfg)


def test_infeasible_target_raises():
    # a 2x2 scenario spans a 4-dimensional slice of the 9 coefficients, so a
    # generic target is unreachable from every restart
    objective = bound_objective(
        np.array([1.0, 0.7, -0.3, 0.2, -1.0, 0.4, 0.9, -0.6, 0.5]), Scenario(2, 2)
    )
    with pytest.raises(NoFeasiblePointError):
        run_search(
            objective,
            random_starts(objective.dim, 2, seed=0),
            OptimizerConfig(learning_rate=0.02, max_steps=40),
        )


@pytest.mark.parametrize("m1, m2", [(4, 3), (2, 5)])
def test_value_rows_match_single_point_and_data_value(m1, m2):
    # The bounce half-step contracts compare engine values with
    # quantum_value_from_data, so a row's value must not depend on the batch.
    rng = np.random.default_rng(57)
    bc = BellCoeffs(rng.normal(size=(m1, m2)))
    c = rng.uniform(-1, 1, 9)
    evaluate = value_objective(bc, c).evaluate
    thetas = np.stack([_random_settings(rng, m1, m2).to_vector() for _ in range(6)])
    values = evaluate(thetas)[0]
    for i, theta in enumerate(thetas):
        assert values[i] == evaluate(thetas[i : i + 1])[0][0]
        ms = MeasurementSettings.from_vector(m1, m2, theta)
        assert values[i] == quantum_value_from_data(c, ms, bc)


def test_value_objective_correlator_shapes():
    rng = np.random.default_rng(59)
    c = SINGLET
    for bc in (GISIN_2, *(BellCoeffs(rng.normal(size=s)) for s in ((2, 5), (5, 2)))):
        m1, m2 = bc.alpha.shape
        thetas = np.stack([_random_settings(rng, m1, m2).to_vector() for _ in range(3)])
        shared = value_objective(bc, c).evaluate(thetas)
        # one row that every batch row shares, or one row per batch row
        for stack in (c[None, :], np.stack([c] * 3)):
            got = value_objective(bc, stack).evaluate(thetas)
            assert np.array_equal(got[0], shared[0]) and np.array_equal(got[2], shared[2])
        # a row alone gets the bits it gets in the batch, with c shared or its own
        cs = rng.uniform(-1, 1, size=(3, 9))
        mixed = value_objective(bc, cs).evaluate(thetas)
        for i in range(3):
            for ci, batch in ((c, shared), (cs[i], mixed)):
                alone = value_objective(bc, ci).evaluate(thetas[i : i + 1])
                assert alone[0][0] == batch[0][i] and np.array_equal(alone[2][0], batch[2][i])
    for bad in (c.reshape(3, 3), c[:8], np.zeros((2, 3, 9))):
        with pytest.raises(ValueError, match="shape"):
            value_objective(GISIN_2, bad)
    with pytest.raises(ValueError, match="2 correlator rows for a batch of 3"):
        value_objective(bc, np.stack([c, c])).evaluate(thetas)


def test_value_objective_evaluates_the_factory_closure(monkeypatch):
    # Tracing wraps what optimize._make_qv_objective returns, so value_objective
    # must look the factory up on the module and hand its closure to the engine.
    make, made = optimize._make_qv_objective, []

    def factory(*args):
        made.append(make(*args))
        return made[-1]

    monkeypatch.setattr(optimize, "_make_qv_objective", factory)
    objective = value_objective(gisin_variant(2.0), SINGLET)
    assert len(made) == 1 and objective.evaluate is made[0]
    thetas = np.stack([_random_settings(np.random.default_rng(58), 4, 3).to_vector()] * 5)
    values, payload, grad = objective.evaluate(thetas)
    assert values.shape == (5,) and payload is None and grad.shape == (5, objective.dim)



def test_bound_objective_refuses_gradient_beyond_budget(monkeypatch):
    # under a budget of 4 x 2^4 = 64 entries, a 9x2 row enumerates 9 x 2^2 = 36
    # products but would form 9 x 9 = 81 gradient entries
    monkeypatch.setattr(bell, "ENUMERATION_MAX_SIDE", 4)
    objective = bound_objective(H_G_COEFFS, Scenario(9, 2))
    with pytest.raises(ValueError, match=r"1 x 9 x 9 gradient entries exceed 4 x 2\^4"):
        objective.evaluate(np.zeros((1, objective.dim)))


def test_bound_objective_checks_each_batch_size_once(monkeypatch):
    # The budget is checked on the first batch of each size; a larger batch is still
    # refused before any sign pattern is built.
    checks, check = [], optimize._check_bound_batch
    monkeypatch.setattr(optimize, "_check_bound_batch", lambda *a: checks.append(a) or check(*a))
    objective = bound_objective(H_G_COEFFS, Scenario(4, 3))
    start = random_starts(objective.dim, 1, 0)
    first = objective.evaluate(start)
    again = objective.evaluate(start)
    assert checks == [(1, 4, 3)]
    for got, want in zip(again, first):
        assert np.array_equal(got, want)

    def no_patterns(m):
        raise AssertionError(f"2^{m} patterns built")

    monkeypatch.setattr(bell, "_sign_patterns", no_patterns)
    # 4 x 2^3 products per row: one row more than the budget allows, as a view of one row
    n = bell.ENUMERATION_MAX_SIDE * 2**bell.ENUMERATION_MAX_SIDE // (4 * 2**3) + 1
    with pytest.raises(ValueError, match=f"{n} x 4 x 2\\^3 products"):
        objective.evaluate(np.broadcast_to(start, (n, objective.dim)))
    assert checks[-1] == (n, 4, 3)


def test_value_task_matches_direct_call():
    bc = gisin_variant(2.0)
    c = SINGLET
    objective = value_objective(bc, c)
    out = run_search(objective, random_starts(objective.dim, 2, seed=3), FAST_DOWN)
    rng = np.random.default_rng(np.random.SeedSequence((3, 0)))
    direct = run_search(objective, _random_settings(rng, 4, 3).to_vector()[None, :], FAST_DOWN)
    assert out.values[0] == direct.value


def test_bounce_contracts_exact():
    bc = gisin_variant(2.0)
    ms = tetrahedron_axes_settings()
    c = SINGLET * 0.92  # mildly degraded data
    small = OptimizerConfig(learning_rate=0.01, max_steps=150)
    res = bounce_loop(bc, ms, c, min_cfg=small, max_cfg=small, max_loops=3)
    assert res.records[0].kind == "init"
    for prev, cur in zip(res.records, res.records[1:]):
        if cur.kind == "minimize-quantum-value":
            assert cur.beta_q <= prev.beta_q
            assert cur.beta_c == prev.beta_c
        else:
            assert cur.beta_c >= prev.beta_c
        assert cur.gap == cur.beta_q - cur.beta_c
    assert res.loops <= 3
    assert res.records[-1].gap == res.final_gap


def test_bounce_accepts_operator_start():
    ms = tetrahedron_axes_settings()
    tiny = OptimizerConfig(learning_rate=0.01, max_steps=40)
    res = bounce_loop(H_G_COEFFS, ms, SINGLET, min_cfg=tiny, max_cfg=tiny, max_loops=1)
    start = solve_alpha(ms, H_G_COEFFS)
    assert abs(res.records[0].beta_c - classical_bound(start)[0]) < 1e-12
    assert res.violation  # ideal data violates from the start


def test_bounce_budget_validation():
    with pytest.raises(ValueError):
        bounce_loop(
            gisin_variant(2.0),
            tetrahedron_axes_settings(),
            SINGLET,
            max_loops=0,
        )
    for bad in (np.nan, np.inf, -1e-6):  # a nan tolerance would never stop the loop
        with pytest.raises(ValueError, match="gap tolerance"):
            bounce_loop(
                gisin_variant(2.0), tetrahedron_axes_settings(), SINGLET, gap_tol=bad
            )


def test_bounce_rejects_bad_inputs():
    bc, c = gisin_variant(2.0), SINGLET
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):  # unphysical data
        bounce_loop(bc, tetrahedron_axes_settings(), np.array([-2.0, 0, 0, 0, -2.0, 0, 0, 0, -2.0]))
    with pytest.raises(ValueError, match="does not match"):
        bounce_loop(bc, _random_settings(np.random.default_rng(56), 3, 3), c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bounce_rejects_nonfinite_correlators_before_searching(monkeypatch, bad):
    # a nan passes a "max|c| > 1" test; the loop must refuse it before its first search
    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(optimize, "run_search", no_search)
    c = SINGLET.copy()
    c[0] = bad
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        bounce_loop(gisin_variant(2.0), tetrahedron_axes_settings(), c)


def test_adam_state_is_immutable():
    state = adam_init(np.zeros(2))
    assert isinstance(state, AdamState)
    with pytest.raises(AttributeError):
        state.step = 3
