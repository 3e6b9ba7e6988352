import math
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
    NoFeasiblePointError,
    OptimizerConfig,
    adam_step,
    bounce_loop,
    bound_objective,
    random_starts,
    run_search,
    value_objective,
)
from bellbounce.noise import prepare_noisy_singlets
from bellbounce.pauli import correlator_vector
from bellbounce.presets import (
    ELEGANT_COEFFS,
    H_G_COEFFS,
    tetrahedron_axes_settings,
)
from finite_diff import finite_diff_gradient

SINGLET = correlator_vector(prepare_noisy_singlets([0.0])[0])
FAST = OptimizerConfig(learning_rate=0.02, max_steps=120)
FAST_DOWN = OptimizerConfig(learning_rate=0.01, max_steps=120)
GISIN_2 = gisin_variant(2.0)


def _random_settings(rng, m1, m2):
    vec = rng.random(2 * (m1 + m2))
    vec[0::2] *= np.pi
    vec[1::2] *= 2 * np.pi
    return MeasurementSettings.from_vector(m1, m2, vec)


def test_config_validation():
    # a learning rate of None is the search direction's own
    assert OptimizerConfig().learning_rate is None and OptimizerConfig().max_steps == 10_000
    assert OptimizerConfig(None, 5) == OptimizerConfig(max_steps=5)
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
    lr = 0.1
    theta, m_run, v_run = np.array([1.0, -2.0]), np.zeros(2), np.zeros(2)
    m = np.zeros(2)
    v = np.zeros(2)
    for t in range(1, 6):
        g = 2 * theta  # gradient of |theta|^2
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g**2
        expected = theta - lr * (m / (1 - 0.9**t)) / (
            np.sqrt(v / (1 - 0.999**t)) + 1e-8
        )
        assert adam_step(theta, m_run, v_run, t, g, lr) is None
        assert np.allclose(theta, expected, atol=1e-15)
        assert np.allclose(m_run, m, atol=1e-15) and np.allclose(v_run, v, atol=1e-15)


def test_adam_first_step_is_signed_learning_rate():
    g = np.array([4.0, -1.0, 0.0])
    down, up = np.zeros(3), np.zeros(3)
    adam_step(down, np.zeros(3), np.zeros(3), 1, g, 0.05)
    # bias correction makes the first move lr * sign(g) up to epsilon
    assert np.allclose(down, [-0.05, 0.05, 0.0], atol=1e-8)
    adam_step(up, np.zeros(3), np.zeros(3), 1, g, 0.05, maximize=True)
    assert np.allclose(up, [0.05, -0.05, 0.0], atol=1e-8)


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
        values, grad = objective.evaluate(theta[None])
        assert np.isfinite(values[0])  # generic settings are feasible
        alpha = solve_alpha(MeasurementSettings.from_vector(m1, 3, theta), h).alpha
        if not _kink_free(alpha, m1, 3):
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
    values, grad = objective.evaluate(theta[None])
    assert values[0] == -np.inf
    assert np.array_equal(grad, np.zeros((1, 8)))


def test_maximize_bound_consistency():
    rng = np.random.default_rng(52)
    for h, m1, m2 in ((H_G_COEFFS, 3, 3), (ELEGANT_COEFFS, 3, 3), (H_G_COEFFS, 3, 4)):
        start = _random_settings(rng, m1, m2).to_vector()[None, :]
        res = run_search(bound_objective(h, Scenario(m1, m2)), start, FAST)
        # the inequality solved at the reported settings reproduces h
        alpha = solve_alpha(res.settings, h).alpha
        t = build_transfer_matrix(res.settings)
        assert np.linalg.norm(t @ alpha.ravel() - h) <= 1e-8 * np.linalg.norm(h)
        # reported value is exactly the enumerated bound of that inequality
        assert bell._enumerated_bounds(alpha[None])[0][0] == res.value
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
        return next(calls).copy(), np.zeros_like(thetas)

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
        return thetas[:, 0].copy(), np.ones_like(thetas)

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


@pytest.mark.parametrize("steps", [7, 8])
def test_search_that_never_improves_stops_at_half_budget(steps):
    # the angles move every step, but no value beats step 0's
    calls = []

    def evaluate(thetas):
        calls.append(len(thetas))
        return np.full(len(thetas), 1.5), np.ones_like(thetas)

    objective = optimize.Objective(Scenario(2, 2), True, evaluate)
    starts = random_starts(objective.dim, 2, seed=0)
    res = run_search(objective, starts, OptimizerConfig(learning_rate=0.1, max_steps=steps))
    assert len(calls) == 4 + 1 and res.steps_run == 4  # ceil(steps / 2) = 4
    assert res.history.tolist() == [1.5] * (steps + 1)
    assert res.value == 1.5 and np.array_equal(res.thetas, starts)


def test_row_is_abandoned_only_if_not_improved_by_half_budget():
    # with 6 steps (half = 3), row 0 first improves at step 3 and runs on; row 1 first
    # improves at step 4, too late: its step-0 value and angles are its result
    table = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
    calls = iter(table)

    def evaluate(thetas):
        return next(calls).copy(), np.ones_like(thetas)

    objective = optimize.Objective(Scenario(2, 2), True, evaluate)
    starts = np.zeros((2, objective.dim))
    lr, steps = 0.1, 6
    cfg = OptimizerConfig(learning_rate=lr, max_steps=steps)
    res = run_search(objective, starts, cfg)
    assert res.values.tolist() == [2.0, 0.0] and res.steps_run == 6
    assert res.history.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0]
    assert np.array_equal(res.thetas[1], starts[1])
    # Under a constant gradient Adam's normalised step is the rate (up to its epsilon),
    # so the ascent's row 0 moves by the sum of its decaying rates...
    factors = [0.01 + 0.99 * (0.5 * (1.0 + math.cos(math.pi * t / steps))) for t in range(steps)]
    assert res.thetas[0] == pytest.approx(np.full(objective.dim, lr * sum(factors)), rel=1e-7)
    # ...and a descending row, whose value falls every step, by exactly lr per step
    descent = optimize.Objective(Scenario(2, 2), False, lambda th: (th[:, 0].copy(), np.ones_like(th)))
    res = run_search(descent, starts[:1], cfg)
    assert res.steps_run == steps
    assert res.thetas[0] == pytest.approx(np.full(descent.dim, -lr * steps), rel=1e-7)


def test_stalled_row_stacked_gets_its_result_alone():
    # row 0's value rises only once its first angle passes 1, at about step 10 of 16:
    # it is abandoned at step 8 alone, and stacked it keeps being evaluated past 1
    def evaluate(thetas):
        x = thetas[:, 0]
        return np.where(x >= 1.0, x, 0.0), np.ones_like(thetas)

    objective = optimize.Objective(Scenario(2, 2), True, evaluate)
    starts = np.zeros((2, objective.dim))
    starts[1, 0] = 2.0
    cfg = OptimizerConfig(learning_rate=0.1, max_steps=16)
    # the maximally mixed state's correlators (all 0) never move the value either
    cs = np.stack([np.zeros(9), SINGLET * 0.92])
    values = value_objective(GISIN_2, cs)
    cases = [
        (objective, starts, lambda i: objective, cfg),
        (values, random_starts(values.dim, 2, seed=4), lambda i: value_objective(GISIN_2, cs[i]), FAST_DOWN),
    ]
    for stacked_objective, rows, alone_objective, cfg in cases:
        stacked = run_search(stacked_objective, rows, cfg)
        assert stacked.steps_run == cfg.max_steps
        for i, row in enumerate(rows):
            solo = run_search(alone_objective(i), row[None, :], cfg)
            assert solo.steps_run == (cfg.max_steps // 2 if i == 0 else cfg.max_steps)
            assert solo.value == stacked.values[i]
            assert np.array_equal(solo.thetas[0], stacked.thetas[i])
        assert np.array_equal(stacked.thetas[0], rows[0])


def test_all_infeasible_bound_batch_stops_at_step_zero_and_raises():
    objective = bound_objective(
        np.array([1.0, 0.7, -0.3, 0.2, -1.0, 0.4, 0.9, -0.6, 0.5]), Scenario(2, 2)
    )
    calls = []

    def evaluate(thetas):
        calls.append(len(thetas))
        return objective.evaluate(thetas)

    counted = optimize.Objective(objective.scenario, True, evaluate)
    with pytest.raises(NoFeasiblePointError):
        run_search(
            counted,
            random_starts(objective.dim, 3, seed=0),
            OptimizerConfig(learning_rate=0.02, max_steps=41),
        )
    assert calls == [3]


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
    # starts of another width, or one start not stacked as a row, are refused
    for bad in (random_starts(objective.dim + 1, 2, seed=1), starts[0]):
        with pytest.raises(ValueError, match=rf"starts must have shape \(n, {objective.dim}\)"):
            run_search(objective, bad, cfg)


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
            assert np.array_equal(got[0], shared[0]) and np.array_equal(got[1], shared[1])
        # a row alone gets the bits it gets in the batch, with c shared or its own
        cs = rng.uniform(-1, 1, size=(3, 9))
        mixed = value_objective(bc, cs).evaluate(thetas)
        for i in range(3):
            for ci, batch in ((c, shared), (cs[i], mixed)):
                alone = value_objective(bc, ci).evaluate(thetas[i : i + 1])
                assert alone[0][0] == batch[0][i] and np.array_equal(alone[1][0], batch[1][i])
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
    values, grad = objective.evaluate(thetas)
    assert values.shape == (5,) and grad.shape == (5, objective.dim)



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
    res = bounce_loop(bc, ms, c, cfg=small, max_loops=3)
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


def _bounce_every_half_step(alpha, ms, c, cfg, max_loops=10, gap_tol=1e-6):
    # bounce_loop's records, with an optimize.run_search for every half-step
    beta_c = float(bell._enumerated_bounds(alpha.alpha[None])[0][0])
    records = [("init", beta_c, quantum_value_from_data(c, ms, alpha))]
    gap_prev = records[-1][2] - beta_c
    for _ in range(max_loops):
        res = optimize.run_search(value_objective(alpha, c), ms.to_vector()[None, :], cfg)
        ms = res.settings
        records.append(("minimize-quantum-value", beta_c, res.value))
        h = build_transfer_matrix(ms) @ alpha.alpha.ravel()
        res = optimize.run_search(bound_objective(h, alpha.scenario), ms.to_vector()[None, :], cfg)
        if res.value > beta_c:
            ms, alpha, beta_c = res.settings, solve_alpha(res.settings, h), res.value
        records.append(("maximize-classical-bound", beta_c, quantum_value_from_data(c, ms, alpha)))
        gap = records[-1][2] - beta_c
        if gap_prev - gap <= gap_tol:
            break
        gap_prev = gap
    return records


NOISY_SINGLET = correlator_vector(prepare_noisy_singlets([0.010])[0])


@pytest.mark.parametrize(
    "alpha, c, steps, skips",
    [
        (GISIN_2, NOISY_SINGLET, 100, 1),
        (solve_alpha(tetrahedron_axes_settings(), H_G_COEFFS), NOISY_SINGLET, 60, 1),
        (GISIN_2, np.zeros(9), 40, 0),
    ],
    ids=["gisin", "H_G", "mixed"],
)
def test_bounce_skips_a_repeated_bound_ascent_with_the_same_records(monkeypatch, alpha, c, steps, skips):
    # At p = 0.010 the last descent returns its start after an ascent that kept alpha,
    # so the ascent after it would repeat that one; the gisin loop also has ascents
    # that raise the bound. With maximally mixed data (all correlators 0) no descent
    # moves, and every ascent before the last raises the bound: none may be skipped.
    ms = tetrahedron_axes_settings()
    cfg = OptimizerConfig(learning_rate=0.01, max_steps=steps)
    search, calls = optimize.run_search, []

    def counted(*args):
        calls.append(args[0].maximize)
        return search(*args)

    monkeypatch.setattr(optimize, "run_search", counted)
    res = bounce_loop(alpha, ms, c, cfg=cfg)
    ran = len(calls)
    want = _bounce_every_half_step(alpha, ms, c, cfg)
    assert [(r.kind, r.beta_c, r.beta_q) for r in res.records] == want
    assert len(calls) - ran == len(want) - 1 and ran == len(want) - 1 - skips
    assert calls[ran - 1] == (skips == 0)  # after a skip, the last search run is a descent


def test_bounce_with_zero_gap_tolerance_stops_on_an_unchanged_gap():
    # from loop 8 at p = 0.010 a loop leaves the gap exactly as it was; gap_tol = 0
    # stops there, with the records the default tolerance gives
    ms = tetrahedron_axes_settings()
    cfg = OptimizerConfig(max_steps=100)
    exact = bounce_loop(GISIN_2, ms, NOISY_SINGLET, cfg=cfg, gap_tol=0.0)
    assert exact.converged and exact.loops == 8 and len(exact.records) == 17
    assert exact.records[-1].gap == exact.records[-3].gap
    assert exact.records == bounce_loop(GISIN_2, ms, NOISY_SINGLET, cfg=cfg).records


def test_bounce_end_gap_does_not_hang_on_the_last_bits_of_the_bound_gradient(monkeypatch):
    # The ascent's decaying rate lets it settle on the bound's local maximum; at a
    # constant rate it stalls short of it, at a point set by the gradient's last bits
    # (a 1e-12 scaling moved this gap by about 0.07).
    make = optimize._make_bound_objective
    cfg = OptimizerConfig(max_steps=2000)
    gaps = []
    for scale in (1.0, 1.0 + 1e-12, 1.0 - 1e-12):

        def scaled(*args, scale=scale):
            objective = make(*args)

            def evaluate(thetas):
                values, grad = objective(thetas)
                return values, grad * scale

            return evaluate

        monkeypatch.setattr(optimize, "_make_bound_objective", scaled)
        res = bounce_loop(GISIN_2, tetrahedron_axes_settings(), NOISY_SINGLET, cfg=cfg)
        assert res.converged
        gaps.append(res.final_gap)
    assert max(gaps) - min(gaps) < 1e-3


def test_bounce_accepts_operator_start():
    ms = tetrahedron_axes_settings()
    tiny = OptimizerConfig(learning_rate=0.01, max_steps=40)
    # an operator starts from its inequality at the start settings
    start = solve_alpha(ms, H_G_COEFFS)
    res = bounce_loop(start, ms, SINGLET, cfg=tiny, max_loops=1)
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
