"""Gradient-based search over measurement angles, plus the bounce loop.

Both search directions are an Objective run by one engine (run_search):
  maximize beta_C(solve(T(theta), h))   -- Hamiltonian fixed, Adam ascent
  minimize c . T(theta) . alpha         -- inequality fixed, Adam descent

Each objective returns values, payloads and gradients at the engine's points;
the engine tracks the best and takes Adam steps. The bound objective solves
NA^T alpha NB = H on the Kronecker factors of T with mapping's batch kernels,
and its gradient is analytic: the bound is a minimum over strategies, so the
winning strategy's correlators a* b*^T are its subgradient in alpha, chained
through the derivative of the factors' pseudo-inverses to the angles. The
value objective is linear in each Bloch vector, so its gradient is the closed
form of a central difference at the configured step: sin(h)/h times the
analytic derivative, one point per restart per step.

The classical bound is only piecewise smooth, so correctness rests on
best-so-far tracking, not smooth convergence: the reported optimum is always
an exactly enumerated bound of a feasible coefficient vector. Angle parameters
are unconstrained; wrapping is unnecessary by periodicity. Points where
T(theta) . alpha = h has no solution within tolerance are scored -inf (ascent)
and get gradient 0, as does any non-finite gradient entry.

Restarts run in lockstep: each engine step evaluates all restarts' current
points in one batched call. Per-restart random streams are seeded from
(seed, restart_index), so results do not depend on how many restarts run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell import BellCoeffs, Scenario, _enumerate_side
from .mapping import (
    MeasurementSettings,
    _inverts_factors,
    _quantum_values,
    _residual_batch,
    _residual_gate,
    _solve_min_norm_batch,
    _solve_unique_batch,
    build_transfer_matrix,
    quantum_value_from_data,
    solve_alpha,
)
from .pauli import _bloch_batch

__all__ = [
    "OptimizerConfig",
    "FiniteDiffConfig",
    "AdamState",
    "Objective",
    "OptimizeResult",
    "RestartOutcome",
    "BounceRecord",
    "BounceResult",
    "NoFeasiblePointError",
    "finite_diff_gradient",
    "adam_init",
    "adam_step",
    "bound_objective",
    "value_objective",
    "run_search",
    "restart_harness",
    "bounce_loop",
    "DEFAULT_ASCENT",
    "DEFAULT_DESCENT",
    "DEFAULT_FD",
]


class NoFeasiblePointError(RuntimeError):
    """No angle configuration could represent the target coefficients."""


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float
    max_steps: int = 10_000

    def __post_init__(self):
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise ValueError("learning rate must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("step budget must be positive")


@dataclass(frozen=True)
class FiniteDiffConfig:
    step: float = 1e-4

    def __post_init__(self):
        if not (self.step > 0 and np.isfinite(self.step)):
            raise ValueError("finite-difference step must be positive and finite")


# Ascent on the classical bound / descent on the quantum value.
DEFAULT_ASCENT = OptimizerConfig(learning_rate=0.02)
DEFAULT_DESCENT = OptimizerConfig(learning_rate=0.01)
DEFAULT_FD = FiniteDiffConfig()


@dataclass(frozen=True)
class AdamState:
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_init(theta0) -> AdamState:
    theta0 = np.asarray(theta0, dtype=float)
    return AdamState(theta0.copy(), np.zeros_like(theta0), np.zeros_like(theta0))


def adam_step(
    state: AdamState, gradient, cfg: OptimizerConfig, maximize: bool = False
) -> AdamState:
    """One bias-corrected Adam update; sign of motion set by maximize."""
    g = np.asarray(gradient, dtype=float)
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    delta = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    theta = state.theta + delta if maximize else state.theta - delta
    return AdamState(theta, m, v, t)


def finite_diff_gradient(f, theta, cfg: FiniteDiffConfig = DEFAULT_FD) -> np.ndarray:
    """Central-difference gradient of a scalar objective over angles.

    Raises:
        ValueError: if the objective returns a non-finite value at any
            probe point.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for k in range(theta.size):
        probe = theta.copy()
        probe[k] = theta[k] + cfg.step
        up = float(f(probe))
        probe[k] = theta[k] - cfg.step
        down = float(f(probe))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"objective non-finite near coordinate {k}")
        grad[k] = (up - down) / (2.0 * cfg.step)
    return grad


@dataclass(frozen=True)
class OptimizeResult:
    settings: MeasurementSettings
    value: float
    alpha: BellCoeffs | None
    history: np.ndarray  # best-so-far objective, indexed by step


@dataclass(frozen=True)
class RestartOutcome:
    best: OptimizeResult
    runs: tuple[OptimizeResult, ...]
    best_index: int


# ---------------------------------------------------------------------------
# batched objective evaluation


def _enumerated_bounds(amats: np.ndarray):
    # Exact classical bounds of a batch of coefficient matrices (n, m1, m2), and a
    # winning strategy's correlators a* b*^T: the bound's gradient in alpha
    # wherever the winner is unique.
    patterns, products, values = _enumerate_side(amats)
    k = values.argmin(axis=1)
    idx = np.arange(len(amats))
    if amats.shape[2] <= amats.shape[1]:
        b = patterns[k]
        a = -np.sign(products[idx, :, k])
    else:
        a = patterns[k]
        b = -np.sign(products[idx, k, :])
    return values[idx, k], a[:, :, None] * b[:, None, :]


def _factor_gradients(na, nb, alpha, pa, pbt, hmat, g):
    # Gradients of <G, alpha> in NA and NB, where alpha = A+ H B+^T with A = NA^T,
    # B = NB^T (pa = A+, pbt = B+^T). From the derivative of the pseudo-inverse of a
    # full-row-rank factor (Golub & Pereyra 1973):
    #   d/dNA = -alpha G^T A+ + (I - A+ A) G B+ H^T (A+^T A+)
    #   d/dNB = -alpha^T G B+ + (I - B+ B) G^T A+ H (B+^T B+)
    # A projector term vanishes when its party has at most 3 settings. The
    # formula's third term, for a party with fewer than 3, vanishes at feasible points.
    pb = pbt.swapaxes(-1, -2)
    ga = -alpha @ g.swapaxes(-1, -2) @ pa
    gb = -alpha.swapaxes(-1, -2) @ g @ pb
    m1, m2 = alpha.shape[1:]
    if m1 > 3:
        proj = np.eye(m1) - pa @ na.swapaxes(-1, -2)
        ga += proj @ (g @ pb @ hmat.T) @ (pa.swapaxes(-1, -2) @ pa)
    if m2 > 3:
        proj = np.eye(m2) - pb @ nb.swapaxes(-1, -2)
        gb += proj @ (g.swapaxes(-1, -2) @ pa @ hmat) @ (pbt @ pb)
    return ga, gb


def _make_bound_objective(h: np.ndarray, m1: int, m2: int):
    hmat = h.reshape(3, 3)
    gate = _residual_gate(h)
    inverts = _inverts_factors(m1, m2)

    def objective(thetas: np.ndarray):
        n = thetas.shape[0]
        bloch, dbloch = _bloch_batch(thetas.reshape(n, m1 + m2, 2), derivatives=True)
        na, nb = bloch[:, :m1], bloch[:, m1:]
        with np.errstate(all="ignore"):
            if inverts:
                alpha, pa, pbt = _solve_unique_batch(na, nb, hmat)
            else:
                alpha, pa, pbt = _solve_min_norm_batch(na, nb, hmat)
            # a nan or inf alpha (singular 3x3 factor) fails the gate
            feasible = _residual_batch(na, nb, alpha, hmat) <= gate
            bounds, g = _enumerated_bounds(alpha)
            ga, gb = _factor_gradients(na, nb, alpha, pa, pbt, hmat, g)
            grad = (dbloch @ np.concatenate([ga, gb], axis=1)[..., None]).reshape(n, -1)
        grad[~(feasible[:, None] & np.isfinite(grad))] = 0.0
        return np.where(feasible, bounds, -np.inf), alpha.reshape(n, m1 * m2), grad

    return objective


def _make_qv_objective(alpha_mat: np.ndarray, c: np.ndarray, m1: int, m2: int, fd_step: float):
    # d beta_Q/d nA_a = C sum_b alpha_ab nB_b and d beta_Q/d nB_b = C^T sum_a alpha_ab nA_a;
    # chained to the angles and scaled by sin(h)/h, the central difference at step h.
    cmat = np.asarray(c, dtype=float).reshape(3, 3)
    alpha_mat = np.asarray(alpha_mat, dtype=float)
    scale = np.sin(fd_step) / fd_step

    def objective(thetas: np.ndarray):
        n = thetas.shape[0]
        bloch, dbloch = _bloch_batch(thetas.reshape(n, m1 + m2, 2), derivatives=True)
        # contiguous, as quantum_value_from_data's, so each row's value has the same bits
        na, nb = np.ascontiguousarray(bloch[:, :m1]), np.ascontiguousarray(bloch[:, m1:])
        g = np.concatenate([alpha_mat @ nb @ cmat.T, alpha_mat.T @ na @ cmat], axis=1)
        grad = scale * (dbloch @ g[..., None]).reshape(n, -1)
        grad[~np.isfinite(grad)] = 0.0
        return _quantum_values(na, nb, cmat, alpha_mat), None, grad

    return objective


# ---------------------------------------------------------------------------
# lockstep engine


def _run_lockstep(objective: Objective, theta0: np.ndarray, cfg: OptimizerConfig):
    maximize = objective.maximize
    n_runs = theta0.shape[0]
    steps = cfg.max_steps
    worst = -np.inf if maximize else np.inf
    state = adam_init(theta0)
    best_value = np.full(n_runs, worst)
    best_theta = theta0.copy()
    best_payload = None
    history = np.empty((n_runs, steps + 1))
    for t in range(steps + 1):
        values, payload, grad = objective.evaluate(state.theta)
        improved = (values > best_value) if maximize else (values < best_value)
        improved &= np.isfinite(values)
        if np.any(improved):
            best_value = np.where(improved, values, best_value)
            best_theta[improved] = state.theta[improved]
            if payload is not None:
                if best_payload is None:
                    best_payload = np.zeros((n_runs, payload.shape[-1]))
                best_payload[improved] = payload[improved]
        history[:, t] = best_value
        if t == steps:
            break
        state = adam_step(state, grad, cfg, maximize=maximize)
    return best_value, best_theta, best_payload, history


# ---------------------------------------------------------------------------
# public search operations


@dataclass(frozen=True)
class Objective:
    """One search direction for the engine.

    evaluate maps a batch of angle vectors (n, dim) to (values, payload,
    gradient): payload is the solved coefficient rows of a bound objective
    and None for a value objective; gradient (n, dim) is 0 where it is not
    finite or the point is infeasible. alpha is the inequality a value
    objective holds fixed.
    """

    scenario: Scenario
    maximize: bool
    evaluate: Callable
    alpha: BellCoeffs | None = None

    @property
    def dim(self) -> int:
        return 2 * (self.scenario.m1 + self.scenario.m2)


def bound_objective(h, scenario: Scenario) -> Objective:
    """Ascent of the classical bound at fixed operator coefficients h.

    Every scored point solves T(theta) alpha = h within tolerance, with the
    kernel solve_alpha uses for the scenario's shape (the factors' inverses at
    3x3, their SVDs otherwise), and its score is the exact enumerated bound of
    that alpha. The gradient is the analytic subgradient at the enumerated
    winning strategy.
    """
    h = np.asarray(h, dtype=float)
    return Objective(scenario, True, _make_bound_objective(h, scenario.m1, scenario.m2))


def value_objective(
    alpha: BellCoeffs, c, fd_cfg: FiniteDiffConfig = DEFAULT_FD
) -> Objective:
    """Descent of c . T(theta) . alpha at fixed inequality coefficients.

    Its gradient is the closed form of the central difference at fd_cfg's
    step h: sin(h)/h times the analytic derivative, since the value is linear
    in each Bloch vector.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (9,):
        raise ValueError(f"correlator vector must have shape (9,), got {c.shape}")
    sc = alpha.scenario
    evaluate = _make_qv_objective(alpha.alpha, c, sc.m1, sc.m2, fd_cfg.step)
    return Objective(sc, False, evaluate, alpha=alpha)


def run_search(
    objective: Objective,
    theta0s: np.ndarray,
    cfg: OptimizerConfig | None = None,
) -> list[OptimizeResult]:
    """Run the engine from each row of theta0s, one result per row."""
    cfg = cfg or (DEFAULT_ASCENT if objective.maximize else DEFAULT_DESCENT)
    sc = objective.scenario
    theta0s = np.asarray(theta0s, dtype=float)
    if theta0s.ndim != 2 or theta0s.shape[1] != objective.dim:
        raise ValueError(f"starts must have shape (n, {objective.dim}), got {theta0s.shape}")
    best_value, best_theta, best_payload, history = _run_lockstep(objective, theta0s, cfg)
    out = []
    for r in range(theta0s.shape[0]):
        alpha = objective.alpha
        if objective.maximize and np.isfinite(best_value[r]):
            alpha = BellCoeffs(sc, best_payload[r].reshape(sc.m1, sc.m2))
        out.append(
            OptimizeResult(
                settings=MeasurementSettings.from_vector(sc.m1, sc.m2, best_theta[r]),
                value=float(best_value[r]),
                alpha=alpha,
                history=history[r],
            )
        )
    return out


def restart_harness(
    objective: Objective,
    n_restarts: int,
    seed: int,
    cfg: OptimizerConfig | None = None,
) -> RestartOutcome:
    """Run the objective from deterministically seeded random inits; keep the best.

    Restart i draws its init from a stream seeded by (seed, i), so a single
    restart reproduces exactly the first member of a larger batch. Polar
    angles are uniform on [0, pi], azimuths on [0, 2 pi). Ties go to the
    lowest restart index.
    """
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    theta0s = np.stack(
        [
            np.random.default_rng(np.random.SeedSequence((seed, i))).random(objective.dim)
            for i in range(n_restarts)
        ]
    )
    theta0s[:, 0::2] *= np.pi
    theta0s[:, 1::2] *= 2.0 * np.pi
    runs = run_search(objective, theta0s, cfg)
    values = np.array([r.value for r in runs])
    best_index = int(np.argmax(values)) if objective.maximize else int(np.argmin(values))
    best = runs[best_index]
    if objective.maximize and not np.isfinite(best.value):
        raise NoFeasiblePointError("no restart found a feasible point")
    return RestartOutcome(best=best, runs=tuple(runs), best_index=best_index)


# ---------------------------------------------------------------------------
# bounce loop


@dataclass(frozen=True)
class BounceRecord:
    half_step: int
    kind: str
    beta_c: float
    beta_q: float
    gap: float


@dataclass(frozen=True)
class BounceResult:
    records: tuple[BounceRecord, ...]
    loops: int
    converged: bool
    violation: bool
    alpha: BellCoeffs
    settings: MeasurementSettings

    @property
    def final_gap(self) -> float:
        return self.records[-1].gap


def bounce_loop(
    start,
    ms0: MeasurementSettings,
    c,
    *,
    min_cfg: OptimizerConfig | None = None,
    max_cfg: OptimizerConfig | None = None,
    fd_cfg: FiniteDiffConfig = DEFAULT_FD,
    gap_tol: float = 1e-6,
    max_loops: int = 10,
) -> BounceResult:
    """Alternate value descent and bound ascent until the gap stops improving.

    Args:
        start: either BellCoeffs (loop begins by minimizing the quantum
            value at fixed inequality) or a 9-component operator coefficient
            vector (an inequality is first solved for at ms0 by solve_alpha).
        ms0: initial measurement settings.
        c: measured Pauli correlator vector driving the quantum value.
        fd_cfg: finite-difference step of the quantum-value descent.
        gap_tol: stop once a full loop improves the gap beta_Q - beta_C by
            less than this; must be finite and non-negative.
        max_loops: hard loop budget; must be positive.

    The recorded trajectory keeps the half-step contracts exact: a minimize
    half-step never raises beta_Q, and a maximize half-step keeps the current
    inequality and settings unless the search finds a strictly higher beta_C.
    Every solve, at the start and in each bound ascent, takes the kernel of
    the inequality's shape (see bound_objective).

    Raises:
        ValueError: on a bad budget or tolerance, correlators outside [-1, 1],
            or settings that do not match the inequality's scenario.
    """
    if max_loops < 1:
        raise ValueError("loop budget must be positive")
    if not (gap_tol >= 0 and np.isfinite(gap_tol)):
        raise ValueError("gap tolerance must be non-negative and finite")
    c = np.asarray(c, dtype=float)
    if isinstance(start, BellCoeffs):
        alpha = start
    else:
        alpha = solve_alpha(build_transfer_matrix(ms0), np.asarray(start, dtype=float))
    scenario = alpha.scenario

    ms = ms0
    beta_c = float(_enumerated_bounds(alpha.alpha[None, :, :])[0][0])
    beta_q = quantum_value_from_data(c, build_transfer_matrix(ms), alpha)
    records = [BounceRecord(0, "init", beta_c, beta_q, beta_q - beta_c)]
    gap_prev = records[-1].gap
    loops = 0
    converged = False
    for _ in range(max_loops):
        theta = ms.to_vector()[None, :]
        (res_min,) = run_search(value_objective(alpha, c, fd_cfg), theta, min_cfg)
        ms = res_min.settings
        beta_q = res_min.value
        records.append(
            BounceRecord(len(records), "minimize-quantum-value", beta_c, beta_q, beta_q - beta_c)
        )

        h_cur = build_transfer_matrix(ms).matrix @ alpha.alpha.ravel()
        (res_max,) = run_search(
            bound_objective(h_cur, scenario), ms.to_vector()[None, :], max_cfg
        )
        if res_max.value > beta_c:
            ms, alpha, beta_c = res_max.settings, res_max.alpha, res_max.value
        beta_q = quantum_value_from_data(c, build_transfer_matrix(ms), alpha)
        records.append(
            BounceRecord(len(records), "maximize-classical-bound", beta_c, beta_q, beta_q - beta_c)
        )

        loops += 1
        gap = records[-1].gap
        if gap_prev - gap < gap_tol:
            converged = True
            break
        gap_prev = gap
    return BounceResult(
        records=tuple(records),
        loops=loops,
        converged=converged,
        violation=records[-1].gap < 0,
        alpha=alpha,
        settings=ms,
    )
