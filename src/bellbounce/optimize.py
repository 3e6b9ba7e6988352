"""Gradient-based search over measurement angles, plus the bounce loop.

Both search directions are an Objective run by one engine (run_search):
  maximize beta_C(solve(T(theta), h))   -- Hamiltonian fixed, Adam ascent
  minimize c . T(theta) . alpha         -- inequality fixed, Adam descent

One OptimizerConfig sets a search's step budget and learning rate; a rate of
None is the direction's own, 0.02 for the ascent and 0.01 for the descent. The
ascent's rate decays over the step budget T, from that rate to 1% of it: the
update after evaluation t uses lr (0.01 + 0.99 (1 + cos(pi t / T)) / 2) (cosine
annealing, Loshchilov & Hutter 2017). At a constant rate Adam stalls short of
the bound's local maximum, and where it stalls depends on the last bits of the
gradient. The descent's rate is constant. The bounce loop runs both directions
from one config.

Each objective returns values and gradients at the engine's points; the
engine keeps each row's best value and angles and takes Adam steps, written
into the angles and moments in place. The bound objective solves
NA^T alpha NB = H on the Kronecker factors of T with mapping's batch kernel,
and its gradient is analytic: the bound is a minimum over strategies, so the
winning strategy's correlators a* b*^T are its subgradient in alpha, chained
through the derivative of the factors' pseudo-inverses to the Bloch vectors.
A bound search returns angles only; its inequality is solve_alpha at the
winning settings, the same kernel on the same angles. The value objective is
linear in each Bloch vector, so its gradient is exact and analytic, one point
per restart per step, and by Euler's identity its value is
sum_a nA_a . d beta_Q/d nA_a: the gradient's party-A half scores the point. It
takes one correlator vector c for the whole batch. Both objectives chain their
gradient in the Bloch vectors to the angles in closed form (pauli._bloch_chain),
from the cosines and sines of the angles.

The noise sweep (sweep_minima) runs no engine: being linear in each Bloch
vector, beta_Q has a closed-form best response for each party while the other
is fixed, and mapping._block_descent alternates the two (see-saw). After each
sweep it turns all of a row's vectors by the joint rotation that is best in
closed form, so that its rows stop within tens of sweeps, not hundreds. It
needs no rate, and the sweep's several starts per point cover a start that
stops at a saddle, as the tetrahedron axes do at p = 0.010. A bounce half-step
has one start, so the bounce loop keeps the Adam descent.

The classical bound is only piecewise smooth, so correctness rests on
best-so-far tracking, not smooth convergence: the reported optimum is always
an exactly enumerated bound of a feasible coefficient vector. Angle parameters
are unconstrained; wrapping is unnecessary by periodicity. Points where
T(theta) . alpha = h has no solution within tolerance are scored -inf (ascent)
and get gradient 0, as does any non-finite gradient entry.

run_search runs all its starts in one lockstep batch: each engine step
evaluates every start's current point in one call, and a row's result does
not depend on the rest of the batch. Neither does a block-descent row's, nor
on the other rows' correlators: sweep_minima relies on that to run a whole
noise sweep, every point's starts with that point's C, as one batch, in chunks
or whole alike. random_starts draws start i of seed s from
a stream seeded by (s, i), so it does not depend on how many are drawn.

max_steps is a budget, not a count: a start that has not improved on its
step-0 value by step ceil(max_steps / 2) is abandoned with that value, and a
batch whose starts are all abandoned stops there. A batch with no finite
step-0 value (no feasible start) stops at step 0: each start has gradient 0
and zero moments, so none would move.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# perfbench times the engine's enumeration as optimize._enumerated_bounds
from .bell import BellCoeffs, Scenario, _check_batch_budget, _check_enumeration, _enumerated_bounds
from .mapping import (
    MeasurementSettings,
    _block_descent,
    _quantum_values,
    _residual_batch,
    _residual_gate,
    _residual_scale,
    _solve_min_norm_batch,  # noqa: F401  (the SVD fallback; perfbench times the solve by name)
    _solve_unique_batch,
    build_transfer_matrix,
    quantum_value_from_data,
    solve_alpha,
)
from .pauli import _bloch_batch, _bloch_chain

__all__ = [
    "OptimizerConfig",
    "Objective",
    "OptimizeResult",
    "BounceRecord",
    "BounceResult",
    "NoFeasiblePointError",
    "adam_step",
    "bound_objective",
    "value_objective",
    "random_starts",
    "run_search",
    "sweep_minima",
    "bounce_loop",
]


class NoFeasiblePointError(RuntimeError):
    """No angle configuration could represent the target coefficients."""


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# run_search keeps one best-so-far curve of steps + 1 floats, so a search takes at
# most 2^25 steps (256 MiB of curve), about 3,000x the paper's longest (10,000).
# random_starts draws at most 2^16 starts, 2,048x the paper's 32, and
# sweep_minima runs at most that many rows per chunk (about 3 KB of block-descent
# temporaries each), so the per-row arrays stay small.
MAX_STEPS = 2**25 - 1
MAX_RANDOM_STARTS = 2**16
# Adam's first step moves each angle by about the learning rate, and the angles are
# 2*pi-periodic, so a larger rate only jumps around the circle (or overflows).
MAX_LEARNING_RATE = 2 * np.pi


@dataclass(frozen=True)
class OptimizerConfig:
    """A search's learning rate (None: its direction's own) and step budget."""

    learning_rate: float | None = None
    max_steps: int = 10_000

    def __post_init__(self):
        lr = self.learning_rate
        if lr is not None and not (lr > 0 and np.isfinite(lr)):
            raise ValueError("learning rate must be positive and finite")
        if lr is not None and lr > MAX_LEARNING_RATE:
            raise ValueError(f"learning rate must be at most 2*pi, got {lr!r}")
        _check_steps(self.max_steps)


def _check_steps(max_steps: int):
    if max_steps < 1:
        raise ValueError("step budget must be positive")
    if max_steps > MAX_STEPS:
        raise ValueError(f"step budget must be at most {MAX_STEPS}, got {max_steps}")


def adam_step(theta, m, v, t: int, gradient, lr: float, maximize: bool = False):
    """Bias-corrected Adam update number t (from 1) at learning rate lr, written
    into theta and its moments m and v, which start at zero; sign of motion set
    by maximize."""
    g = np.asarray(gradient, dtype=float)
    # m = beta1 m + (1 - beta1) g and v = beta2 v + ((1 - beta2) g) g, in place
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    gg = (1.0 - ADAM_BETA2) * g
    gg *= g
    v *= ADAM_BETA2
    v += gg
    # delta = (lr m_hat) / (sqrt(v_hat) + epsilon), with m_hat = m / (1 - beta1^t) and
    # v_hat = v / (1 - beta2^t)
    delta = m / (1.0 - ADAM_BETA1**t)
    delta *= lr
    den = np.divide(v, 1.0 - ADAM_BETA2**t, out=gg)
    np.sqrt(den, out=den)
    den += ADAM_EPSILON
    delta /= den
    if maximize:
        theta += delta
    else:
        theta -= delta


@dataclass(frozen=True)
class OptimizeResult:
    """The winning row best_index's settings and value, every row's best value (n,)
    and angles (n, dim), and the steps the engine ran: max_steps,
    ceil(max_steps / 2) if no row improved on its start by then, or 0 if no start
    had a finite value. A bound search's inequality is solve_alpha(settings, h)."""

    settings: MeasurementSettings
    value: float
    history: np.ndarray  # the batch's best-so-far objective, indexed by step
    best_index: int
    values: np.ndarray
    thetas: np.ndarray
    steps_run: int


# ---------------------------------------------------------------------------
# batched objective evaluation


def _factor_gradients(na, nb, alpha, pa, pbt, hmat, g):
    # Gradients of <G, alpha> in NA and NB, where alpha = A+ H B+^T with A = NA^T,
    # B = NB^T (pa = A+, pbt = B+^T). From the derivative of the pseudo-inverse of a
    # full-row-rank factor (Golub & Pereyra 1973):
    #   d/dNA = -alpha G^T A+ + (I - A+ A) G B+ H^T (A+^T A+)
    #   d/dNB = -alpha^T G B+ + (I - B+ B) G^T A+ H (B+^T B+)
    # A projector term vanishes when its party has at most 3 settings. The
    # formula's third term, for a party with fewer than 3, vanishes at feasible points.
    pb, neg = pbt.swapaxes(-1, -2), -alpha
    ga = neg @ g.swapaxes(-1, -2) @ pa
    gb = neg.swapaxes(-1, -2) @ g @ pb
    m1, m2 = alpha.shape[1:]
    if m1 > 3:
        proj = _identity(m1) - pa @ na.swapaxes(-1, -2)
        ga += proj @ (g @ pb @ hmat.T) @ (pa.swapaxes(-1, -2) @ pa)
    if m2 > 3:
        proj = _identity(m2) - pb @ nb.swapaxes(-1, -2)
        gb += proj @ (g.swapaxes(-1, -2) @ pa @ hmat) @ (pbt @ pb)
    return ga, gb


@functools.lru_cache(maxsize=None)
def _identity(m: int) -> np.ndarray:
    # one read-only m x m identity per party size, built on first use
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def _check_bound_batch(n: int, m1: int, m2: int):
    # A bound-objective step over n rows enumerates n * m * 2^min(m1, m2) products and forms
    # n (m, m) gradient temporaries (alpha G^T), m = max(m1, m2): both within one budget.
    m = max(m1, m2)
    _check_enumeration(n, m1, m2)
    _check_batch_budget(n, m * m, "{} x {} gradient entries", m, m)


def _make_bound_objective(h: np.ndarray, m1: int, m2: int):
    hmat = h.reshape(3, 3)
    scale = _residual_scale(h)  # fixed with h, like the gate
    gate = _residual_gate(h, scale)

    checked = set()  # batch sizes that passed _check_bound_batch

    def objective(thetas: np.ndarray):
        n = thetas.shape[0]
        if n not in checked:
            _check_bound_batch(n, m1, m2)
            checked.add(n)
        bloch, trig = _bloch_batch(thetas.reshape(n, m1 + m2, 2), trig=True)
        na, nb = bloch[:, :m1], bloch[:, m1:]
        with np.errstate(all="ignore"):
            alpha, pa, pbt = _solve_unique_batch(na, nb, hmat)
            # the one feasibility rule, solve_alpha's too: a nan residual fails it
            feasible = _residual_batch(na, nb, alpha, hmat, scale) <= gate
            bounds, a, b = _enumerated_bounds(alpha)
            g = a[:, :, None] * b[:, None, :]
            # the bound's gradient in each Bloch vector, chained to that vector's angles
            ga, gb = _factor_gradients(na, nb, alpha, pa, pbt, hmat, g)
            grad = _bloch_chain(trig, np.concatenate([ga, gb], axis=1)).reshape(n, -1)
        # an infeasible point scores -inf; its gradient, and any non-finite entry, is 0
        finite = np.isfinite(grad)
        if not feasible.all():
            np.copyto(bounds, -np.inf, where=~feasible)
            finite &= feasible[:, None]
        if not finite.all():
            np.copyto(grad, 0.0, where=~finite)
        return bounds, grad

    return objective


def _make_qv_objective(alpha_mat: np.ndarray, c: np.ndarray, m1: int, m2: int):
    # d beta_Q/d nA_a = C sum_b alpha_ab nB_b and d beta_Q/d nB_b = C^T sum_a alpha_ab nA_a,
    # chained to each vector's angles by _bloch_chain's closed form. The value comes
    # from the first half: beta_Q is linear in each nA_a, so by Euler's identity it is
    # sum_a nA_a . d beta_Q/d nA_a, and _quantum_values returns that half with it.
    cmat = np.asarray(c, dtype=float).reshape(1, 3, 3)
    alpha_mat = np.asarray(alpha_mat, dtype=float)
    alpha_t = alpha_mat.T

    def objective(thetas: np.ndarray):
        n = thetas.shape[0]
        bloch, trig = _bloch_batch(thetas.reshape(n, m1 + m2, 2), trig=True)
        na, nb = bloch[:, :m1], bloch[:, m1:]
        values, ga = _quantum_values(na, nb, cmat, alpha_mat)
        g = np.concatenate([ga, alpha_t @ na @ cmat], axis=1)
        grad = _bloch_chain(trig, g).reshape(n, -1)
        finite = np.isfinite(grad)
        if not finite.all():
            np.copyto(grad, 0.0, where=~finite)
        return values, grad

    return objective


# ---------------------------------------------------------------------------
# lockstep engine


def _run_lockstep(objective: Objective, theta0: np.ndarray, cfg: OptimizerConfig):
    # An abandoned row (see run_search) is still evaluated while other rows run, but
    # its best is frozen, so its result does not depend on the batch.
    maximize = objective.maximize
    steps, half, lr = cfg.max_steps, (cfg.max_steps + 1) // 2, cfg.learning_rate
    if lr is None:  # the direction's own rate: the ascent's starts higher, then decays
        lr = 0.02 if maximize else 0.01
    pick = np.ndarray.argmax if maximize else np.ndarray.argmin
    theta, m, v = theta0.copy(), np.zeros_like(theta0), np.zeros_like(theta0)
    batch_best = -np.inf if maximize else np.inf
    best_value = np.full(theta0.shape[0], batch_best)
    best_theta = theta0.copy()
    live = None  # after step half: the rows not abandoned
    history = np.empty(steps + 1)
    for t in range(steps + 1):
        values, grad = objective.evaluate(theta)
        improved = (values > best_value) if maximize else (values < best_value)
        improved &= np.isfinite(values)
        if live is not None:
            improved &= live
        if improved.any():
            np.copyto(best_value, values, where=improved)
            np.copyto(best_theta, theta, where=improved[:, None])
            batch_best = best_value[pick(best_value)]
        history[t] = batch_best
        if t == steps:
            break
        if t == 0:
            if not np.isfinite(batch_best):  # no start scored: each has gradient 0 and stays
                history[1:] = batch_best
                break
            start_value = best_value.copy()
        elif t == half:
            # Improvements are strict, so a row's best moved iff it improved on step 0.
            stalled = best_value == start_value
            if stalled.all():
                history[t + 1 :] = batch_best
                break
            if stalled.any():
                live = ~stalled
        rate = lr
        if maximize:  # the ascent's rate decays over the budget (see the module docstring)
            rate *= 0.01 + 0.99 * (0.5 * (1.0 + math.cos(math.pi * t / steps)))
        adam_step(theta, m, v, t + 1, grad, rate, maximize=maximize)
    return best_value, best_theta, history, t


# ---------------------------------------------------------------------------
# public search operations


@dataclass(frozen=True)
class Objective:
    """One search direction for the engine.

    evaluate maps a batch of angle vectors (n, dim) to (values, gradient):
    values (n,), and gradient (n, dim), 0 where it is not finite or the point
    is infeasible.
    """

    scenario: Scenario
    maximize: bool
    evaluate: Callable

    @property
    def dim(self) -> int:
        return 2 * (self.scenario.m1 + self.scenario.m2)


def bound_objective(h, scenario: Scenario) -> Objective:
    """Ascent of the classical bound at fixed operator coefficients h.

    Every scored point solves T(theta) alpha = h within tolerance, with the
    kernel solve_alpha uses (3x3 inverses of the factors or their Gram
    matrices; an SVD for a singular or badly conditioned row, which every row
    is at fewer than 3 settings for a party), and its score is the exact
    enumerated bound of that alpha. The gradient is the analytic subgradient
    at the enumerated winning strategy.
    """
    h = np.asarray(h, dtype=float)
    return Objective(scenario, True, _make_bound_objective(h, scenario.m1, scenario.m2))


def value_objective(alpha: BellCoeffs, c) -> Objective:
    """Descent of c . T(theta) . alpha at fixed inequality coefficients.

    c is one correlator vector (9,) that every batch row uses. The gradient is
    the exact analytic derivative.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (9,):
        raise ValueError(f"correlators must have shape (9,), got {c.shape}")
    sc = alpha.scenario
    evaluate = _make_qv_objective(alpha.alpha, c, sc.m1, sc.m2)
    return Objective(sc, False, evaluate)


def random_starts(dim: int, n: int, seed: int) -> np.ndarray:
    """n random angle vectors (n, dim), row i drawn from a stream seeded by (seed, i).

    Polar angles are uniform on [0, pi], azimuths on [0, 2 pi).
    """
    if not 0 <= n <= MAX_RANDOM_STARTS:
        raise ValueError(f"restarts must be in [0, {MAX_RANDOM_STARTS}], got {n}")
    starts = np.empty((n, dim))
    for i in range(n):
        starts[i] = np.random.default_rng(np.random.SeedSequence((seed, i))).random(dim)
    starts[:, 0::2] *= np.pi
    starts[:, 1::2] *= 2.0 * np.pi
    return starts


def run_search(
    objective: Objective,
    theta0s: np.ndarray,
    cfg: OptimizerConfig | None = None,
) -> OptimizeResult:
    """Run the engine from every row of theta0s in one lockstep batch; keep the best.

    cfg.max_steps is a budget: a row that has not improved on its start's value
    by step ceil(max_steps / 2) keeps its start, and once every row has, the
    search stops (steps_run says where). A batch with no finite start value stops
    at step 0, after one evaluation. A row's result does not depend on the rest
    of the batch; ties go to the lowest row. history is the batch's best-so-far
    value at each step 0..max_steps, so it ends at value; after a stop it stays
    flat. Raises ValueError on an empty batch, and NoFeasiblePointError if a
    maximizing search finds no feasible point.
    """
    cfg = cfg or OptimizerConfig()
    sc = objective.scenario
    theta0s = np.asarray(theta0s, dtype=float)
    if theta0s.ndim != 2 or theta0s.shape[1] != objective.dim:
        raise ValueError(f"starts must have shape (n, {objective.dim}), got {theta0s.shape}")
    n = len(theta0s)
    if n == 0:
        raise ValueError("need at least one start")
    values, thetas, history, steps_run = _run_lockstep(objective, theta0s, cfg)
    i = int(np.argmax(values) if objective.maximize else np.argmin(values))
    if objective.maximize and not np.isfinite(values[i]):
        raise NoFeasiblePointError("no start found a feasible point")
    settings = MeasurementSettings.from_vector(sc.m1, sc.m2, thetas[i])
    return OptimizeResult(settings, float(values[i]), history, i, values, thetas, steps_run)


def sweep_minima(alpha: BellCoeffs, cs, starts: np.ndarray, max_steps: int) -> np.ndarray:
    """Lowest quantum value of alpha for each correlator vector in cs (p, 9).

    Every point runs every row of starts by block descent
    (mapping._block_descent), at most max_steps sweeps each. The points' starts
    are stacked into one batch, each row with its point's correlators, and a
    point's optimum is the least of its own rows' values: what the descent
    finds for that point alone. The sweep runs in chunks of consecutive points
    of at most MAX_RANDOM_STARTS rows, or of one point when its starts alone
    are more.
    """
    _check_steps(max_steps)
    dim = 2 * (alpha.scenario.m1 + alpha.scenario.m2)
    cs = np.asarray(cs, dtype=float)
    starts = np.asarray(starts, dtype=float)
    if cs.ndim != 2 or cs.shape[1] != 9:
        raise ValueError(f"correlators must have shape (p, 9), got {cs.shape}")
    if starts.ndim != 2 or starts.shape[1] != dim or len(starts) == 0:
        raise ValueError(f"starts must have shape (n, {dim}), n > 0, got {starts.shape}")
    k = len(starts)
    chunk = max(1, MAX_RANDOM_STARTS // k)
    minima = np.empty(len(cs))
    for i in range(0, len(cs), chunk):
        part = cs[i : i + chunk]
        cmats = np.repeat(part, k, axis=0).reshape(-1, 3, 3)
        values = _block_descent(alpha.alpha, cmats, np.tile(starts, (len(part), 1)), max_steps)[0]
        minima[i : i + len(part)] = values.reshape(len(part), k).min(axis=1)
    return minima


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
    converged: bool
    alpha: BellCoeffs
    settings: MeasurementSettings

    @property
    def loops(self) -> int:
        # each loop records one minimize and one maximize half-step after the init record
        return (len(self.records) - 1) // 2

    @property
    def final_gap(self) -> float:
        return self.records[-1].gap

    @property
    def violation(self) -> bool:
        return self.final_gap < 0


def bounce_loop(
    alpha: BellCoeffs,
    ms0: MeasurementSettings,
    c,
    *,
    cfg: OptimizerConfig | None = None,
    gap_tol: float = 1e-6,
    max_loops: int = 10,
) -> BounceResult:
    """Alternate value descent and bound ascent until the gap stops improving.

    Args:
        alpha: the starting inequality; the loop begins by minimizing the
            quantum value at it. An operator h starts from solve_alpha(ms0, h).
        ms0: initial measurement settings.
        c: measured Pauli correlator vector driving the quantum value.
        cfg: every half-step's search config; a learning rate of None gives
            each direction its own rate (see the module docstring).
        gap_tol: stop once a full loop improves the gap beta_Q - beta_C by
            at most this; must be finite and non-negative.
        max_loops: hard loop budget; must be positive.

    The recorded trajectory keeps the half-step contracts exact: a minimize
    half-step never raises beta_Q, and a maximize half-step keeps the current
    inequality and settings unless the search finds a strictly higher beta_C.
    Each half-step is a run_search with cfg, whose max_steps is a budget (see
    run_search). A bound ascent is not run when the last one kept alpha and the
    descent since returned its start settings: its inputs would be the last
    one's, so it would keep alpha again, and its record is written as if it ran.
    After a strictly higher bound, the inequality is solve_alpha's, from the
    ascent's h at its winning settings. Each recorded beta_Q is
    quantum_value_from_data at the current settings, and each bound ascent
    starts from h = T . alpha, with T built from the current settings by
    build_transfer_matrix. The result's loops, final_gap and violation are read
    from its records.

    Raises:
        ValueError: on a bad budget or tolerance, correlators outside [-1, 1]
            (nan or inf included), or settings that do not match the
            inequality's scenario; each before any search starts.
    """
    if max_loops < 1:
        raise ValueError("loop budget must be positive")
    if not (gap_tol >= 0 and np.isfinite(gap_tol)):
        raise ValueError("gap tolerance must be non-negative and finite")
    c = np.asarray(c, dtype=float)
    scenario = alpha.scenario

    ms = ms0
    _check_enumeration(1, scenario.m1, scenario.m2)  # _enumerated_bounds leaves it to its callers
    beta_c = float(_enumerated_bounds(alpha.alpha[None, :, :])[0][0])
    beta_q = quantum_value_from_data(c, ms, alpha)
    records = [BounceRecord(0, "init", beta_c, beta_q, beta_q - beta_c)]
    gap_prev = records[-1].gap
    converged = False
    kept = False  # the last bound ascent kept alpha and the settings it started from
    for _ in range(max_loops):
        theta = ms.to_vector()[None, :]
        res_min = run_search(value_objective(alpha, c), theta, cfg)
        ms = res_min.settings
        beta_q = res_min.value
        records.append(
            BounceRecord(len(records), "minimize-quantum-value", beta_c, beta_q, beta_q - beta_c)
        )

        # After a kept ascent, a descent that returns its start leaves this ascent the
        # last one's inputs (h, settings, config), so it would keep alpha again.
        if not (kept and np.array_equal(res_min.thetas[0], theta[0])):
            h_cur = build_transfer_matrix(ms) @ alpha.alpha.ravel()
            theta = ms.to_vector()[None, :]
            res_max = run_search(bound_objective(h_cur, scenario), theta, cfg)
            kept = res_max.value <= beta_c
            if not kept:
                ms, beta_c = res_max.settings, res_max.value
                alpha = solve_alpha(ms, h_cur)
        beta_q = quantum_value_from_data(c, ms, alpha)
        records.append(
            BounceRecord(len(records), "maximize-classical-bound", beta_c, beta_q, beta_q - beta_c)
        )

        gap = records[-1].gap
        if gap_prev - gap <= gap_tol:
            converged = True
            break
        gap_prev = gap
    return BounceResult(records=tuple(records), converged=converged, alpha=alpha, settings=ms)
