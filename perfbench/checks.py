"""Checks of each subcommand's written outputs against the oracles.

Every check reads only the files a command wrote (and the inputs the
benchmark generated), recomputes the claims with :mod:`perfbench.oracles`,
and raises :class:`CheckError` on the first disagreement. Floats are written
at 12 significant digits, so recomputed values are compared with a relative
tolerance of 1e-9, far below any corruption worth catching and far above
the serialization error.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import oracles

RTOL = 1e-9
# Consistency gate of a solved system, as the package documents it:
# ||T alpha - h|| <= 1e-8 * max(1, ||h||).
RESIDUAL_RTOL = 1e-8

# Acceptance windows of the paper's best-of-restarts bounds, by
# (operator, m1); m2 is 3 throughout.
HAM2INEQ_WINDOWS = {
    ("H_G", 3): (-7.45, -7.30),
    ("H_G", 4): (-6.60, -6.45),
    ("gisin_elegant", 3): (-5.65, -5.50),
    ("gisin_elegant", 4): (-5.25, -5.08),
}
OPERATORS = {"H_G": oracles.H_G, "gisin_elegant": oracles.H_ELEGANT}


class CheckError(AssertionError):
    """An output disagrees with its independent recomputation."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def _close(got: float, want: float, what: str, rtol: float = RTOL):
    _require(
        abs(got - want) <= rtol * max(1.0, abs(want)),
        f"{what}: written {got!r}, recomputed {want!r}",
    )


def _json(path: Path):
    return json.loads(path.read_text())


def _csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def check_ham2ineq(out: Path, preset: str, windows: bool = True) -> dict:
    """Residual, exact bound, best-so-far curve and paper window of one search."""
    s = _json(out / "ham2ineq_summary.json")
    h = np.asarray(s["h"], dtype=float)
    _require(np.allclose(h, OPERATORS[preset], rtol=RTOL, atol=0), f"h is not the {preset} operator")
    m1, m2 = s["scenario"]
    alpha = np.asarray(s["alpha"], dtype=float)
    _require(alpha.shape == (m1, m2), f"alpha shape {alpha.shape} != {(m1, m2)}")
    na, nb = oracles.split_settings(s["settings"], m1, m2)
    resid = float(np.linalg.norm(oracles.transfer_matrix(na, nb) @ alpha.ravel() - h))
    gate = RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(h)))
    _require(resid <= gate, f"residual {resid!r} of written alpha exceeds {gate!r}")
    _require(s["residual"] <= gate, f"reported residual {s['residual']!r} exceeds {gate!r}")
    beta = float(s["best_beta_c"])
    _close(beta, oracles.classical_bound_bruteforce(alpha), "best_beta_c")
    header, rows = _csv(out / "ham2ineq_curve.csv")
    _require(header == ["step", "value"], f"curve header {header}")
    steps = [r[0] for r in rows]
    values = [r[1] for r in rows]
    _require(steps == sorted(set(steps)) and steps[-1] == s["steps"], "curve steps are not 0..steps")
    _require(all(b >= a for a, b in zip(values, values[1:])), "best-so-far curve decreases")
    _require(values[-1] == beta, f"curve ends at {values[-1]!r}, summary says {beta!r}")
    if windows:
        lo, hi = HAM2INEQ_WINDOWS[(preset, m1)]
        _require(lo <= beta <= hi, f"{preset} {m1}x{m2} bound {beta!r} outside [{lo}, {hi}]")
    return {"beta_c": beta, "margin": beta - oracles.min_eigenvalue(oracles.pauli_operator(h))}


def check_ineq2ham(out: Path, delta: float, p_grid: np.ndarray, windows: bool = True) -> dict:
    """Noise sweep: original column, bound, ordering, monotonicity, crossings."""
    s = _json(out / "ineq2ham_summary.json")
    alpha = oracles.gisin(delta)
    _require(np.array_equal(np.asarray(s["alpha"], dtype=float), alpha), "alpha is not the gisin matrix")
    beta_c = oracles.classical_bound(alpha)
    _close(float(s["beta_c"]), beta_c, "beta_c")
    header, rows = _csv(out / "ineq2ham_rows.csv")
    _require(header == ["p", "original", "optimized", "beta_c"], f"rows header {header}")
    table = np.asarray(rows)
    _require(table.shape == (len(p_grid), 4), f"expected {len(p_grid)} rows, got {table.shape[0]}")
    _require(np.allclose(table[:, 0], p_grid, rtol=0, atol=1e-15), "p column is not the grid")
    for p, original, optimized, row_beta in rows:
        c = oracles.correlators(oracles.noisy_singlet(p))
        want = oracles.quantum_value(c, oracles.TETRA_A, oracles.AXES_B, alpha)
        _close(original, want, f"original at p={p}")
        _close(row_beta, beta_c, f"beta_c at p={p}")
        _require(optimized <= original + 1e-9, f"optimized {optimized!r} above original at p={p}")
    original, optimized = table[:, 1], table[:, 2]
    _require(bool(np.all(np.diff(original) >= 0)), "original values fall as noise grows")
    _require(bool(np.all(np.diff(optimized) >= -1e-9)), "optimized values fall as noise grows")
    crossing = noise_crossing(p_grid, optimized, beta_c)
    if windows:
        for name, series, lo, hi in (("original", original, 0.006, 0.010), ("optimized", optimized, 0.010, 0.014)):
            i_lo, i_hi = (int(np.argmin(np.abs(p_grid - x))) for x in (lo, hi))
            _require(
                series[i_lo] < beta_c < series[i_hi],
                f"{name} value does not cross beta_C inside ({lo}, {hi})",
            )
    return {
        "noise_tolerance_p": crossing,
        "margin": float(np.mean(beta_c - optimized)),
    }


def noise_crossing(p_grid: np.ndarray, values: np.ndarray, level: float) -> float:
    """First p where the rising series reaches level, linearly interpolated."""
    above = np.flatnonzero(values >= level)
    _require(above.size > 0 and above[0] > 0, "series never crosses the classical bound")
    i = int(above[0])
    frac = (level - values[i - 1]) / (values[i] - values[i - 1])
    return float(p_grid[i - 1] + frac * (p_grid[i] - p_grid[i - 1]))


def check_bounce(out: Path, c: np.ndarray, start_alpha: np.ndarray | None) -> dict:
    """Half-step contracts, gap bookkeeping and re-derived final values."""
    recs = [json.loads(ln) for ln in (out / "bounce_trajectory.jsonl").read_text().splitlines()]
    s = _json(out / "bounce_summary.json")
    _require(recs[0]["kind"] == "init" and recs[0]["half_step"] == 0, "trajectory must open with init")
    for k, (prev, cur) in enumerate(zip(recs, recs[1:]), start=1):
        _require(cur["half_step"] == k, f"half step {cur['half_step']} out of order")
        if k % 2:
            _require(cur["kind"] == "minimize-quantum-value", f"half step {k} kind {cur['kind']}")
            _require(cur["beta_q"] <= prev["beta_q"], f"half step {k} raised beta_Q")
            _require(cur["beta_c"] == prev["beta_c"], f"half step {k} changed beta_C")
        else:
            _require(cur["kind"] == "maximize-classical-bound", f"half step {k} kind {cur['kind']}")
            _require(cur["beta_c"] >= prev["beta_c"], f"half step {k} lowered beta_C")
    for r in recs:
        _close(r["gap"], r["beta_q"] - r["beta_c"], f"gap at half step {r['half_step']}")
    if start_alpha is not None:
        _close(recs[0]["beta_c"], oracles.classical_bound(start_alpha), "initial beta_C")
        want = oracles.quantum_value(c, oracles.TETRA_A, oracles.AXES_B, start_alpha)
        _close(recs[0]["beta_q"], want, "initial beta_Q")
    last = recs[-1]
    _require(s["loops"] == (len(recs) - 1) // 2 and len(recs) % 2 == 1, "loop count does not match trajectory")
    for key in ("beta_c", "beta_q"):
        _require(s[f"final_{key}"] == last[key], f"summary final_{key} differs from last record")
    _require(s["final_gap"] == last["gap"], "summary final_gap differs from last record")
    alpha = np.asarray(s["alpha"], dtype=float)
    na, nb = oracles.split_settings(s["settings"], *alpha.shape)
    _close(last["beta_c"], oracles.classical_bound(alpha), "final beta_C from written alpha")
    _close(last["beta_q"], oracles.quantum_value(c, na, nb, alpha), "final beta_Q from written settings")
    _require(s["violation"] == (last["gap"] < 0), "violation flag disagrees with the gap")
    _require(last["gap"] < 0, f"no violation certified: final gap {last['gap']!r}")
    return {"violation": last["beta_c"] - last["beta_q"]}


def check_classical_bound(out: Path, alpha: np.ndarray) -> dict:
    """Bound equals an independent enumeration and the witness's own value."""
    s = _json(out / "classical_bound_summary.json")
    a, b = s["witness_a"], s["witness_b"]
    _require(len(a) == alpha.shape[0] and len(b) == alpha.shape[1], "witness has the wrong length")
    _require(all(x in (-1, 1) for x in a + b), "witness entries must be +-1")
    beta = float(s["beta_c"])
    _close(beta, oracles.strategy_value(alpha, a, b), "beta_c against the witness value")
    _close(beta, oracles.classical_bound(alpha), "beta_c against enumeration")
    return {"beta_c": beta}


def check_lattice(out: Path, lattice_text: str, local: np.ndarray, improved=()) -> dict:
    """Bound, floor, digest and edge-by-edge certificate of a lattice run."""
    s = _json(out / "lattice_summary.json")
    n, edges = oracles.parse_lattice(lattice_text)
    _require(s["vertices"] == n and s["edge_count"] == len(edges), "vertex or edge count differs")
    total = sum(j for _, _, j in edges)
    _close(s["total_coupling"], total, "total coupling")
    beta_local = oracles.classical_bound(local)
    _close(s["beta_local"], beta_local, "local bound")
    _close(s["beta_lattice"], total * beta_local, "lattice bound")
    lam = oracles.min_eigenvalue(oracles.bell_operator(oracles.TETRA_A, oracles.AXES_B, local))
    _close(s["quantum_floor"], total * lam, "quantum floor")
    side = oracles.two_coloring(n, edges)
    a, b = oracles.lexicographic_witness(local)
    _require(
        s["certificate_sha256"] == oracles.certificate_digest(side, a, b),
        "certificate digest does not reproduce",
    )
    _close(oracles.certificate_value(edges, side, local, a, b), s["beta_lattice"], "certificate value")
    pairs = s["improved_bounds"]
    _require([p[0] for p in pairs] == [float(x) for x in improved], "improved bounds do not match the request")
    for new_local, scaled in pairs:
        _close(scaled, s["beta_lattice"] * new_local / beta_local, f"improved bound at {new_local}")
    return {"beta_lattice": s["beta_lattice"], "margin": (s["beta_lattice"] - s["quantum_floor"]) / total}
