"""The four benchmark workloads: generated inputs, CLI operations, checks.

A workload is a fixed list of operations, one ``bellbounce`` CLI invocation
each. A run repeats that list in whole rounds, so every round attempts the
same operations on the same inputs. The inputs depend only on the workload
seed; the program receives them as files or arguments.

Budgets (restarts x steps) are the smallest at which the paper windows of
every ``ham2ineq`` search hold at any seed with probability above 0.9999,
estimated from pools of 72-160 independent restarts per search (restart i of
seed s is seeded by (s, i), so restarts are independent draws). The README
lists the per-search figures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import checks, oracles

WORKLOADS = ("ham2ineq", "ineq2ham", "bounce", "bounds")

# (operator preset, m1) -> (restarts, steps) for the full benchmark.
HAM2INEQ_BUDGET = {
    ("H_G", 3): (16, 1000),
    ("gisin_elegant", 3): (24, 750),
    ("H_G", 4): (14, 2000),
    ("gisin_elegant", 4): (12, 750),
}
P_GRID = "0:0.014:0.001"
INEQ2HAM_STEPS = 500
BOUNCE_P = 0.010
BOUNCE_STEPS = 500
# Coefficient matrices on both sides of the enumerator's m2 <= m1 branch,
# growing to 2^17 enumerated strategies.
BOUND_SIZES = ((6, 5), (5, 6), (10, 9), (9, 10), (14, 13), (13, 14), (18, 17), (17, 18))
# Brick-wall honeycomb patches, rows x columns.
PATCH_SHAPES = ((12, 24), (24, 48), (48, 96))
IMPROVED = ("-7.39", "-6.56")

# Reduced budgets for the benchmark's own tests; paper windows do not apply.
TINY_HAM2INEQ = (2, 20)
TINY_STEPS = 20
TINY_BOUND_SIZES = ((4, 3), (3, 4))
TINY_PATCH_SHAPES = ((4, 6),)


@dataclass(frozen=True)
class Op:
    """One CLI invocation; check(out_dir, round_dir) returns its figures."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[Path, Path], dict]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # op name -> figures of its check  ->  reported quality figures
    summarize: Callable[[dict], dict]


def bundled_lattice(root: Path) -> Path:
    return root / "src" / "bellbounce" / "data" / "honeycomb73.lattice"


def honeycomb_patch(rows: int, cols: int, rng: np.random.Generator) -> str:
    """Brick-wall honeycomb with seeded couplings and shuffled vertex labels.

    Horizontal links alternate green/blue with weak couplings; vertical links
    at even r + c are red and strong, as in the bundled 73-vertex patch.
    """
    label = rng.permutation(rows * cols)
    lines = [f"vertices {rows * cols}"]
    for r in range(rows):
        for c in range(cols):
            u = label[r * cols + c]
            if c + 1 < cols:
                color = "green" if c % 2 == 0 else "blue"
                lines.append(f"{u} {label[r * cols + c + 1]} {rng.uniform(0.01, 0.06)!r} {color}")
            if r + 1 < rows and (r + c) % 2 == 0:
                lines.append(f"{u} {label[(r + 1) * cols + c]} {rng.uniform(1.5, 2.0)!r} red")
    return "\n".join(lines) + "\n"


def make_inputs(name: str, seed: int, inputs: Path, tiny: bool = False) -> dict:
    """Write the workload's input files; return what the checks need."""
    inputs.mkdir(parents=True, exist_ok=True)
    made: dict = {}
    if name != "bounds":
        return made
    rng = np.random.default_rng(seed)
    for m1, m2 in TINY_BOUND_SIZES if tiny else BOUND_SIZES:
        alpha = rng.normal(size=(m1, m2))
        path = inputs / f"alpha_{m1}x{m2}.json"
        path.write_text(json.dumps(alpha.tolist()))
        made[f"alpha_{m1}x{m2}"] = (path, alpha)
    for rows, cols in TINY_PATCH_SHAPES if tiny else PATCH_SHAPES:
        path = inputs / f"patch_{rows}x{cols}.lattice"
        path.write_text(honeycomb_patch(rows, cols, rng))
        made[f"patch_{rows}x{cols}"] = path
    path = inputs / "alpha_gisin2.json"
    path.write_text(json.dumps(oracles.gisin(2.0).tolist()))
    made["alpha_gisin2"] = path
    return made


def build(name: str, seed: int, root: Path, inputs: Path, tiny: bool = False) -> Workload:
    """Generate inputs and return the workload's operations."""
    made = make_inputs(name, seed, inputs, tiny)
    if name == "ham2ineq":
        return _ham2ineq(seed, tiny)
    if name == "ineq2ham":
        return _ineq2ham(seed, tiny)
    if name == "bounce":
        return _bounce(seed, tiny)
    if name == "bounds":
        return _bounds(root, made)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _ham2ineq(seed: int, tiny: bool) -> Workload:
    ops = []
    for (preset, m1), (restarts, steps) in HAM2INEQ_BUDGET.items():
        if tiny:
            restarts, steps = TINY_HAM2INEQ
        tag = f"{'hg' if preset == 'H_G' else 'elegant'}_{m1}x3"
        argv = ("ham2ineq", "--preset", preset, "--m1", str(m1), "--m2", "3",
                "--restarts", str(restarts), "--steps", str(steps), "--seed", str(seed))
        ops.append(Op(tag, argv, lambda out, _, p=preset: checks.check_ham2ineq(out, p, not tiny)))

    def summarize(fig: dict) -> dict:
        out = {f"margin_{k}": v["margin"] for k, v in fig.items()}
        out["detection_margin"] = float(np.mean([v["margin"] for v in fig.values()]))
        return out

    return Workload("ham2ineq", ops, summarize)


def _p_grid() -> np.ndarray:
    start, stop, step = (float(x) for x in P_GRID.split(":"))
    return start + step * np.arange(int(round((stop - start) / step)) + 1)


def _ineq2ham(seed: int, tiny: bool) -> Workload:
    steps = TINY_STEPS if tiny else INEQ2HAM_STEPS
    argv = ("ineq2ham", "--gisin-delta", "2", "--p-grid", P_GRID, "--restarts", "4",
            "--steps", str(steps), "--seed", str(seed))
    grid = _p_grid()
    op = Op("sweep", argv, lambda out, _: checks.check_ineq2ham(out, 2.0, grid, not tiny))

    def summarize(fig: dict) -> dict:
        f = fig["sweep"]
        return {"noise_tolerance_p": f["noise_tolerance_p"], "detection_margin": f["margin"]}

    return Workload("ineq2ham", [op], summarize)


def _bounce(seed: int, tiny: bool) -> Workload:
    steps = str(TINY_STEPS if tiny else BOUNCE_STEPS)
    c = oracles.correlators(oracles.noisy_singlet(BOUNCE_P))
    common = ("--p", repr(BOUNCE_P), "--steps", steps, "--seed", str(seed))
    start = oracles.gisin(2.0)
    ops = [
        Op("ineq", ("bounce", "--gisin-delta", "2", *common),
           lambda out, _: checks.check_bounce(out, c, start)),
        Op("op", ("bounce", "--preset", "H_G", *common),
           lambda out, _: checks.check_bounce(out, c, None)),
    ]

    def summarize(fig: dict) -> dict:
        out = {f"bounce_violation_{k}": v["violation"] for k, v in fig.items()}
        out["detection_margin"] = float(np.mean([v["violation"] for v in fig.values()]))
        return out

    return Workload("bounce", ops, summarize)


def _same_lattice_run(out: Path, round_dir: Path) -> dict:
    # Once `lattice --alpha-file` accepts a file, the Delta=2 file must give
    # the default run's bound, digest and floor.
    got = json.loads((out / "lattice_summary.json").read_text())
    want = json.loads((round_dir / "lattice_bundled" / "lattice_summary.json").read_text())
    for key in ("beta_lattice", "certificate_sha256", "quantum_floor"):
        if got[key] != want[key]:
            raise checks.CheckError(f"lattice --alpha-file {key} {got[key]!r} != default {want[key]!r}")
    return {}


def _bounds(root: Path, made: dict) -> Workload:
    ops = []
    for key, value in made.items():
        if key.startswith("alpha_") and key != "alpha_gisin2":
            path, alpha = value
            ops.append(Op(key.replace("alpha_", "cb_"), ("classical-bound", "--alpha-file", str(path)),
                          lambda out, _, a=alpha: checks.check_classical_bound(out, a)))
    local = oracles.gisin(2.0)
    bundled = bundled_lattice(root)
    ops.append(Op("lattice_bundled", ("lattice", "--improved-bound", *IMPROVED),
                  lambda out, _: checks.check_lattice(out, bundled.read_text(), local, IMPROVED)))
    for key, path in made.items():
        if key.startswith("patch_"):
            ops.append(Op(f"lattice_{key}", ("lattice", "--file", str(path)),
                          lambda out, _, p=path: checks.check_lattice(out, p.read_text(), local)))
    ops.append(Op("lattice_alpha_file", ("lattice", "--alpha-file", str(made["alpha_gisin2"])),
                  _same_lattice_run))

    def summarize(fig: dict) -> dict:
        margins = [v["margin"] for v in fig.values() if "margin" in v]
        return {"detection_margin": float(np.mean(margins))}

    return Workload("bounds", ops, summarize)
