"""Command-line front end.

Subcommands mirror the library's pipelines: exact classical bounds, the
Hamiltonian-to-inequality search, the inequality-to-settings search over
noisy data, the alternating bounce loop, and lattice-scale bounds. A config
file may hold one JSON object per subcommand, keyed by option name. Each value
is converted as the same flag's text would be (it must be a string or a
number, or a list of them for a multi-value option), a null means not given,
and explicit flags override it.

Exit status: 0 on success, 2 on validation errors, 3 on numerical failures.
All floating-point output goes through one fixed 12-digit format so repeated
runs with the same seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bell import (
    BellCoeffs,
    Scenario,
    bell_value,
    classical_bound,
    gisin_bound_closed_form,
    gisin_variant,
)
from .lattice import (
    bundled_lattice_path,
    improved_bound_scaling,
    lattice_classical_bound,
    lattice_quantum_floor,
    load_lattice,
    recouple_honeycomb,
)
from .mapping import (
    RANK_RCOND,
    RESIDUAL_RTOL,
    LinearSolveError,
    bell_operator,
    quantum_value_from_data,
    residual_norm,
    solve_alpha,
)
from .noise import PLACEMENT_AFTER_EACH_GATE, PLACEMENTS, prepare_noisy_singlets
from .optimize import (
    NoFeasiblePointError,
    OptimizerConfig,
    _check_bound_batch,
    bounce_loop,
    bound_objective,
    random_starts,
    run_search,
    sweep_minima,
)
from .pauli import correlator_vector
from .presets import OPERATOR_PRESETS, operator_preset, tetrahedron_axes_settings
from .serialize import format_float, write_csv, write_json, write_json_lines

__all__ = ["main"]

# Each grid point adds one state to the noisy-singlet circuit's stack and its
# starts' rows to the sweep's shared search; 10,000 points is far above the
# paper's 15-point grid and still a bounded run.
MAX_P_GRID_POINTS = 10_000

# Every option, declared once: its type and its argparse extras. A flag's text
# and a config value read as that same text both go through _convert.
_OPTIONS = {
    "seed": (int, {}),
    "out": (str, {"help": "output directory"}),
    "restarts": (int, {}),
    "steps": (int, {"help": "step budget: a start not improved by half of it stops"}),
    "lr": (float, {"help": "learning rate (default: each search direction's own); the bound "
                           "ascent's decays from it to 1%% over the step budget, the value "
                           "descent's is constant; in bounce it sets both half-steps' "
                           "starting rate"}),
    "noise_placement": (str, {"choices": PLACEMENTS}),
    "gisin_delta": (float, {}),
    "alpha": (str, {"help": "inline coefficients"}),
    "alpha_file": (str, {"help": "JSON coefficient matrix"}),
    "m1": (int, {}),
    "m2": (int, {}),
    "preset": (str, {"choices": OPERATOR_PRESETS}),
    "h": (str, {"help": "9 inline Pauli coefficients"}),
    "p_grid": (str, {"help": "start:stop:step"}),
    "data_file": (str, {"help": "JSON file of 9 correlators"}),
    "p": (float, {"help": "depolarizing strength"}),
    "max_loops": (int, {}),
    "gap_tol": (float, {}),
    "file": (str, {"help": "lattice file (default: bundled)"}),
    "epsilon": (float, {"help": "recouple colored edges"}),
    "improved_bound": (float, {"nargs": "*"}),
}

# Each subcommand's help and the options it takes, with their defaults
# (None: not given).
_COMMANDS = {
    "classical-bound": (
        "exact deterministic bound",
        {"gisin_delta": None, "alpha": None, "alpha_file": None, "m1": None, "m2": None,
         "out": None},
    ),
    "ham2ineq": (
        "operator to maximal-bound inequality",
        {"preset": None, "h": None, "m1": 3, "m2": 3, "restarts": 32, "steps": 10_000,
         "lr": None, "seed": 0, "out": "."},
    ),
    "ineq2ham": (
        "inequality to minimal quantum value",
        {"gisin_delta": None, "alpha_file": None, "p_grid": "0:0.014:0.001", "data_file": None,
         "noise_placement": PLACEMENT_AFTER_EACH_GATE, "restarts": 4, "steps": 2_000,
         "lr": None, "seed": 0, "out": "."},
    ),
    "bounce": (
        "alternate the two optimizations",
        {"gisin_delta": None, "alpha_file": None, "preset": None, "h": None, "p": 0.010,
         "data_file": None, "noise_placement": PLACEMENT_AFTER_EACH_GATE, "max_loops": 10,
         "gap_tol": 1e-6, "steps": 10_000, "lr": None, "seed": 0, "out": "."},
    ),
    "lattice": (
        "lattice-scale bounds",
        {"file": None, "epsilon": None, "gisin_delta": None, "alpha_file": None,
         "improved_bound": (), "out": None},
    ),
}


def _provenance(cfg: dict) -> dict:
    return {
        "version": __version__,
        "seed": cfg.get("seed"),
        "noise_placement": cfg.get("noise_placement"),
        "residual_rtol": RESIDUAL_RTOL,
        "rank_rcond": RANK_RCOND,
    }


def _parse_numbers(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.replace(",", " ").split()])


def _is_number_list(data) -> bool:
    # A JSON list whose entries are numbers (not booleans or strings) or such lists.
    return isinstance(data, list) and all(
        _is_number_list(v) if isinstance(v, list) else type(v) in (int, float) for v in data
    )


def _load_number_file(path, what: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
            if _is_number_list(data):
                return np.asarray(data, dtype=float)
        except (ValueError, OverflowError, RecursionError):
            pass  # not JSON, nested too deep, ragged, or an integer beyond float range
    raise ValueError(f"{what} {path} is not a rectangular JSON list of numbers")


def _load_correlator_file(path) -> np.ndarray:
    c = _load_number_file(path, "correlator data file")
    if c.shape != (9,):
        raise ValueError(f"correlator data file must hold 9 numbers, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("correlator data file entries must be finite")
    if np.max(np.abs(c)) > 1.0 + 1e-9:
        raise ValueError("correlator entries must lie in [-1, 1]")
    # A two-qubit state's correlation matrix has singular values s1 >= s2 >= s3
    # that, signed by its determinant, lie in the tetrahedron 1 -+ d1 -+ d2 -+ d3 >= 0
    # (an even number of signs flipped); its nearest face is s1 + s2 +- s3 <= 1.
    s = np.linalg.svd(c.reshape(3, 3), compute_uv=False)
    if s[0] + s[1] + np.copysign(s[2], np.linalg.det(c.reshape(3, 3))) > 1.0 + 1e-9:
        raise ValueError("no two-qubit state gives these correlators (outside the tetrahedron)")
    return c


def _resolve_alpha(cfg: dict, *, default_delta: float | None = None) -> BellCoeffs:
    given = [k for k in ("gisin_delta", "alpha", "alpha_file") if cfg.get(k) is not None]
    if len(given) > 1:
        raise ValueError(f"choose one coefficient source, got {given}")
    if cfg.get("gisin_delta") is not None:
        return gisin_variant(cfg["gisin_delta"])
    if cfg.get("alpha") is not None:
        flat = _parse_numbers(cfg["alpha"])
        m1, m2 = cfg.get("m1"), cfg.get("m2")
        if m1 is None or m2 is None:
            raise ValueError("inline alpha needs --m1 and --m2")
        if flat.size != m1 * m2:
            raise ValueError(f"alpha has {flat.size} entries, expected {m1 * m2}")
        return BellCoeffs(flat.reshape(m1, m2))
    if cfg.get("alpha_file") is not None:
        return BellCoeffs(_load_number_file(cfg["alpha_file"], "alpha file"))
    if default_delta is not None:
        return gisin_variant(default_delta)
    raise ValueError("no coefficients given: use --gisin-delta, --alpha, or --alpha-file")


def _resolve_h(cfg: dict) -> np.ndarray:
    if cfg.get("preset") is not None and cfg.get("h") is not None:
        raise ValueError("choose either --preset or --h, not both")
    if cfg.get("preset") is not None:
        return operator_preset(cfg["preset"])
    if cfg.get("h") is not None:
        h = _parse_numbers(cfg["h"])
        if h.shape != (9,):
            raise ValueError(f"h must have 9 entries, got {h.size}")
        if not np.all(np.isfinite(h)):
            raise ValueError("h entries must be finite")
        with np.errstate(over="ignore"):
            # squares that overflow are out of the search's range: Adam squares h-sized gradients
            if not np.isfinite(np.linalg.norm(h)):
                raise ValueError("h entries too large: the sum of their squares overflows")
        return h
    raise ValueError("no operator given: use --preset or --h")


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_summary(cfg: dict, command: str, fields: dict):
    write_json(
        _out_dir(cfg) / f"{command.replace('-', '_')}_summary.json",
        {"command": command, "provenance": _provenance(cfg), **fields},
    )


def _print_kv(key: str, value):
    if isinstance(value, float):
        value = format_float(value)
    print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classical_bound(cfg: dict):
    bc = _resolve_alpha(cfg)
    beta, witness = classical_bound(bc)
    _print_kv("classical bound", beta)
    _print_kv("witness a", witness.a.tolist())
    _print_kv("witness b", witness.b.tolist())
    fields = {"beta_c": beta, "witness_a": witness.a.tolist(), "witness_b": witness.b.tolist()}
    if cfg["gisin_delta"] is not None:
        closed = gisin_bound_closed_form(cfg["gisin_delta"])
        _print_kv("closed form", closed)
        _print_kv("difference", beta - closed)
        fields["closed_form"] = closed
        fields["difference"] = beta - closed
    if cfg["out"] is not None:
        _write_summary(cfg, "classical-bound", fields)


def _cmd_ham2ineq(cfg: dict):
    h = _resolve_h(cfg)
    scenario = Scenario(cfg["m1"], cfg["m2"])
    # NA^T alpha NB has rank at most min(m1, m2): below 3, the settings that represent a
    # nonzero H form an empty or measure-zero set, which no random start reaches
    if min(scenario.m1, scenario.m2) < 3 and h.any():
        raise ValueError("a nonzero operator needs at least 3 settings per party")
    opt_cfg = OptimizerConfig(cfg["lr"], cfg["steps"])
    objective = bound_objective(h, scenario)
    _check_bound_batch(cfg["restarts"], scenario.m1, scenario.m2)
    starts = random_starts(objective.dim, cfg["restarts"], cfg["seed"])
    best = run_search(objective, starts, opt_cfg)
    alpha = solve_alpha(best.settings, h).alpha
    resid = residual_norm(best.settings, alpha.ravel(), h)
    _print_kv("best classical bound", best.value)
    _print_kv("winning restart", best.best_index)
    curve = [(step, v) for step, v in enumerate(best.history.tolist()) if math.isfinite(v)]
    write_csv(_out_dir(cfg) / "ham2ineq_curve.csv", ("step", "value"), curve)
    _write_summary(cfg, "ham2ineq", {
        "h": h.tolist(),
        "scenario": [scenario.m1, scenario.m2],
        "restarts": cfg["restarts"],
        "steps": cfg["steps"],
        "best_beta_c": best.value,
        "winning_restart": best.best_index,
        "settings": best.settings.to_vector().tolist(),
        "alpha": alpha.tolist(),
        "residual": resid,
    })


def _parse_p_grid(text: str) -> np.ndarray:
    parts = [float(tok) for tok in text.split(":")]
    if len(parts) != 3:
        raise ValueError(f"p grid must be start:stop:step, got {text!r}")
    start, stop, step = parts
    if not np.all(np.isfinite(parts)):
        raise ValueError(f"p grid entries must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"bad p grid {text!r}")
    # clamped first: the quotient is inf for a tiny enough step; the tolerance keeps
    # a stop the steps reach up to rounding (14 steps for 0:0.014:0.001), and the
    # points are clamped to the stop, which such a last point may overshoot
    n = int(np.floor(min((stop - start) / step, MAX_P_GRID_POINTS) + 1e-9))
    if n + 1 > MAX_P_GRID_POINTS:
        raise ValueError(f"p grid {text!r} has more than {MAX_P_GRID_POINTS} points")
    return np.minimum(start + step * np.arange(n + 1), stop)


def _cmd_ineq2ham(cfg: dict):
    bc = _resolve_alpha(cfg, default_delta=2.0)
    if bc.alpha.shape != (4, 3):
        raise ValueError("settings optimization is wired for (4, 3) coefficient matrices")
    ms0 = tetrahedron_axes_settings()
    beta_c = classical_bound(bc)[0]
    opt_cfg = OptimizerConfig(cfg["lr"], cfg["steps"])
    theta0 = ms0.to_vector()
    # every point runs these starts; the canonical start is row 0, so it wins ties
    starts = np.vstack([theta0, random_starts(theta0.size, cfg["restarts"], cfg["seed"])])
    if cfg["data_file"] is not None:
        sources = [(None, _load_correlator_file(cfg["data_file"]))]
    else:
        ps = _parse_p_grid(cfg["p_grid"])
        cs = correlator_vector(prepare_noisy_singlets(ps, cfg["noise_placement"]))
        sources = list(zip(ps.tolist(), cs))
    minima = sweep_minima(bc, [c for _, c in sources], starts, opt_cfg)
    rows = []
    for (p, c), best in zip(sources, minima.tolist()):
        original = quantum_value_from_data(c, ms0, bc)
        rows.append((p, original, best, beta_c))
        label = "data" if p is None else f"p={format_float(p)}"
        print(
            f"{label} original {format_float(original)} "
            f"optimized {format_float(best)} beta_c {format_float(beta_c)}"
        )
    write_csv(_out_dir(cfg) / "ineq2ham_rows.csv", ("p", "original", "optimized", "beta_c"), rows)
    _write_summary(cfg, "ineq2ham", {
        "alpha": bc.alpha.tolist(),
        "beta_c": beta_c,
        "restarts": cfg["restarts"],
        "steps": cfg["steps"],
        "rows": [list(r) for r in rows],
    })


def _cmd_bounce(cfg: dict):
    ineq_given = any(cfg.get(k) is not None for k in ("gisin_delta", "alpha_file"))
    op_given = any(cfg.get(k) is not None for k in ("preset", "h"))
    if ineq_given and op_given:
        raise ValueError("start from an inequality or an operator, not both")
    ms0 = tetrahedron_axes_settings()
    if op_given:  # T has rank 9 at the tetrahedron axes, so every finite h solves there
        alpha = solve_alpha(ms0, _resolve_h(cfg))
    else:
        alpha = _resolve_alpha(cfg, default_delta=2.0)
    if cfg["data_file"] is not None:
        c = _load_correlator_file(cfg["data_file"])
    else:
        c = correlator_vector(prepare_noisy_singlets([cfg["p"]], cfg["noise_placement"]))[0]
    result = bounce_loop(
        alpha,
        ms0,
        c,
        cfg=OptimizerConfig(cfg["lr"], cfg["steps"]),
        gap_tol=cfg["gap_tol"],
        max_loops=cfg["max_loops"],
    )
    _print_kv("loops", result.loops)
    _print_kv("converged", result.converged)
    _print_kv("violation", result.violation)
    _print_kv("final gap", result.final_gap)
    write_json_lines(_out_dir(cfg) / "bounce_trajectory.jsonl", map(asdict, result.records))
    _write_summary(cfg, "bounce", {
        "loops": result.loops,
        "converged": result.converged,
        "violation": result.violation,
        "final_gap": result.final_gap,
        "final_beta_c": result.records[-1].beta_c,
        "final_beta_q": result.records[-1].beta_q,
        "alpha": result.alpha.alpha.tolist(),
        "settings": result.settings.to_vector().tolist(),
    })


def _cmd_lattice(cfg: dict):
    path = cfg["file"] if cfg["file"] is not None else bundled_lattice_path()
    ls = load_lattice(path)
    if cfg["epsilon"] is not None:
        ls = recouple_honeycomb(ls, cfg["epsilon"])
    local = _resolve_alpha(cfg, default_delta=2.0)
    if local.alpha.shape != (4, 3):
        raise ValueError("lattice quantum floor is wired for (4, 3) local coefficients")
    local_op = bell_operator(tetrahedron_axes_settings(), local)
    beta, certificate = lattice_classical_bound(ls, local)
    # the witness's own value: what classical_bound returns, without a second enumeration
    beta_local = bell_value(local, certificate.witness.correlators())
    floor = lattice_quantum_floor(ls, local_op)
    improved = [
        (new_local, improved_bound_scaling(beta, beta_local, new_local))
        for new_local in cfg["improved_bound"]
    ]
    digest = certificate.sha256()
    _print_kv("total coupling", ls.total_coupling())
    _print_kv("classical bound", beta)
    _print_kv("certificate sha256", digest)
    _print_kv("quantum floor", floor)
    for new_local, scaled in improved:
        _print_kv(f"improved bound (local {format_float(new_local)})", scaled)
    if cfg["out"] is not None:
        _write_summary(cfg, "lattice", {
            "vertices": ls.vertices,
            "edge_count": len(ls.coupling),
            "total_coupling": ls.total_coupling(),
            "beta_local": beta_local,
            "beta_lattice": beta,
            "certificate_sha256": digest,
            "quantum_floor": floor,
            "improved_bounds": [list(pair) for pair in improved],
        })


_HANDLERS = {
    "classical-bound": _cmd_classical_bound,
    "ham2ineq": _cmd_ham2ineq,
    "ineq2ham": _cmd_ineq2ham,
    "bounce": _cmd_bounce,
    "lattice": _cmd_lattice,
}


def _convert(key: str, value, where: str):
    # A flag's text, or a config value read as that text: a string or a number,
    # or a list of them for a multi-value option, without surrounding spaces.
    # Every float must be finite, and the seed non-negative.
    kind, extras = _OPTIONS[key]
    many = "nargs" in extras
    items = value if many and isinstance(value, list) else [value]
    if isinstance(value, list) != many or not all(
        isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items
    ):
        form = "a list of values" if many else "one string or number"
        raise ValueError(f"{where} takes {form}, got {value!r}")
    out = []
    for text in (str(v).strip() for v in items):
        try:
            v = kind(text)
        except ValueError:
            raise ValueError(f"{where}: invalid {kind.__name__} value {text!r}") from None
        if kind is float and not np.isfinite(v):
            raise ValueError(f"{where} must be finite, got {text!r}")
        if key == "seed" and v < 0:  # a seed sequence takes no negative entropy
            raise ValueError(f"{where} must be non-negative, got {text!r}")
        choices = extras.get("choices")
        if choices is not None and v not in choices:
            raise ValueError(f"{where} must be one of {choices}, got {text!r}")
        out.append(v)
    return out if many else out[0]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input like any other: one line, exit 2
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; parsing leaves it unchanged. No argparse types:
    # _merge_config converts flags and config values alike.
    parser = _Parser(
        prog="bellbounce",
        description="Bell inequality / Bell operator optimization toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file")
        for key in defaults:
            p.add_argument("--" + key.replace("_", "-"), **_OPTIONS[key][1])
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    defaults = _COMMANDS[args.command][1]
    cfg = dict(defaults)
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError):
                raise ValueError(f"config file {args.config} is not valid JSON") from None
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object keyed by subcommand")
        section = data.get(args.command, {})
        if not isinstance(section, dict):
            raise ValueError(f"config section {args.command!r} must be an object")
        unknown = sorted(set(section) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {unknown}")
        for key, value in section.items():
            if value is not None:
                cfg[key] = _convert(key, value, f"config key {key!r}")
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = _convert(key, value, "--" + key.replace("_", "-"))
    return cfg


def _is_numbers(text: str) -> bool:
    try:
        _parse_numbers(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    # argparse reads a token that starts with "-" and is not a plain decimal, such as
    # -inf, -1e-3 or -1,0,1, as an option; with a leading space it reads it as a value.
    argv = sys.argv[1:] if argv is None else argv
    argv = [" " + tok if tok.startswith("-") and _is_numbers(tok) else tok for tok in argv]
    # LinAlgError subclasses ValueError, so the numerical clause comes first.
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:
            flags = [tok.split("=")[0] for tok in extra if tok.startswith("--")]
            raise ValueError(f"{args.command} does not take {', '.join(flags or extra)}")
        cfg = _merge_config(args)
        _HANDLERS[args.command](cfg)
    except (LinearSolveError, np.linalg.LinAlgError, NoFeasiblePointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
