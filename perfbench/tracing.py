"""Spans around the calls into each bellbounce layer, recorded from outside.

The tracer replaces module attributes with timing wrappers while a traced
round runs and restores them afterwards, so the package itself is never
edited. A layer is one module; its spans are:

- every public function the module defines, wrapped in every bellbounce
  module namespace that binds it (``classical_bound`` in bell, cli and
  lattice, for example);
- for ``optimize``, the private helpers the engine looks up at call time
  (ENGINE_HELPERS); the objective closures the two factories return are
  wrapped as ``optimize.objective``.

A helper that no longer exists is listed in ``missing`` and every metric
that depends on it is left out of the report rather than failing the run.
Spans are (function id, start, end, parent span, operation id, work) tuples
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import pkgutil
from time import perf_counter

import numpy as np

LAYERS = ("cli", "optimize", "mapping", "bell", "pauli", "noise", "lattice", "serialize")
ENGINE_HELPERS = (
    "_make_bound_objective",
    "_make_qv_objective",
    "_solve_unique_batch",
    "_solve_min_norm_batch",
    "_enumerated_bounds",
    "_run_lockstep",
    "adam_step",
)
OBJECTIVE = "optimize.objective"
WRITERS = ("serialize.write_json", "serialize.write_json_lines", "serialize.write_csv")


def _work_lockstep(args, kwargs, result):
    # Budgeted restarts x max steps: theta0 is (restarts, dim), cfg has max_steps.
    theta0 = kwargs.get("theta0", args[1] if len(args) > 1 else None)
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    return int(theta0.shape[0]) * int(cfg.max_steps)


def _work_strategies(args, kwargs, result):
    return 2 ** min(args[0].alpha.shape)


def _work_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _work_points(args, kwargs, result):
    return int(args[0].shape[0])


WORK = {
    "optimize._run_lockstep": _work_lockstep,
    "bell.classical_bound": _work_strategies,
    OBJECTIVE: _work_points,
    **{w: _work_bytes for w in WRITERS},
}


class Tracer:
    def __init__(self, package):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.op = -1
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self._plan(package)

    def _fid(self, key: str) -> int:
        if key not in self.names:
            self.names.append(key)
        return self.names.index(key)

    def _wrap(self, key: str, fn, returns=None):
        fid = self._fid(key)
        spans, stack, work = self.spans, self.stack, WORK.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.op, 0)
            if work is not None:
                spans[idx] = (fid, t0, t1, parent, self.op, work(args, kwargs, result))
            return returns(result) if returns is not None else result

        return wrapper

    def _plan(self, package):
        modules = {
            info.name: importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if not info.name.startswith("__")
        }
        for layer in LAYERS:
            mod = modules[layer]
            names = [
                n for n, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")
            ]
            if layer == "optimize":
                self.missing = [n for n in ENGINE_HELPERS if not hasattr(mod, n)]
                names += [n for n in ENGINE_HELPERS if hasattr(mod, n) and n not in names]
            for name in names:
                fn = getattr(mod, name)
                returns = None
                if name in ("_make_bound_objective", "_make_qv_objective"):
                    returns = functools.partial(self._wrap, OBJECTIVE)
                wrapper = self._wrap(f"{layer}.{name}", fn, returns)
                for other in modules.values():
                    for attr, obj in list(vars(other).items()):
                        if obj is fn:
                            self._patches.append((other, attr, fn, wrapper))

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path):
        """Write every span as CSV: span,name,start_s,end_s,parent,op,work."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,op,work\n")
            for i, (fid, t0, t1, parent, op, work) in enumerate(self.spans):
                fh.write(f"{i},{self.names[fid]},{t0!r},{t1!r},{parent},{op},{work}\n")

    def layer_metrics(self, start: int, stop: int, run_s: float) -> dict:
        """Per-layer metrics of the spans recorded in [start, stop)."""
        rows = self.spans[start:stop]
        fid = np.array([r[0] for r in rows], dtype=np.int64)
        dur = np.array([r[2] - r[1] for r in rows])
        parent = np.array([r[3] for r in rows], dtype=np.int64) - start
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(rows))
        n = len(self.names)
        per_fn = {
            "calls": np.bincount(fid, minlength=n),
            "incl": np.bincount(fid, weights=dur, minlength=n),
            "self": np.bincount(fid, weights=self_t, minlength=n),
            "work": np.bincount(fid, weights=[r[5] for r in rows], minlength=n),
        }

        def get(kind, *keys):
            return float(sum(per_fn[kind][self.names.index(k)] for k in keys if k in self.names))

        def calls(key):
            return get("calls", key)

        def incl(*keys):
            return get("incl", *keys)

        def selft(key):
            return get("self", key)

        def total(key):
            return get("work", key)

        def ratio(a, b):
            return a / b if b else 0.0

        def per_call_us(key):
            return 1e6 * ratio(incl(key), calls(key))

        m = {}
        lock = "optimize._run_lockstep"
        m["optimize.restart_steps"] = total(lock)
        m["optimize.restart_steps_per_s"] = ratio(total(lock), incl(lock))
        m["optimize.objective_points"] = total(OBJECTIVE)
        m["optimize.points_per_call"] = ratio(total(OBJECTIVE), calls(OBJECTIVE))
        m["optimize.objective_s"] = incl(OBJECTIVE)
        m["optimize.solve_s"] = incl("optimize._solve_unique_batch", "optimize._solve_min_norm_batch")
        m["optimize.enumerate_s"] = incl("optimize._enumerated_bounds")
        m["optimize.adam_step_us"] = per_call_us("optimize.adam_step")
        m["optimize.engine_other_s"] = selft(lock)
        m["bell.classical_bound_us"] = per_call_us("bell.classical_bound")
        m["bell.strategies"] = total("bell.classical_bound")
        m["bell.strategies_per_s"] = ratio(total("bell.classical_bound"), incl("bell.classical_bound"))
        m["mapping.solve_alpha_us"] = per_call_us("mapping.solve_alpha")
        m["mapping.build_transfer_matrix_us"] = per_call_us("mapping.build_transfer_matrix")
        m["pauli.min_eigenvalue_calls"] = calls("pauli.min_eigenvalue")
        m["pauli.min_eigenvalue_us"] = per_call_us("pauli.min_eigenvalue")
        m["noise.prepare_noisy_singlet_us"] = per_call_us("noise.prepare_noisy_singlet")
        for name in ("load_lattice", "check_bipartite", "lattice_classical_bound"):
            m[f"lattice.{name}_us"] = per_call_us(f"lattice.{name}")
        m["serialize.write_s"] = incl(*WRITERS)
        m["serialize.bytes_written"] = float(sum(total(w) for w in WRITERS))
        for layer in LAYERS:
            m[f"{layer}.self_s"] = get("self", *(k for k in self.names if k.startswith(f"{layer}.")))
        m["trace.run_s"] = run_s
        m["trace.self_share"] = ratio(float(self_t.sum()), run_s)
        m["trace.spans"] = len(rows)
        return m

    def absent(self) -> set[str]:
        """Metric names that depend on an engine helper that no longer exists."""
        needs = {
            "_run_lockstep": ("optimize.restart_steps", "optimize.restart_steps_per_s", "optimize.engine_other_s"),
            "_make_bound_objective": ("optimize.objective_points", "optimize.points_per_call", "optimize.objective_s"),
            "_make_qv_objective": ("optimize.objective_points", "optimize.points_per_call", "optimize.objective_s"),
            "_solve_unique_batch": ("optimize.solve_s",),
            "_solve_min_norm_batch": ("optimize.solve_s",),
            "_enumerated_bounds": ("optimize.enumerate_s",),
            "adam_step": ("optimize.adam_step_us",),
        }
        return {metric for name in self.missing for metric in needs[name]}
