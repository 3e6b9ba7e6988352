"""The README's quick start runs and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np

from bellbounce import optimize
from bellbounce.bell import gisin_variant
from bellbounce.optimize import OptimizerConfig
from bellbounce.pauli import min_eigenvalue

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)


def test_quick_start_block():
    ns: dict = {}
    exec(compile(_python_blocks()[0], str(README), "exec"), ns)
    assert ns["beta"] == -8.0
    assert abs(min_eigenvalue(ns["h_op"]) - (-16 / np.sqrt(3))) < 1e-12
    assert np.allclose(ns["alpha"].alpha, gisin_variant(2.0).alpha, atol=1e-12)


def test_bounce_block(monkeypatch):
    # the second block, criterion 10's bounce loop, in the first block's namespace and
    # at 50 steps a half-step instead of the default budgets
    loop = optimize.bounce_loop

    def small(*args, **kwargs):
        return loop(*args, cfg=OptimizerConfig(max_steps=50), **kwargs)

    monkeypatch.setattr(optimize, "bounce_loop", small)
    ns: dict = {}
    for block in _python_blocks()[:2]:
        exec(compile(block, str(README), "exec"), ns)
    assert ns["res"].violation and ns["res"].final_gap < 0
