"""The README's quick start runs and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np

from bellbounce.bell import gisin_variant
from bellbounce.pauli import min_eigenvalue

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block():
    # the first python block; the second is criterion 10's bounce loop
    block = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)[0]
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    assert ns["beta"] == -8.0
    assert abs(min_eigenvalue(ns["h_op"]) - (-16 / np.sqrt(3))) < 1e-12
    assert np.allclose(ns["alpha"].alpha, gisin_variant(2.0).alpha, atol=1e-12)
