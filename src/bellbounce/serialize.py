"""Byte-stable result serialization.

The CLI promises byte-identical output for identical inputs, so floats are
rendered through one fixed format ('%.12g') instead of repr, and dict keys
are written in insertion order (summaries are built deterministically). A
written float reads back within a relative 5e-12 (12 significant digits).
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "dumps_stable", "write_json", "write_json_lines", "write_csv"]

FLOAT_FORMAT = "%.12g"


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        x = 0.0  # -0.0 renders as 0, not -0
    return FLOAT_FORMAT % x


def dumps_stable(obj) -> str:
    """Render a result object as deterministic JSON (no trailing newline)."""
    if isinstance(obj, np.ndarray):
        return dumps_stable(obj.tolist())
    if isinstance(obj, dict):
        parts = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {type(k).__name__}")
            parts.append(f"{json.dumps(k)}: {dumps_stable(v)}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_stable(v) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_stable(obj))
        fh.write("\n")


def write_json_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(dumps_stable(row))
            fh.write("\n")


def _cell(value) -> str:
    # a string is written as is, None as an empty cell, any other value as its stable
    # JSON scalar; a float or an int, most cells of every table, is formatted here
    # directly: the same text and refusal as dumps_stable's, and it needs no quoting
    kind = type(value)
    if kind is float:
        return format_float(value)
    if kind is int:
        return str(value)
    if value is None:
        return ""
    text = value if isinstance(value, str) else dumps_stable(value)
    if any(ch in text for ch in ',"\n'):
        raise ValueError(f"CSV cell needs quoting, refusing: {value!r}")
    return text


def write_csv(path, header, rows):
    """Plain comma-separated table; floats use the same fixed format."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in (header, *rows):
            fh.write(",".join(map(_cell, row)))
            fh.write("\n")
