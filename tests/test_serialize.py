import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbounce.serialize import (
    FLOAT_FORMAT,
    dumps_stable,
    format_float,
    write_csv,
    write_json,
    write_json_lines,
)


def test_format_float():
    assert format_float(0.1) == "0.1"
    assert format_float(-8.0) == "-8"
    assert format_float(1 / 3) == "0.333333333333"
    assert format_float(1e-30) == "1e-30"
    assert format_float(-0.0) == "0"
    with pytest.raises(ValueError):
        format_float(np.inf)
    with pytest.raises(ValueError):
        format_float(np.nan)


# '%.12g' keeps 12 significant digits, so a written float reads back within half
# a unit in its 12th digit: a relative 5e-12.
ROUND_TRIP_RTOL = 5e-12


def _assert_round_trips(x: float):
    back = float(format_float(x))
    assert abs(back - x) <= ROUND_TRIP_RTOL * abs(x)
    assert format_float(back) == format_float(x)  # a second pass is stable


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False))
def test_format_float_round_trip(x):
    _assert_round_trips(x)


def test_format_float_round_trip_near_exponent_switch():
    # '%g' switches to exponent notation below 1e-4 and from 1e12 on
    assert FLOAT_FORMAT == "%.12g"
    assert float(format_float(-0.0)) == 0.0
    for edge in (1e-4, 1e-5, 1e11, 1e12):
        for x in (edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf),
                  edge * (1 - 4e-13), edge * (1 + 4e-13), edge * (1 - 6e-13)):
            _assert_round_trips(x)
            _assert_round_trips(-x)
    assert format_float(999999999999.5) == "1e+12"
    assert format_float(0.0001) == "0.0001" and format_float(0.0000999999999999) == "9.99999999999e-05"


def test_dumps_stable():
    obj = {"a": 1, "b": [0.5, None, True], "c": "x\"y", "d": np.array([1.0, 2.0])}
    assert dumps_stable(obj) == '{"a": 1, "b": [0.5, null, true], "c": "x\\"y", "d": [1, 2]}'
    assert dumps_stable(np.float64(0.25)) == "0.25"
    assert dumps_stable(np.int64(7)) == "7"
    with pytest.raises(TypeError):
        dumps_stable({1: "non-string key"})
    with pytest.raises(TypeError):
        dumps_stable(object())


def test_write_json_roundtrip(tmp_path):
    import json

    path = tmp_path / "x.json"
    write_json(path, {"v": 1 / 3, "flag": False})
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"v": 0.333333333333, "flag": False}
    # identical input -> identical bytes
    write_json(tmp_path / "y.json", {"v": 1 / 3, "flag": False})
    assert (tmp_path / "y.json").read_bytes() == path.read_bytes()


def test_write_json_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_json_lines(path, ({"i": i} for i in range(3)))
    assert path.read_text() == '{"i": 0}\n{"i": 1}\n{"i": 2}\n'


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("step", "value", "note"), [(0, 0.5, "ok"), (1, -8.0, None)])
    assert path.read_text() == "step,value,note\n0,0.5,ok\n1,-8,\n"
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a",), [("has,comma",)])
