import numpy as np
import pytest

from bellbounce.serialize import (
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
