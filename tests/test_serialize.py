"""Byte-determinism of the JSON/CSV writers: every float written as its
shortest repr (reads back to the same double, as a float), sorted object
keys, LF endings."""

import json

import numpy as np
import pytest

from advreg.serialize import csv_text, format_cell, format_float, to_json, write_json


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(0)
    values = list(rng.normal(size=200)) + [1e-308, 1e308, 0.1, 1 / 3, np.pi]
    for v in values:
        assert float(format_float(v)) == float(v)


def test_floats_round_trip_bit_exact_as_floats():
    values = [-0.0, 1.0, 0.1, 1 / 3, 5e-324, 2.2250738585072014e-308, 1e308,
              -1e-300, np.float64(2.5)]
    from_json = json.loads(to_json({"v": values}))["v"]
    from_csv = [float(cell) for cell in csv_text(["v"], [[v] for v in values]).split()[1:]]
    for back in (from_json, from_csv):
        assert [type(v) for v in back] == [float] * len(values)
        assert [v.hex() for v in back] == [float(v).hex() for v in values]


def test_format_float_rejects_non_finite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            format_float(bad)
        with pytest.raises(ValueError):
            to_json({"v": [bad]})


def test_to_json_sorts_keys_recursively():
    text = to_json({"b": 1, "a": {"z": 2, "y": 3}})
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')


def test_to_json_output_is_valid_json():
    obj = {
        "name": "run",
        "values": [1, 2.5, None, True, False],
        "matrix": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "empty_list": [],
        "empty_map": {},
    }
    parsed = json.loads(to_json(obj))
    assert parsed["matrix"] == [[1.0, 2.0], [3.0, 4.0]]
    assert parsed["values"] == [1, 2.5, None, True, False]


def test_to_json_identical_across_calls():
    obj = {"x": list(np.random.default_rng(1).normal(size=50))}
    assert to_json(obj) == to_json(obj)


def test_to_json_int_vs_float_distinct():
    assert to_json({"v": 1}).strip().endswith("1\n}")
    assert "1.5" in to_json({"v": 1.5})


def test_to_json_rejects_non_string_keys():
    with pytest.raises(TypeError):
        to_json({1: "x"})
    with pytest.raises(TypeError):
        to_json({"a": [{2.5: "x"}]})
    with pytest.raises(TypeError):
        to_json({"a": {1, 2}})


def test_write_json_lf_only(tmp_path):
    p = tmp_path / "out.json"
    write_json(p, {"a": [1.0, 2.0]})
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_csv_text_layout():
    text = csv_text(["a", "b"], [[1, 2.5], ["x", 0.1]])
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,2.5"
    assert lines[2].startswith("x,")
    assert float(lines[2].split(",")[1]) == 0.1


def test_csv_text_float_table_matches_per_cell_rows():
    rng = np.random.default_rng(3)
    table = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-20, 20, size=(4, 3))
    table[0] = [-0.0, 1.0, 1e-300]
    table[1, 0] = 1e16
    per_cell = [[float(v) for v in row] for row in table]
    assert csv_text(["a", "b", "c"], table) == csv_text(["a", "b", "c"], per_cell)
    assert csv_text(["a", "b", "c"], table).splitlines()[1] == "-0.0,1.0,1e-300"


def test_csv_text_float_table_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        table = np.ones((3, 2))
        table[1, 1] = bad
        with pytest.raises(ValueError) as info:
            csv_text(["a", "b"], table)
        assert str(info.value) == f"refusing to serialize non-finite value {bad!r}"


def test_format_cell_rejects_bool():
    with pytest.raises(TypeError):
        format_cell(True)
