"""Deterministic JSON/CSV writers.

Every run artifact must be byte-identical across reruns. JSON goes through
`json.dumps` with sorted keys and a two-space indent. Every float, in a
JSON number or a CSV cell, is written as `repr(float(x))`: the shortest
text that reads back to the same double, the same on every platform. So
`1.0` stays a float and `-0.0` keeps its sign on reload. A non-finite
float raises ValueError; a value of any other unknown type, or a dict key
that is not a str, raises TypeError.
"""

import json
import math

import numpy as np


def format_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return repr(x)


def _plain(obj):
    """obj with numpy arrays and scalars turned into Python values."""
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key)}")
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def to_json(obj):
    return json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj):
    text = to_json(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return text


def format_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans do not belong in CSV output")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def csv_text(header, rows):
    """A header line, then one LF-terminated line per row.

    `rows` is a float64 array, checked for non-finite values once and
    written a row at a time with `repr`, or rows of cells for format_cell.
    Both give the same text for the same floats.
    """
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        bad = ~np.isfinite(rows)
        if bad.any():
            format_float(rows[bad][0])  # raises on the first, in row-major order
        lines.extend(",".join(map(repr, row.tolist())) for row in rows)
    else:
        lines.extend(",".join(map(format_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows):
    text = csv_text(header, rows)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return text
