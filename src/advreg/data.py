"""CSV loading (by numpy's C reader where it provably parses as the csv
module and `float` do, row by row; see `load_csv`), splitting,
standardization, and attack-target vectors.

Conventions baked in here and recorded in run metadata:

* label statistics use the population convention (divisor m);
* features are standardized with training-set statistics, labels never are;
* zero-variance columns pass through standardization unchanged.
"""

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionMismatch,
    EmptyFile,
    MaskOutOfRange,
    MissingLabelColumn,
    ParseError,
    TooFewRows,
)


@dataclass(eq=False)
class Dataset:
    """A design matrix with its label vector and column names."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    label_name: str = "label"

    def __post_init__(self):
        # row-major copies: column reductions round by memory layout
        self.X = np.ascontiguousarray(np.atleast_2d(np.asarray(self.X, dtype=float)))
        self.y = np.ascontiguousarray(self.y, dtype=float)
        if self.y.ndim != 1 or self.y.shape[0] != self.X.shape[0]:
            raise DimensionMismatch(
                f"y has shape {self.y.shape}, X has {self.X.shape[0]} rows"
            )
        if self.X.shape[0] < 2:
            raise TooFewRows(f"need at least 2 rows, got {self.X.shape[0]}")
        if not self.feature_names:
            self.feature_names = [f"f{j+1:02d}" for j in range(self.X.shape[1])]
        if len(self.feature_names) != self.X.shape[1]:
            raise DimensionMismatch("feature_names do not match X columns")

    @property
    def m(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


def concat_datasets(a, b):
    if a.d != b.d:
        raise DimensionMismatch(f"feature counts differ: {a.d} vs {b.d}")
    return Dataset(
        X=np.vstack([a.X, b.X]),
        y=np.concatenate([a.y, b.y]),
        feature_names=list(a.feature_names),
        label_name=a.label_name,
    )


@dataclass(eq=False)
class TargetSpec:
    """Attack target built from labels: z = y + delta_scale * sigma, clipped.

    `mask` limits the shift to the given row indices (all rows when None);
    clip bounds, when present, apply to the finished vector. Every number
    given must be finite.
    """

    delta_scale: float = 0.0
    mask: list[int] | None = None
    clip_min: float | None = None
    clip_max: float | None = None

    def __post_init__(self):
        for name in ("delta_scale", "clip_min", "clip_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def as_dict(self):
        return {
            "kind": "offset",
            "delta_scale": float(self.delta_scale),
            "mask": None if self.mask is None else list(self.mask),
            "clip_min": self.clip_min,
            "clip_max": self.clip_max,
        }


@dataclass(eq=False)
class ConstantTarget:
    """Attack target independent of labels: z = value on masked rows, 0 off.

    Exactly one of `value` / `value_range` must be set, with finite
    numbers and a range's low end at most its high end; a range means the
    scenario harness draws the value uniformly per run (seeded).
    """

    value: float | None = None
    value_range: tuple[float, float] | None = None
    mask: list[int] | None = None

    def __post_init__(self):
        if (self.value is None) == (self.value_range is None):
            raise ValueError("set exactly one of value / value_range")
        if self.value is not None and not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")
        if self.value_range is not None and not all(map(math.isfinite, self.value_range)):
            raise ValueError(f"value_range must be finite, got {self.value_range}")
        if self.value_range is not None and self.value_range[0] > self.value_range[1]:
            raise ValueError(f"value_range must be [low, high] with low <= high, "
                             f"got {list(self.value_range)}")

    def as_dict(self):
        return {
            "kind": "constant",
            "value": self.value,
            "value_range": None if self.value_range is None else list(self.value_range),
            "mask": None if self.mask is None else list(self.mask),
        }


def _checked_mask(mask, m):
    # checked before the conversion, which overflows on an index past a C long
    if not all(0 <= i < m for i in mask):
        raise MaskOutOfRange(f"mask indices must lie in [0, {m})")
    return np.asarray(mask, dtype=int)


def build_target(y, spec, sigma=1.0):
    """Materialize an attack-target vector for the given labels."""
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    if isinstance(spec, ConstantTarget):
        if spec.value is None:
            raise ValueError("ConstantTarget value_range must be resolved to a value first")
        z = np.zeros(m)
        if spec.mask is None:
            z[:] = spec.value
        else:
            z[_checked_mask(spec.mask, m)] = spec.value
        return z
    z = y.copy()
    shift = spec.delta_scale * float(sigma)
    if spec.mask is None:
        z += shift
    else:
        idx = _checked_mask(spec.mask, m)
        z[idx] = y[idx] + shift
    lo = -np.inf if spec.clip_min is None else spec.clip_min
    hi = np.inf if spec.clip_max is None else spec.clip_max
    if spec.clip_min is not None or spec.clip_max is not None:
        z = np.clip(z, lo, hi)
    return z


def label_stats(y):
    """Population mean and standard deviation (divisor m) of the labels."""
    y = np.asarray(y, dtype=float)
    mu = float(np.mean(y))
    sigma = float(np.sqrt(np.mean((y - mu) ** 2)))
    return mu, sigma


def load_csv(path, label):
    """Read a numeric CSV with one header row into a Dataset.

    `label` picks the label column by header name (str) or 0-based index
    (int). Each row is parsed whole: `float` of every `str.strip()`-ped
    cell (`float` alone keeps U+001C..U+001F), and all must be finite. The
    first violation in row-major order (a row's cell count, then its cells
    left to right) raises ParseError with the 1-based file line its record
    starts on (a quoted line break spans lines) and its column.
    Data rows take numpy's C reader (`_read_table`) where that provably gives
    the row-by-row parse (`_parse_rows`) to the bit; any other file (a quote
    in the header line, a blank first data line, invalid UTF-8) goes row by
    row, in one pass that raises at the first violation. A decode error
    surfaces where that pass meets it.
    """
    with open(path, newline="", encoding="utf-8") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError:  # raised where the row-by-row reader meets it
            f.seek(0)
            lines = f
        reader = csv.reader(lines)
        header = [c.strip() for c in next(reader, [])]
        if not any(header):
            raise EmptyFile(f"{path}: no header row")
        line = reader.line_num + 1  # the file line the first data record starts on
        first = next(reader, None)
        if first is None:
            raise EmptyFile(f"{path}: no data rows")
        if isinstance(label, int):
            if not 0 <= label < len(header):
                raise MissingLabelColumn(f"label index {label} outside 0..{len(header)-1}")
            label_idx = label
        else:
            if label not in header:
                raise MissingLabelColumn(f"label column {label!r} not in header {header}")
            label_idx = header.index(label)
        width = len(header)
        # one header line, and a data line first, so numpy never warns of no data
        fast = first and lines is not f and '"' not in lines[0]
        values = _read_table(lines[1:], width) if fast else None
        if values is None:
            values = _parse_rows(first, reader, line, width)
    keep = [j for j in range(width) if j != label_idx]
    return Dataset(
        X=values[:, keep],
        y=values[:, label_idx],
        feature_names=[header[j] for j in keep],
        label_name=header[label_idx],
    )


def _read_table(lines, width):
    """The data lines by numpy's C reader as a (lines, width) float array, or
    None where it might differ from `_parse_rows`. Both parse a cell by
    `PyOS_string_to_double` of its whitespace-stripped text; numpy refuses
    `1_000`, non-ASCII digits and quotes, so one row per line (no blank line
    skipped) is the csv records, cell by cell. Non-finite values, which
    `_parse_rows` locates, and lines over the csv field limit, which the csv
    module refuses, fall back too."""
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    ok = values.shape == (len(lines), width) and max(map(len, lines)) <= csv.field_size_limit()
    return values if ok and np.isfinite(values).all() else None


def _parse_rows(first, reader, line, width):
    """The record first, then the rest of the csv reader's, as one (rows,
    width) float array, each cell `float` of its stripped text. The first
    record with another cell count, or a cell that is unparsable or
    non-finite, raises ParseError with its column and the file line the
    record starts on, `line` for first."""
    flat = []
    for row in itertools.chain([first], reader):
        if len(row) != width:
            raise ParseError(line, min(len(row), width) + 1,
                             f"expected {width} cells, got {len(row)}")
        for c, cell in enumerate(row):
            try:
                v = float(cell.strip())
            except ValueError:
                raise ParseError(line, c + 1, f"cannot parse {cell!r}") from None
            if not math.isfinite(v):
                raise ParseError(line, c + 1, f"non-finite value {cell!r}")
            flat.append(v)
        line = reader.line_num + 1  # a quoted line break spans lines: the record's first
    return np.array(flat).reshape(-1, width)


def split_train_test(dataset, fraction, seed):
    """Seeded shuffle, then the first floor(fraction * m) rows go to train."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    return split_rows(dataset, int(np.floor(fraction * dataset.m)), seed)


def split_rows(dataset, n_train, seed):
    """Seeded shuffle, then the first n_train rows go to train."""
    m, perm = dataset.m, np.random.default_rng(seed).permutation(dataset.m)
    if n_train < 2 or m - n_train < 2:
        raise TooFewRows(f"split {n_train}/{m - n_train} leaves a side too small")
    mk = lambda idx: Dataset(
        X=dataset.X[idx],
        y=dataset.y[idx],
        feature_names=list(dataset.feature_names),
        label_name=dataset.label_name,
    )
    return mk(perm[:n_train]), mk(perm[n_train:])


@dataclass(eq=False)
class Standardizer:
    means: np.ndarray
    stds: np.ndarray


def fit_standardizer(train_X):
    """Per-column mean/std (population) on training features.

    Columns with (numerically) zero variance get mean 0 / std 1 so they
    pass through the transform unchanged.
    """
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(train_X, dtype=float)))
    means = X.mean(axis=0)
    stds = np.sqrt(np.mean((X - means) ** 2, axis=0))
    degenerate = stds < 1e-12
    means = np.where(degenerate, 0.0, means)
    stds = np.where(degenerate, 1.0, stds)
    return Standardizer(means=means, stds=stds)


def apply_standardizer(std, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != std.means.shape[0]:
        raise DimensionMismatch(
            f"X has {X.shape[1]} columns, standardizer has {std.means.shape[0]}"
        )
    return (X - std.means) / std.stds


def invert_standardizer(std, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != std.means.shape[0]:
        raise DimensionMismatch(
            f"X has {X.shape[1]} columns, standardizer has {std.means.shape[0]}"
        )
    return X * std.stds + std.means
