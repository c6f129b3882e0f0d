"""CSV ingestion, splits, standardization, label stats, and attack
targets.  File-level cases run against temp CSVs; the bundled datasets
pin the label statistics the benchmark scenarios rely on."""

import csv
import decimal
import itertools
import math

import numpy as np
import pytest

import advreg.data as data_mod
from advreg.data import (
    ConstantTarget,
    Dataset,
    Standardizer,
    TargetSpec,
    apply_standardizer,
    build_target,
    concat_datasets,
    fit_standardizer,
    invert_standardizer,
    label_stats,
    load_csv,
    split_train_test,
)
from advreg.exceptions import (
    DimensionMismatch,
    EmptyFile,
    MaskOutOfRange,
    MissingLabelColumn,
    ParseError,
    TooFewRows,
)
from advreg.synthetic import BUNDLED, bundled_path, load_bundled


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------- load_csv

def test_load_csv_by_name(tmp_path):
    ds = load_csv(write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n"), label="y")
    assert np.array_equal(ds.X, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(ds.y, [3.0, 6.0])
    assert ds.feature_names == ["a", "b"]
    assert ds.label_name == "y"


def test_load_csv_by_index(tmp_path):
    ds = load_csv(write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n"), label=0)
    assert ds.feature_names == ["b", "y"]
    assert np.array_equal(ds.X, [[2.0, 3.0], [5.0, 6.0]])
    assert np.array_equal(ds.y, [1.0, 4.0])


def test_load_csv_nan_cell_rejected(tmp_path):
    with pytest.raises(ParseError) as info:
        load_csv(write(tmp_path, "a,y\n1,2\nNaN,4\n"), label="y")
    assert "3" in str(info.value)  # 1-based file line of the bad cell


def test_load_csv_text_cell_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "a,y\n1,2\nhello,4\n"), label="y")


def test_load_csv_ragged_row_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "a,b,y\n1,2,3\n4,5\n"), label="y")


def test_load_csv_missing_label(tmp_path):
    with pytest.raises(MissingLabelColumn):
        load_csv(write(tmp_path, "a,b\n1,2\n3,4\n"), label="y")
    with pytest.raises(MissingLabelColumn):
        load_csv(write(tmp_path, "a,b\n1,2\n3,4\n"), label=7)


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(EmptyFile):
        load_csv(write(tmp_path, ""), label="y")
    with pytest.raises(EmptyFile):
        load_csv(write(tmp_path, "a,b,y\n"), label="y")
    with pytest.raises(EmptyFile):  # before the label is looked up
        load_csv(write(tmp_path, "a,b\n"), label="y")


def parse_error(tmp_path, text):
    with pytest.raises(ParseError) as info:
        load_csv(write(tmp_path, text), label="y")
    return info.value


def test_load_csv_reports_the_first_bad_cell_of_a_row(tmp_path):
    # a non-finite cell wins over an unparsable one to its right
    err = parse_error(tmp_path, "a,b,y\n1,2,3\n4,inf,abc\n")
    assert (err.row, err.col) == (3, 2)
    assert str(err) == "row 3, column 2: non-finite value 'inf'"
    err = parse_error(tmp_path, "a,b,y\n1,2,3\n4,abc,inf\n")
    assert (err.row, err.col) == (3, 2)
    assert str(err) == "row 3, column 2: cannot parse 'abc'"


def test_load_csv_reports_the_file_line_a_record_starts_on(tmp_path):
    # a quoted line break makes one record span two file lines
    err = parse_error(tmp_path, '"a\nb",y\n1,2\n3,x\n')
    assert (err.row, err.col) == (4, 2)
    err = parse_error(tmp_path, 'a,y\n"1\n",2\n3,x\n')
    assert (err.row, err.col) == (4, 2)
    err = parse_error(tmp_path, 'a,y\n1,2\n"3\n",x\n')
    assert (err.row, err.col) == (3, 2)


def test_load_csv_reports_the_first_bad_row(tmp_path):
    bad_cell_first = "a,b,y\n1,2,3\nx,2,3\n1,2,3\n1,2\n"
    err = parse_error(tmp_path, bad_cell_first)
    assert (err.row, err.col) == (3, 1)
    assert str(err) == "row 3, column 1: cannot parse 'x'"
    ragged_first = "a,b,y\n1,2,3\n1,2\n1,2,3\nx,2,3\n"
    err = parse_error(tmp_path, ragged_first)
    assert (err.row, err.col) == (3, 3)
    assert str(err) == "row 3, column 3: expected 3 cells, got 2"
    err = parse_error(tmp_path, "a,b,y\n1,2,3\n1,2,3,4\n")
    assert (err.row, err.col) == (3, 4)
    assert str(err) == "row 3, column 4: expected 3 cells, got 4"


def test_load_csv_reports_a_non_finite_row_before_a_later_unparsable_one(tmp_path):
    # parsing stops at line 5's text cell; line 3's NaN still comes first
    err = parse_error(tmp_path, "a,b,y\n1,2,3\n4,nan,6\n7,8,9\n1,x,3\n")
    assert (err.row, err.col) == (3, 2)
    assert str(err) == "row 3, column 2: non-finite value 'nan'"


@pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan", " NaN "])
def test_load_csv_rejects_non_finite_spellings(cell, tmp_path):
    err = parse_error(tmp_path, f"a,y\n1,2\n3,{cell}\n")
    assert (err.row, err.col) == (3, 2)
    assert str(err) == f"row 3, column 2: non-finite value {cell!r}"


@pytest.mark.parametrize("cell", [" 1.5", "2.5\t", "\t -3e2  ", "1_000", " 7 ",
                                  "\x1f8\x1c"])
def test_load_csv_cells_parse_as_float_of_the_stripped_text(cell, tmp_path):
    ds = load_csv(write(tmp_path, f"a,y\n{cell},1\n0,2\n"), label="y")
    assert ds.X[0, 0] == float(cell.strip())


def test_load_csv_bundled_files_match_a_per_cell_reference():
    for name, spec in BUNDLED.items():
        with open(bundled_path(name), newline="", encoding="utf-8") as f:
            header, *rows = list(csv.reader(f))
        table = np.array([[float(cell) for cell in row] for row in rows])
        label = header.index(spec["label"])
        ds = load_bundled(name)
        assert ds.X.tobytes() == np.delete(table, label, axis=1).tobytes()
        assert ds.y.tobytes() == table[:, label].tobytes()
        assert ds.feature_names == header[:label] + header[label + 1:]


def reference_load_csv(path, label):
    """A per-cell reference for load_csv: the csv module's records in file
    order, `float` of each stripped cell, the first bad record raising."""
    with open(path, newline="", encoding="utf-8") as f:
        records = csv.reader(f)
        header = [c.strip() for c in next(records, [])]
        if not any(header):
            raise EmptyFile(f"{path}: no header row")
        line = records.line_num + 1  # the file line each record starts on
        first = next(records, None)
        if first is None:
            raise EmptyFile(f"{path}: no data rows")
        width, table = len(header), []
        for row in itertools.chain([first], records):
            if len(row) != width:
                raise ParseError(line, min(len(row), width) + 1,
                                 f"expected {width} cells, got {len(row)}")
            table.append([])
            for col, cell in enumerate(row, start=1):
                try:
                    value = float(cell.strip())
                except ValueError:
                    raise ParseError(line, col, f"cannot parse {cell!r}") from None
                if not math.isfinite(value):
                    raise ParseError(line, col, f"non-finite value {cell!r}")
                table[-1].append(value)
            line = records.line_num + 1
    table = np.array(table)
    return Dataset(X=np.delete(table, label, axis=1), y=table[:, label],
                   feature_names=header[:label] + header[label + 1:],
                   label_name=header[label])


def outcome(load, path, label=0):
    """What a load gives: the arrays' bytes and names, or the error's type,
    message and place."""
    try:
        ds = load(path, label)
    except (ValueError, csv.Error, EmptyFile, ParseError, TooFewRows) as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return (ds.X.shape, ds.X.dtype, ds.X.tobytes(), ds.y.tobytes(),
            ds.feature_names, ds.label_name)


LONG_CELL = "0" * 140_000 + "1"  # over the csv module's default field limit
# files where numpy's reader and the row-by-row parse could part, each with
# its first header cell as the label
CRAFTED = {
    "plain": "a,b\n1,2\n3,4\n",
    "no final newline": "a,b\n1,2\n3,4",
    "padded cells": "a,b\n 1 ,\t2\t\n3 ,  4\n",
    "one column": "y\n1\n2\n",
    "blank line in the middle": "a,b\n1,2\n\n3,4\n",
    "blank line at the end": "a,b\n1,2\n3,4\n\n",
    "blank first data line": "a,b\n\n1,2\n3,4\n",
    "only a blank data line": "a,b\n\n",
    "blank line of spaces": "a,b\n1,2\n   \n3,4\n",
    "CRLF": "a,b\r\n1,2\r\n3,4\r\n",
    "CRLF with a blank CRLF line": "a,b\r\n1,2\r\n\r\n3,4\r\n",
    "lone CR": "a,b\n1,2\r3,4\n",
    "CR only": "a,b\r1,2\r3,4\r",
    "lone CR then spaces": "a,b\n1,2\r  \n3,4\n",
    "quoted header over two lines": '"a\nb",c\n1,2\n3,4\n',
    "quoted header over two lines, then a bad cell": '"a\nb",c\n1,2\n3,x\n',
    "quoted line break, then a bad cell": 'a,b\n"1\n",2\n3,x\n',
    "quoted header cell": '"a",b\n1,2\n3,4\n',
    "quoted cells": 'a,b\n"1",2\n3,"4"\n',
    "quoted cell with a comma": 'a,b\n"1,5",2\n3,4\n',
    "underscore digits": "a,b\n1_000,2\n3,4\n",
    "Arabic-Indic digits": "a,b\n\u0661\u0662,2\n3,4\n",
    "NUL": "a,b\n1\x00,2\n3,4\n",
    "separators U+001C..U+001F": "a,b\n\x1c1\x1d,\x1e2\x1f\n3,4\n",
    "NBSP": "a,b\n\xa01\xa0,2\n3,4\n",
    "U+2028": "a,b\n1\u2028,2\n3,\u20284\n",
    "vertical tab inside a cell": "a,b\n1\x0b5,2\n3,4\n",
    "trailing comma": "a,b\n1,2,\n3,4\n",
    "short row": "a,b\n1,2\n3\n",
    "inf": "a,b\n1,inf\n3,4\n",
    "1e500": "a,b\n1,1e500\n3,4\n",
    "nan": "a,b\n1,2\n-nan,4\n",
    "hex": "a,b\n0x10,2\n3,4\n",
    "one data row": "a,b\n1,2\n",
    "empty": "",
    "blank header line": "\n1,2\n3,4\n",
    "field over the csv limit": f"a,b\n1,2\n{LONG_CELL},4\n",
}
# the files above that the row-by-row route must parse
GUARDED = {
    "blank line in the middle", "blank line at the end", "blank first data line",
    "only a blank data line", "CRLF with a blank CRLF line", "quoted header over two lines",
    "quoted header cell", "quoted cells", "quoted cell with a comma", "underscore digits",
    "Arabic-Indic digits", "NUL", "vertical tab inside a cell", "trailing comma",
    "short row", "inf", "1e500", "nan", "hex", "blank line of spaces",
    "lone CR then spaces", "field over the csv limit",
    "quoted header over two lines, then a bad cell", "quoted line break, then a bad cell",
}


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_load_csv_equals_a_per_cell_reference_on_crafted_files(case, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(CRAFTED[case].encode("utf-8"))
    assert outcome(load_csv, path) == outcome(reference_load_csv, path)


def count_row_by_row_parses(monkeypatch):
    calls = []
    parse = data_mod._parse_rows
    monkeypatch.setattr(data_mod, "_parse_rows", lambda *a: calls.append(1) or parse(*a))
    return calls


def fuzz_cell(rng):
    """A numeric cell: a short or long decimal, a double's shortest repr, a
    decimal near or on the halfway point between two doubles, a subnormal
    or a number near overflow or underflow, often padded with whitespace."""
    kind = rng.integers(7)
    if kind == 0:
        text = str(rng.integers(-10**6, 10**6))
    elif kind == 1:
        digits = "".join(map(str, rng.integers(0, 10, size=rng.integers(17, 40))))
        point = rng.integers(len(digits) + 1)
        text = f"{digits[:point]}.{digits[point:]}e{rng.integers(-30, 30)}"
    elif kind == 2:
        text = repr(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)))
    elif kind in (3, 4):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
        half = (decimal.Decimal(x) + decimal.Decimal(np.nextafter(x, np.inf))) / 2
        nudge = decimal.Decimal(f"1e{half.adjusted() - 40}") * int(rng.integers(-1, 2))
        text = str(half + nudge if kind == 4 else half)
    elif kind == 5:
        text = repr(float(rng.integers(1, 2**52)) * 5e-324)
    else:
        text = rng.choice(["1.7976931348623157e308", "1.7976931348623158e308",
                           "2.2250738585072011e-308", "2.4703282292062328e-324",
                           "2.4703282292062327e-324", "1e-400", "-0", "+.5", "5.",
                           "000123.4500", "1E5", ".5e-3"])
    pad = ["", "", " ", "\t", " \t "]
    return f"{rng.choice(pad)}{text}{rng.choice(pad)}"


def test_load_csv_equals_a_per_cell_reference_on_fuzzed_numbers(tmp_path, monkeypatch):
    rng = np.random.default_rng(20180606)
    path = tmp_path / "fuzz.csv"
    calls = count_row_by_row_parses(monkeypatch)
    for _ in range(20):
        width = int(rng.integers(1, 8))
        lines = [",".join(f"c{j}" for j in range(width))]
        with decimal.localcontext() as ctx:
            ctx.prec = 2000  # the halfway points exactly
            lines += [",".join(fuzz_cell(rng) for _ in range(width)) for _ in range(150)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert outcome(load_csv, path) == outcome(reference_load_csv, path)
    assert calls == []  # every fuzzed file took numpy's reader


def test_load_csv_equals_a_per_cell_reference_on_invalid_utf8(tmp_path):
    # the decode error surfaces where the row-by-row reader meets it: after
    # a bad cell in an earlier chunk of the file, and in its own words
    path = tmp_path / "data.csv"
    rows = b"1,2\n" * 4000
    for text in (b"a,b\n" + rows + b"\xff,2\n", b"a,b\n1,x\n" + rows + b"\xff,2\n",
                 b"a,b\n1,nan\n" + rows + b"\xff,2\n", b"\n" + rows + b"\xff,2\n"):
        path.write_bytes(text)
        assert outcome(load_csv, path) == outcome(reference_load_csv, path)


def test_load_csv_reads_the_bundled_files_without_the_row_by_row_parse(monkeypatch):
    calls = count_row_by_row_parses(monkeypatch)
    for name in BUNDLED:
        load_bundled(name)
    assert calls == []


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_load_csv_parses_row_by_row_only_where_the_routes_could_differ(
        case, tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(CRAFTED[case].encode("utf-8"))
    calls = count_row_by_row_parses(monkeypatch)
    outcome(load_csv, path)
    header_fails = case in ("empty", "blank header line")
    assert len(calls) == (case in GUARDED and not header_fails)


def test_dataset_requires_two_rows():
    with pytest.raises(TooFewRows):
        Dataset(X=np.array([[1.0, 2.0]]), y=np.array([1.0]))


# ------------------------------------------------------------------ splits

def test_split_half_of_four():
    ds = Dataset(X=np.arange(8.0).reshape(4, 2), y=np.arange(4.0))
    tr, te = split_train_test(ds, 0.5, seed=0)
    assert tr.m == 2 and te.m == 2


def test_split_same_seed_identical():
    rng = np.random.default_rng(0)
    ds = Dataset(X=rng.normal(size=(20, 3)), y=rng.normal(size=20))
    a_tr, a_te = split_train_test(ds, 0.5, seed=9)
    b_tr, b_te = split_train_test(ds, 0.5, seed=9)
    assert np.array_equal(a_tr.X, b_tr.X) and np.array_equal(a_te.y, b_te.y)


def test_split_partitions_rows():
    rng = np.random.default_rng(1)
    ds = Dataset(X=rng.normal(size=(11, 2)), y=np.arange(11.0))
    tr, te = split_train_test(ds, 0.6, seed=3)
    assert tr.m + te.m == 11
    assert sorted(np.concatenate([tr.y, te.y]).tolist()) == sorted(ds.y.tolist())


def test_split_rejects_degenerate_sides():
    ds = Dataset(X=np.arange(8.0).reshape(4, 2), y=np.arange(4.0))
    with pytest.raises(TooFewRows):
        split_train_test(ds, 0.9, seed=0)  # test side would get 1 row
    with pytest.raises(ValueError):
        split_train_test(ds, 1.0, seed=0)


# --------------------------------------------------------- standardization

def test_standardizer_two_point_column():
    std = fit_standardizer(np.array([[1.0], [3.0]]))
    assert std.means[0] == 2.0 and std.stds[0] == 1.0
    out = apply_standardizer(std, np.array([[1.0], [3.0]]))
    assert np.array_equal(out.ravel(), [-1.0, 1.0])


def test_standardizer_constant_column_passthrough():
    std = fit_standardizer(np.full((5, 1), 7.0))
    out = apply_standardizer(std, np.full((3, 1), 7.0))
    assert np.array_equal(out, np.full((3, 1), 7.0))


def test_standardizer_uses_train_stats_on_test():
    train = np.array([[0.0], [2.0]])  # mean 1, std 1
    std = fit_standardizer(train)
    out = apply_standardizer(std, np.array([[5.0]]))
    assert np.array_equal(out, [[4.0]])


def test_standardizer_round_trip():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4)) * [1.0, 10.0, 0.1, 100.0]
    std = fit_standardizer(X)
    back = invert_standardizer(std, apply_standardizer(std, X))
    assert np.allclose(back, X, atol=1e-10)


def test_standardizer_dimension_mismatch():
    std = Standardizer(means=np.zeros(2), stds=np.ones(2))
    with pytest.raises(DimensionMismatch):
        apply_standardizer(std, np.zeros((3, 5)))


# ------------------------------------------------------------- label_stats

def test_label_stats_constant():
    assert label_stats(np.array([1.0, 1.0, 1.0])) == (1.0, 0.0)


def test_label_stats_wine_like_bundle():
    ds = load_bundled("wine_like")
    mu, sigma = label_stats(ds.y)
    assert mu == pytest.approx(5.64, abs=0.01)
    assert sigma == pytest.approx(0.81, abs=0.01)


def test_label_stats_housing_like_bundle():
    ds = load_bundled("housing_like")
    mu, sigma = label_stats(ds.y)
    assert mu == pytest.approx(22.53, abs=0.01)
    assert sigma == pytest.approx(9.20, abs=0.01)


# ------------------------------------------------------------ build_target

def test_target_shift_with_clip():
    z = build_target(np.array([8.0, 8.0]), TargetSpec(delta_scale=5.0, clip_max=10.0), sigma=0.81)
    assert np.array_equal(z, [10.0, 10.0])  # 8 + 4.05 clipped


def test_target_zero_shift_is_labels():
    y = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(build_target(y, TargetSpec(delta_scale=0.0)), y)


def test_target_masked_negative_shift():
    z = build_target(np.array([5.0, 7.0]), TargetSpec(delta_scale=-2.0, mask=[0]), sigma=2.66)
    assert np.allclose(z, [-0.32, 7.0], atol=1e-12)


def test_target_mask_out_of_range():
    with pytest.raises(MaskOutOfRange):
        build_target(np.array([1.0, 2.0]), TargetSpec(delta_scale=1.0, mask=[2]))


def test_target_mask_index_past_a_c_long_is_out_of_range():
    for spec in (TargetSpec(mask=[10**30]), ConstantTarget(value=1.0, mask=[0, 10**30])):
        with pytest.raises(MaskOutOfRange):
            build_target(np.array([1.0, 2.0]), spec)


def test_constant_target_fills_masked_rows():
    z = build_target(np.array([1.0, 2.0, 3.0]), ConstantTarget(value=9.0, mask=[1]))
    assert np.array_equal(z, [0.0, 9.0, 0.0])
    z = build_target(np.array([1.0, 2.0]), ConstantTarget(value=4.0))
    assert np.array_equal(z, [4.0, 4.0])


def test_constant_target_requires_exactly_one_of_value_range():
    with pytest.raises(ValueError):
        ConstantTarget(value=1.0, value_range=(0.0, 2.0))
    with pytest.raises(ValueError):
        ConstantTarget()


@pytest.mark.parametrize("kwargs", [
    {"delta_scale": np.nan}, {"clip_min": -np.inf}, {"clip_max": np.nan},
    {"value": np.inf}, {"value_range": (0.0, np.nan)},
], ids=["delta_scale", "clip_min", "clip_max", "value", "value_range"])
def test_targets_refuse_non_finite_numbers(kwargs):
    kind = ConstantTarget if {"value", "value_range"} & set(kwargs) else TargetSpec
    with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be finite"):
        kind(**kwargs)


def test_constant_target_refuses_a_reversed_value_range():
    with pytest.raises(ValueError, match="value_range must be"):
        ConstantTarget(value_range=(4.0, 1.0))
    assert ConstantTarget(value_range=(2.0, 2.0)).value_range == (2.0, 2.0)  # a point is a range


def test_unresolved_value_range_cannot_materialize():
    spec = ConstantTarget(value_range=(0.0, 4.0))
    with pytest.raises(ValueError):
        build_target(np.array([1.0, 2.0]), spec)


# ---------------------------------------------------------------- concat

def test_concat_stacks_rows():
    a = Dataset(X=np.ones((2, 2)), y=np.array([1.0, 2.0]))
    b = Dataset(X=np.zeros((3, 2)), y=np.array([3.0, 4.0, 5.0]))
    c = concat_datasets(a, b)
    assert c.m == 5 and c.d == 2
    assert np.array_equal(c.y, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_concat_rejects_width_mismatch():
    a = Dataset(X=np.ones((2, 2)), y=np.array([1.0, 2.0]))
    b = Dataset(X=np.ones((2, 3)), y=np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        concat_datasets(a, b)
