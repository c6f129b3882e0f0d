"""CSV ingestion, splits, standardization, PCA, label stats, and attack
targets.  File-level cases run against temp CSVs; the bundled datasets
pin the label statistics the benchmark scenarios rely on."""

import csv

import numpy as np
import pytest

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
    pca_top_k,
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


# --------------------------------------------------------------------- pca

def test_pca_single_axis_variance():
    rng = np.random.default_rng(3)
    X = np.zeros((40, 3))
    X[:, 1] = rng.normal(size=40)
    pcs = pca_top_k(X, k=1)
    assert np.allclose(np.abs(pcs.components[:, 0]), [0.0, 1.0, 0.0], atol=1e-9)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(25, 4))
    pcs = pca_top_k(X, k=4)
    Z = pcs.transform(X)
    back = Z @ pcs.components.T + pcs.mean
    assert np.allclose(back, X, atol=1e-8)
    assert np.allclose(pcs.components.T @ pcs.components, np.eye(4), atol=1e-9)
    assert np.all(np.diff(pcs.eigenvalues) <= 1e-12)


def test_pca_two_point_hand_oracle():
    pcs = pca_top_k(np.array([[0.0, 0.0], [2.0, 2.0]]), k=1)
    comp = pcs.components[:, 0]
    target = np.array([1.0, 1.0]) / np.sqrt(2)
    assert np.allclose(comp, target, atol=1e-12)  # sign fixed by convention
    Z = pcs.transform(np.array([[0.0, 0.0], [2.0, 2.0]])).ravel()
    assert np.allclose(sorted(Z), [-np.sqrt(2), np.sqrt(2)], atol=1e-12)


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
