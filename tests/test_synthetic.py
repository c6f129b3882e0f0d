"""Bundled synthetic datasets: label statistics, determinism, and the
anchor column that plays the role of the large-offset raw feature found
in real tabular data (without it, a no-intercept fit of centered features
cannot track the label mean and the benchmark scenarios lose meaning)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import advreg
from advreg.baselines import fit_ols
from advreg.data import label_stats
from advreg.synthetic import (
    BUNDLED,
    HOUSING_LIKE,
    WINE_LIKE,
    bundled_path,
    dataset_to_csv,
    load_bundled,
    make_bundled,
    make_synthetic,
)


def test_wine_like_shape_and_stats():
    ds = make_bundled("wine_like")
    assert ds.m == WINE_LIKE["m"] and ds.d == WINE_LIKE["d"]
    mu, sigma = label_stats(ds.y)
    assert mu == pytest.approx(WINE_LIKE["mu"], abs=0.01)
    assert sigma == pytest.approx(WINE_LIKE["sigma"], abs=0.01)


def test_housing_like_shape_and_stats():
    ds = make_bundled("housing_like")
    assert ds.m == HOUSING_LIKE["m"] and ds.d == HOUSING_LIKE["d"]
    mu, sigma = label_stats(ds.y)
    assert mu == pytest.approx(HOUSING_LIKE["mu"], abs=0.01)
    assert sigma == pytest.approx(HOUSING_LIKE["sigma"], abs=0.01)


def test_generator_deterministic():
    a = make_synthetic(m=100, d=5, mu=3.0, sigma=1.0, r2=0.5, seed=42)
    b = make_synthetic(m=100, d=5, mu=3.0, sigma=1.0, r2=0.5, seed=42)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = make_synthetic(m=100, d=5, mu=3.0, sigma=1.0, r2=0.5, seed=43)
    assert not np.array_equal(a.y, c.y)


def test_generated_r2_close_to_requested():
    ds = make_synthetic(m=2000, d=8, mu=0.0, sigma=2.0, r2=0.6, seed=3)
    theta = fit_ols(ds.X, ds.y - ds.y.mean())
    resid = ds.y - ds.y.mean() - ds.X @ theta
    r2 = 1.0 - np.sum(resid**2) / np.sum((ds.y - ds.y.mean()) ** 2)
    assert r2 == pytest.approx(0.6, abs=0.1)


def test_raw_features_support_no_intercept_fit():
    # the anchor column must let a no-intercept OLS reach the label mean
    for name in ("wine_like", "housing_like"):
        ds = load_bundled(name)
        theta = fit_ols(ds.X, ds.y)
        resid = ds.y - ds.X @ theta
        var_resid = float(np.mean(resid**2))
        var_label = float(np.mean((ds.y - ds.y.mean()) ** 2))
        assert var_resid < var_label  # beats predicting zero / the mean


def test_bundled_csvs_match_generator_output(tmp_path):
    # the shipped files are exactly what the generator writes today
    for name in ("wine_like", "housing_like"):
        regen = tmp_path / f"{name}.csv"
        dataset_to_csv(make_bundled(name), regen)
        assert regen.read_bytes() == bundled_path(name).read_bytes()


def test_generator_command_is_warning_free(tmp_path):
    # the documented regeneration command, run with every warning an error
    src = str(Path(advreg.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys; from advreg.synthetic import main; main(sys.argv[1:])"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for name in BUNDLED:
        assert (tmp_path / f"{name}.csv").read_bytes() == bundled_path(name).read_bytes()


def test_load_bundled_unknown_name():
    with pytest.raises(KeyError):
        load_bundled("white_wine")
