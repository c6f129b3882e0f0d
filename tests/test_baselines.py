"""OLS / ridge / lasso fits and cross-validated alpha selection.

Lasso correctness is certified through its KKT conditions (subgradient
stationarity of ||X theta - y||^2 + alpha ||theta||_1) rather than by
comparing against another iterative solver.
"""

import warnings

import numpy as np
import pytest

from advreg.baselines import FitConfig, cross_validate, fit_lasso, fit_ols, fit_ridge
from advreg.exceptions import MaxSweepsExceeded, SingularDesign


def lasso_kkt_gap(X, y, alpha, theta):
    """Worst violation of the lasso optimality conditions (0 iff optimal)."""
    g = 2.0 * X.T @ (X @ theta - y)
    worst = 0.0
    for j in range(theta.size):
        if theta[j] != 0.0:
            worst = max(worst, abs(g[j] + alpha * np.sign(theta[j])))
        else:
            worst = max(worst, abs(g[j]) - alpha)
    return worst


# --------------------------------------------------------------------- ols

def test_ols_identity_design():
    assert np.allclose(fit_ols(np.eye(2), np.array([3.0, 4.0])), [3.0, 4.0])


def test_ols_exact_fit():
    assert np.allclose(fit_ols(np.array([[1.0], [2.0]]), np.array([1.0, 2.0])), [1.0])


def test_ols_mean_of_targets():
    assert np.allclose(fit_ols(np.array([[1.0], [1.0]]), np.array([0.0, 2.0])), [1.0])


def test_ols_matches_normal_equations_on_random_data():
    rng = np.random.default_rng(0)
    for _ in range(30):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(d + 1, d + 10))
        X = rng.normal(size=(m, d))
        y = rng.normal(size=m)
        th = fit_ols(X, y)
        assert np.allclose(X.T @ X @ th, X.T @ y, atol=1e-8)


def test_ols_singular_design_raises():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # rank 1
    with pytest.raises(SingularDesign):
        fit_ols(X, np.array([1.0, 2.0, 3.0]))


# ------------------------------------------------------------------- ridge

def test_ridge_identity_design():
    th = fit_ridge(np.eye(2), np.array([1.0, 2.0]), alpha=1.0)
    assert np.allclose(th, [0.5, 1.0], atol=1e-12)


def test_ridge_alpha_zero_is_ols():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(7, 3))
    y = rng.normal(size=7)
    assert np.allclose(fit_ridge(X, y, 0.0), fit_ols(X, y), atol=1e-10)


def test_ridge_hand_value():
    th = fit_ridge(np.array([[1.0], [1.0]]), np.array([1.0, 1.0]), alpha=2.0)
    assert np.allclose(th, [0.5], atol=1e-12)


def test_ridge_norm_shrinks_monotonically():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 4))
    y = rng.normal(size=12)
    norms = [np.linalg.norm(fit_ridge(X, y, a)) for a in (0.0, 0.1, 1.0, 10.0, 100.0)]
    assert all(norms[i] >= norms[i + 1] - 1e-12 for i in range(len(norms) - 1))


def test_ridge_negative_alpha_rejected():
    with pytest.raises(ValueError):
        fit_ridge(np.eye(2), np.array([1.0, 1.0]), alpha=-0.5)


# ------------------------------------------------------------------- lasso

def test_lasso_orthonormal_soft_threshold():
    th = fit_lasso(np.eye(2), np.array([1.0, 0.1]), alpha=1.0)
    assert np.allclose(th, [0.5, 0.0], atol=1e-12)


def test_lasso_alpha_zero_matches_ols():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(9, 3))
    y = rng.normal(size=9)
    cfg = FitConfig(cd_tol=1e-12)
    assert np.allclose(fit_lasso(X, y, 0.0, cfg), fit_ols(X, y), atol=1e-8)


def test_lasso_large_alpha_zeroes_everything():
    th = fit_lasso(np.eye(2), np.array([1.0, 1.0]), alpha=4.0)
    assert np.array_equal(th, np.zeros(2))


def test_lasso_kkt_on_random_scaled_instances():
    # columns with very different scales exercise the Gram-space updates
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(d + 2, d + 20))
        scales = 10.0 ** rng.uniform(-1, 2, d)
        X = rng.normal(size=(m, d)) * scales
        y = rng.normal(size=m) * float(10.0 ** rng.uniform(0, 1))
        alpha = float(rng.uniform(0.05, 5.0))
        th = fit_lasso(X, y, alpha, FitConfig(cd_tol=1e-12))
        assert lasso_kkt_gap(X, y, alpha, th) <= 1e-6 * (1 + np.linalg.norm(X.T @ y))


def test_lasso_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(15, 4))
    y = rng.normal(size=15)
    cfg = FitConfig(cd_tol=1e-12)
    cold = fit_lasso(X, y, 0.7, cfg)
    warm = fit_lasso(X, y, 0.7, cfg, theta0=fit_lasso(X, y, 2.0, cfg))
    assert np.allclose(cold, warm, atol=1e-7)


def test_lasso_zero_column_gets_zero_coefficient():
    X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    th = fit_lasso(X, np.array([1.0, 2.0, 3.0]), alpha=0.1)
    assert th[1] == 0.0


def test_lasso_sweep_cap_warns_and_returns():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 5))
    y = rng.normal(size=20)
    cfg = FitConfig(cd_tol=0.0, cd_max_sweeps=3)  # unreachable tolerance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MaxSweepsExceeded):
            fit_lasso(X, y, 0.5, cfg)


def test_lasso_objective_not_above_ols_objective_plus_penalty():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    alpha = 1.3
    th = fit_lasso(X, y, alpha, FitConfig(cd_tol=1e-12))
    obj = float(np.sum((X @ th - y) ** 2)) + alpha * float(np.abs(th).sum())
    ols = fit_ols(X, y)
    competing = float(np.sum((X @ ols - y) ** 2)) + alpha * float(np.abs(ols).sum())
    assert obj <= competing + 1e-9


# ---------------------------------------------------------- cross_validate

def test_cv_singleton_grid():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    cfg = FitConfig(cv_alpha_grid=[0.37], cv_folds=2)
    alpha, errors = cross_validate(X, y, "ridge", cfg)
    assert alpha == 0.37
    assert len(errors) == 1


@pytest.mark.parametrize("method", ["ridge", "lasso"])
def test_cv_pure_noise_prefers_heavy_shrinkage(method):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40)  # labels independent of features
    cfg = FitConfig(cv_alpha_grid=[1e-3, 1e3], cv_folds=5)
    alpha, _ = cross_validate(X, y, method, cfg, seed=1)
    assert alpha == 1e3


@pytest.mark.parametrize("method", ["ridge", "lasso"])
def test_cv_exact_linear_data_prefers_tiny_alpha(method):
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.0, -2.0, 0.5])  # exactly linear
    cfg = FitConfig(cv_alpha_grid=[1e-8, 1e3], cv_folds=5)
    alpha, errors = cross_validate(X, y, method, cfg, seed=2)
    assert alpha == 1e-8
    assert errors[0] < errors[1]


def test_cv_tie_goes_to_larger_alpha():
    # y = 0 makes every alpha produce theta = 0, so all scores tie exactly
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 3))
    y = np.zeros(12)
    cfg = FitConfig(cv_alpha_grid=[0.1, 1.0, 10.0], cv_folds=3)
    for method in ("ridge", "lasso"):
        alpha, errors = cross_validate(X, y, method, cfg, seed=0)
        assert alpha == 10.0
        assert np.allclose(errors, errors[0])


def test_cv_deterministic_in_seed():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(25, 4))
    y = rng.normal(size=25)
    cfg = FitConfig(cv_folds=4)
    a1, e1 = cross_validate(X, y, "lasso", cfg, seed=5)
    a2, e2 = cross_validate(X, y, "lasso", cfg, seed=5)
    assert a1 == a2
    assert np.array_equal(e1, e2)


def test_cv_rejects_bad_folds():
    X = np.eye(3)
    y = np.ones(3)
    with pytest.raises(ValueError):
        cross_validate(X, y, "ridge", FitConfig(cv_folds=1))
    with pytest.raises(ValueError):
        cross_validate(X, y, "ridge", FitConfig(cv_folds=4))  # more folds than rows


def test_cv_rejects_unknown_method():
    with pytest.raises(ValueError):
        cross_validate(np.eye(2), np.ones(2), "elastic", FitConfig(cv_folds=2))


def test_fit_config_as_dict_round_trip():
    cfg = FitConfig(cv_alpha_grid=[0.1, 1.0])
    d = cfg.as_dict()
    again = FitConfig(**d)
    assert again.as_dict() == d
