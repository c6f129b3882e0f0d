"""OLS / ridge / lasso fits and cross-validated alpha selection.

Lasso correctness is certified through its KKT conditions (subgradient
stationarity of ||X theta - y||^2 + alpha ||theta||_1), and the homotopy
path is compared with the coordinate-descent oracle `fit_lasso_cd`.
"""

import warnings

import numpy as np
import pytest

from advreg.baselines import (
    FitConfig,
    cross_validate,
    fit_lasso,
    fit_lasso_cd,
    fit_ols,
    fit_ridge,
)
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
    cold = fit_lasso_cd(X, y, 0.7, cfg)
    warm = fit_lasso_cd(X, y, 0.7, cfg, theta0=fit_lasso_cd(X, y, 2.0, cfg))
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
            fit_lasso_cd(X, y, 0.5, cfg)


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


def lasso_objective(X, y, alpha, theta):
    r = X @ theta - y
    return float(r @ r) + alpha * float(np.abs(theta).sum())


def path_instances(seed, count):
    """Seeded designs: scaled, correlated and zero columns, and d > m."""
    rng = np.random.default_rng(seed)
    kinds = ("scaled", "correlated", "zero_column", "wide")
    for n in range(count):
        kind = kinds[n % len(kinds)]
        d = int(rng.integers(2, 8))
        m = int(rng.integers(1, d)) if kind == "wide" else int(rng.integers(d + 2, d + 20))
        X = rng.normal(size=(m, d))
        if kind == "scaled":
            X *= 10.0 ** rng.uniform(-1, 2, d)
        elif kind == "correlated":
            X += rng.normal(size=(m, 1))  # pairwise correlation 1/2
        elif kind == "zero_column":
            X[:, rng.integers(d)] = 0.0
        y = rng.normal(size=m) * float(10.0 ** rng.uniform(0, 1))
        yield kind, X, y


GRID_WITH_ZERO = np.concatenate([[0.0], FitConfig().cv_alpha_grid])


def test_lasso_path_meets_kkt_and_matches_cd_oracle():
    oracle = FitConfig(cd_tol=1e-12)
    seen = set()
    for kind, X, y in path_instances(13, 40):
        seen.add(kind)
        tol = 1e-9 * (1 + np.linalg.norm(X.T @ y))
        for alpha in GRID_WITH_ZERO:
            th = fit_lasso(X, y, alpha)
            assert lasso_kkt_gap(X, y, alpha, th) <= tol, (kind, alpha)
            # on d > m designs at small alpha the objective is nearly flat
            # along the null space and cold coordinate descent crawls past
            # its sweep cap, so there the oracle starts from the path's
            # answer and must find nothing better
            start = th if kind == "wide" else None
            ref = lasso_objective(X, y, alpha, fit_lasso_cd(X, y, alpha, oracle, start))
            assert abs(lasso_objective(X, y, alpha, th) - ref) <= 1e-9 * float(y @ y)
    assert seen == {"scaled", "correlated", "zero_column", "wide"}


def test_lasso_path_stays_on_path_at_default_grid():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(60, 8)) * 10.0 ** rng.uniform(-1, 1, 8)
    y = X @ rng.normal(size=8) + rng.normal(size=60)
    for alpha in FitConfig().cv_alpha_grid:
        th, info = fit_lasso(X, y, alpha, return_info=True)
        assert info["solver"] == "path"
        assert info["path_knots"] >= 0
        assert lasso_kkt_gap(X, y, alpha, th) <= 1e-9 * (1 + np.linalg.norm(X.T @ y))


def test_lasso_degenerate_path_falls_back_to_cd():
    # four rows, seven columns: past four active columns the active-set Gram
    # is singular, which the path meets on its way to alpha = 0
    rng = np.random.default_rng(20)
    X = rng.normal(size=(4, 7))
    y = rng.normal(size=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MaxSweepsExceeded)
        th, info = fit_lasso(X, y, 0.0, return_info=True)
    assert info["solver"] == "cd"
    assert info["path_knots"] > 0
    assert lasso_kkt_gap(X, y, 0.0, th) <= 1e-6 * (1 + np.linalg.norm(X.T @ y))


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


def _fold_errors_by_hand(X, y, method, cfg, seed):
    """CV errors refit per fold and alpha with the single-alpha fits."""
    k = cfg.cv_folds
    perm = np.random.default_rng(seed).permutation(X.shape[0])
    folds = np.array_split(perm, k)
    errors = np.zeros(cfg.cv_alpha_grid.size)
    for f in range(k):
        trn = np.concatenate([folds[g] for g in range(k) if g != f])
        val = folds[f]
        for i, alpha in enumerate(cfg.cv_alpha_grid):
            if method == "ridge":
                th = fit_ridge(X[trn], y[trn], alpha)
            else:
                th = fit_lasso(X[trn], y[trn], alpha, cfg)
            r = X[val] @ th - y[val]
            errors[i] += float(r @ r) / val.size
    return errors / k


@pytest.mark.parametrize("method,rtol", [("lasso", 1e-12), ("ridge", 1e-10)])
def test_cv_fold_fits_equal_single_alpha_fits(method, rtol):
    for kind, X, y in path_instances(15, 12):
        if kind == "wide":
            continue
        X = np.vstack([X, X])  # enough rows for 3 folds to stay tall
        y = np.concatenate([y, y[::-1]])
        grid = GRID_WITH_ZERO[1:] if method == "ridge" else GRID_WITH_ZERO
        cfg = FitConfig(cv_folds=3, cv_alpha_grid=grid)
        _, errors = cross_validate(X, y, method, cfg, seed=3)
        expected = _fold_errors_by_hand(X, y, method, cfg, seed=3)
        assert np.allclose(errors, expected, rtol=rtol, atol=0.0), kind


def test_cv_ridge_zero_alpha_on_rank_deficient_fold_raises():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(30, 3))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])  # rank 3 in every fold
    y = rng.normal(size=30)
    cfg = FitConfig(cv_folds=3, cv_alpha_grid=[0.0, 1.0])
    with pytest.raises(SingularDesign):
        cross_validate(X, y, "ridge", cfg, seed=0)
    alpha, _ = cross_validate(X, y, "ridge", FitConfig(cv_folds=3, cv_alpha_grid=[1.0]))
    assert alpha == 1.0


def test_fit_config_as_dict_round_trip():
    cfg = FitConfig(cv_alpha_grid=[0.1, 1.0])
    d = cfg.as_dict()
    again = FitConfig(**d)
    assert again.as_dict() == d
