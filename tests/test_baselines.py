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
from advreg.linalg import PIVOT_RTOL


def lasso_kkt_gaps(X, y, alpha, theta):
    """Violation of the lasso optimality conditions per column (0 iff optimal)."""
    g = 2.0 * X.T @ (X @ theta - y)
    return np.where(theta != 0.0, np.abs(g + alpha * np.sign(theta)), np.abs(g) - alpha)


def lasso_kkt_gap(X, y, alpha, theta):
    """Worst violation of the lasso optimality conditions (0 iff optimal)."""
    return float(np.max(lasso_kkt_gaps(X, y, alpha, theta), initial=0.0))


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


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("fit", [fit_ridge, fit_lasso, fit_lasso_cd])
def test_penalty_must_be_finite_and_non_negative(fit, alpha):
    with pytest.raises(ValueError):
        fit(np.eye(2), np.array([1.0, 1.0]), alpha)


@pytest.mark.parametrize("grid", [[0.1, np.nan], [0.1, np.inf], [0.1, -1.0], []])
def test_fit_config_rejects_bad_alpha_grid(grid):
    with pytest.raises(ValueError):
        FitConfig(cv_alpha_grid=grid)


# ------------------------------------------------------------------- lasso

def test_lasso_orthonormal_soft_threshold():
    th = fit_lasso(np.eye(2), np.array([1.0, 0.1]), alpha=1.0)
    assert np.allclose(th, [0.5, 0.0], atol=1e-12)


def test_lasso_alpha_zero_matches_ols():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(9, 3))
    y = rng.normal(size=9)
    assert np.allclose(fit_lasso(X, y, 0.0), fit_ols(X, y), atol=1e-8)


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
        th = fit_lasso(X, y, alpha)
        assert lasso_kkt_gap(X, y, alpha, th) <= 1e-6 * (1 + np.linalg.norm(X.T @ y))


def test_lasso_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(15, 4))
    y = rng.normal(size=15)
    cold = fit_lasso_cd(X, y, 0.7, tol=1e-12)
    warm = fit_lasso_cd(X, y, 0.7, fit_lasso_cd(X, y, 2.0, tol=1e-12), tol=1e-12)
    assert np.allclose(cold, warm, atol=1e-7)


def test_lasso_zero_column_gets_zero_coefficient():
    X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    th = fit_lasso(X, np.array([1.0, 2.0, 3.0]), alpha=0.1)
    assert th[1] == 0.0


def test_lasso_sweep_cap_warns_and_returns():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 5))
    y = rng.normal(size=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MaxSweepsExceeded):
            fit_lasso_cd(X, y, 0.5, tol=0.0, max_sweeps=3)  # unreachable tolerance


def test_lasso_objective_not_above_ols_objective_plus_penalty():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    alpha = 1.3
    th = fit_lasso(X, y, alpha)
    obj = float(np.sum((X @ th - y) ** 2)) + alpha * float(np.abs(th).sum())
    ols = fit_ols(X, y)
    competing = float(np.sum((X @ ols - y) ** 2)) + alpha * float(np.abs(ols).sum())
    assert obj <= competing + 1e-9


def lasso_objective(X, y, alpha, theta):
    r = X @ theta - y
    return float(r @ r) + alpha * float(np.abs(theta).sum())


PATH_KINDS = ("scaled", "correlated", "zero_column", "wide", "duplicate", "collinear")
# kinds whose active-set Grams go singular on the way to alpha = 0
DEGENERATE_KINDS = ("wide", "duplicate", "collinear")


def path_instances(seed, count, kinds=PATH_KINDS):
    """Seeded designs cycling through `kinds`: scaled, correlated and zero
    columns, d > m, a duplicated or collinear last column, and +-1 entries
    with integer labels (tied correlations)."""
    rng = np.random.default_rng(seed)
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
        elif kind == "duplicate":
            X[:, -1] = X[:, 0]
        elif kind == "collinear":
            X[:, -1] = X[:, 0] - 2.0 * X[:, 1] if d > 2 else -2.0 * X[:, 0]
        elif kind == "pm1":
            X = np.sign(X)
        y = rng.normal(size=m) * float(10.0 ** rng.uniform(0, 1))
        if kind == "pm1":
            y = np.round(y)
        yield kind, X, y


GRID_WITH_ZERO = np.concatenate([[0.0], FitConfig().cv_alpha_grid])


def test_lasso_path_meets_kkt_and_matches_cd_oracle():
    seen = set()
    for kind, X, y in path_instances(13, 40):
        seen.add(kind)
        tol = 1e-9 * (1 + np.linalg.norm(X.T @ y))
        for alpha in GRID_WITH_ZERO:
            th = fit_lasso(X, y, alpha)
            assert lasso_kkt_gap(X, y, alpha, th) <= tol, (kind, alpha)
            # on rank-deficient designs at small alpha the objective is
            # nearly flat along the null space and cold coordinate descent
            # crawls past its sweep cap, so there the oracle starts from the
            # path's answer and must find nothing better
            start = th if kind in DEGENERATE_KINDS else None
            ref = lasso_objective(X, y, alpha, fit_lasso_cd(X, y, alpha, start, tol=1e-12))
            assert abs(lasso_objective(X, y, alpha, th) - ref) <= 1e-9 * float(y @ y)
    assert seen == set(PATH_KINDS)


def test_lasso_path_stays_on_path_at_default_grid():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(60, 8)) * 10.0 ** rng.uniform(-1, 1, 8)
    y = X @ rng.normal(size=8) + rng.normal(size=60)
    for alpha in FitConfig().cv_alpha_grid:
        th, info = fit_lasso(X, y, alpha, return_info=True)
        assert info["solver"] == "path"
        assert info["path_knots"] >= 0
        assert lasso_kkt_gap(X, y, alpha, th) <= 1e-9 * (1 + np.linalg.norm(X.T @ y))


def test_lasso_wide_design_ends_on_the_path():
    # four rows, seven columns: past four active columns every other column
    # lies in their span, so none of them joins on the way to alpha = 0
    rng = np.random.default_rng(20)
    X = rng.normal(size=(4, 7))
    y = rng.normal(size=4)
    th, info = fit_lasso(X, y, 0.0, return_info=True)
    assert info["solver"] == "path"
    assert info["path_knots"] > 0
    assert lasso_kkt_gap(X, y, 0.0, th) <= 1e-9 * (1 + np.linalg.norm(X.T @ y))


def test_lasso_degenerate_designs_stay_on_the_path():
    kinds = DEGENERATE_KINDS + ("pm1",)
    seen = set()
    for kind, X, y in path_instances(22, 200, kinds):
        seen.add(kind)
        tol = 1e-9 * (1 + np.linalg.norm(X.T @ y))
        for alpha in GRID_WITH_ZERO:
            th, info = fit_lasso(X, y, alpha, return_info=True)
            assert info["solver"] == "path"
            assert lasso_kkt_gap(X, y, alpha, th) <= tol, (kind, alpha)
    assert seen == set(kinds)


@pytest.mark.parametrize("X,y", [
    # column 2 lies in the span of active columns 5, 3 and 0; it must join
    # once column 3 leaves
    ([[0, 1, 0, 1, 0, 1], [-1, 1, 0, 0, -1, 1], [-1, 0, 1, -1, -1, 1]], [2, 0, 1]),
    # columns 1 and 3 are equal, and column 1's coefficient reaches zero at
    # the knot where column 5 joins, so the pair can trade places at one t
    ([[1, 1, -1, 1, -1, -1, -1], [-1, 1, -1, 1, -1, -1, -1], [-1, 1, 1, 1, -1, 1, -1],
      [1, -1, 1, -1, -1, -1, 1], [-1, 1, 1, 1, 1, -1, -1], [1, -1, 1, -1, -1, 1, -1],
      [1, 1, -1, 1, 1, 1, -1], [-1, 1, 1, 1, -1, -1, 1], [1, -1, -1, -1, 1, -1, 1]],
     [-2, 2, 0, -2, -1, -2, 1, 1, -2]),
    # six of seven correlations tie at the start: eight knots at one t
    ([[-1, 1, 0, 0, -1, 1, 1], [1, -1, 0, 0, 1, 1, 1], [-1, -1, 0, 0, 0, -1, 0],
      [1, 0, 0, -1, 1, 0, -1], [1, 0, 0, 0, 0, 1, 0], [1, 1, 0, -1, 1, -1, 1],
      [0, -1, -1, -1, 1, 1, -1]],
     [0, 0, -1, 2, 1, -2, -2]),
    # all five correlations tie at the start: ten knots after the first at
    # one t (2 d), joins and leaves interleaved
    ([[1, -1, -1, 1, -1], [1, -1, -1, 1, -1], [-1, -1, 1, -1, 1], [-1, 1, 1, -1, -1],
      [-1, 1, 1, -1, -1], [-1, 1, -1, -1, 1], [1, -1, 1, 1, 1], [-1, -1, 1, -1, 1],
      [-1, 1, 1, 1, -1]],
     [-1, 0, -2, 1, -2, -1, -1, 2, 1]),
], ids=["span-shrinks", "duplicate-at-a-knot", "six-way-tie", "five-way-tie"])
def test_lasso_path_passes_degenerate_knots(X, y):
    X, y = np.array(X, dtype=float), np.array(y, dtype=float)
    for alpha in GRID_WITH_ZERO:
        th, info = fit_lasso(X, y, alpha, return_info=True)
        assert info["solver"] == "path"
        assert lasso_kkt_gap(X, y, alpha, th) <= 1e-9 * (1 + np.linalg.norm(X.T @ y))


def test_lasso_span_test_ignores_column_scale():
    # column 1 is orthogonal to column 0 but 1e7 times shorter; it must join
    X = np.array([[1e7, 0.0], [0.0, 1.0]])
    y = np.array([1e7, 1.0])
    b, col_sq = X.T @ y, np.diag(X.T @ X)
    for alpha in GRID_WITH_ZERO:
        soft = np.sign(b) * np.maximum(np.abs(b) - 0.5 * alpha, 0.0) / col_sq
        np.testing.assert_allclose(fit_lasso(X, y, alpha), soft, rtol=1e-12, atol=0.0)


def test_lasso_meets_kkt_per_column_when_column_norms_differ_by_1e8():
    rng = np.random.default_rng(25)
    kinds = ("correlated",) + DEGENERATE_KINDS
    for kind, X, y in path_instances(24, 80, kinds):
        X = X * 10.0 ** rng.uniform(-4, 4, X.shape[1])
        tol = 1e-9 * (1 + np.linalg.norm(X, axis=0) * np.linalg.norm(y))
        for alpha in GRID_WITH_ZERO:
            th = fit_lasso(X, y, alpha)
            assert np.all(lasso_kkt_gaps(X, y, alpha, th) <= tol), (kind, alpha)


def test_lasso_near_collinear_column_meets_kkt_to_the_span_tolerance():
    # the last column sits about 1e-7 of its norm off the span of the others,
    # inside sqrt(PIVOT_RTOL) = 1e-6, so it counts as spanned and its
    # optimality condition holds to 2 sqrt(PIVOT_RTOL) ||x_j|| ||y - X theta||
    rng = np.random.default_rng(26)
    for _, X, y in path_instances(23, 60, ("collinear",)):
        X[:, -1] += 1e-7 * np.linalg.norm(X[:, -1]) / np.sqrt(X.shape[0]) * rng.normal(size=X.shape[0])
        norms = np.linalg.norm(X, axis=0)
        for alpha in GRID_WITH_ZERO:
            th = fit_lasso(X, y, alpha)
            r = np.linalg.norm(y - X @ th)
            tol = 2.0 * np.sqrt(PIVOT_RTOL) * norms * r + 1e-9 * (1 + np.linalg.norm(X.T @ y))
            assert np.all(lasso_kkt_gaps(X, y, alpha, th) <= tol), alpha


def test_lasso_coefficient_at_its_own_knot_keeps_its_sign():
    # alpha = 1 falls on the knot where theta_4 leaves; read off the segment
    # it rounds to +5.6e-17, against its active sign -1
    X = np.array([
        [-1, 1, 1, 1, -1], [1, -1, -1, -1, -1], [1, 1, -1, -1, -1], [-1, 1, -1, -1, 1],
        [1, 1, -1, 1, -1], [-1, -1, -1, -1, 1], [-1, 1, -1, -1, 1],
    ], dtype=float)
    y = np.array([-1, 1, 1, 1, 1, 1, -1], dtype=float)
    th = fit_lasso(X, y, 1.0)
    assert th[4] == 0.0
    assert lasso_kkt_gap(X, y, 1.0, th) <= 1e-9 * (1 + np.linalg.norm(X.T @ y))


def long_path_design(d, scale):
    """A d-column design whose lasso path has far more than d knots (Mairal &
    Yu 2012): each new column is scale^k times the labels so far, bordered by
    a new row, so the path runs the smaller path down, back up and down
    again; for small scale it passes (3^d - 3) / 2 knots to alpha = 0."""
    X, y = np.ones((1, 1)), np.ones(1)
    for k in range(1, d):
        a = scale ** k
        X = np.block([[X, 2.0 * a * y[:, None]], [np.zeros((1, k)), np.full((1, 1), a)]])
        y = np.append(y, 1.0)
    return X, y


def test_lasso_long_path_does_not_drift():
    # the active-set inverse is updated at every knot; here 167 knots pass,
    # 81 of them leaves, and the duplicate of column 0 is turned away as
    # spanned 29 times, so error that accumulated over the updates would show
    X, y = long_path_design(6, 0.2)
    X = np.column_stack([X, X[:, 0]])
    _, info = fit_lasso(X, y, 0.0, return_info=True)
    assert info["path_knots"] >= 3 * X.shape[1]
    tol = 1e-9 * (1 + np.linalg.norm(X.T @ y))
    for alpha in np.concatenate([GRID_WITH_ZERO, 2.0 * np.logspace(-12, 0, 13)]):
        th = fit_lasso(X, y, alpha)
        assert lasso_kkt_gap(X, y, alpha, th) <= tol, alpha
        # rank-deficient, so the oracle starts from the path's answer
        ref = lasso_objective(X, y, alpha, fit_lasso_cd(X, y, alpha, th, tol=1e-12))
        assert abs(lasso_objective(X, y, alpha, th) - ref) <= 1e-9 * float(y @ y), alpha


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
                th = fit_lasso(X[trn], y[trn], alpha)
            r = X[val] @ th - y[val]
            errors[i] += float(r @ r) / val.size
    return errors / k


@pytest.mark.parametrize("method,rtol", [("lasso", 1e-12), ("ridge", 1e-10)])
def test_cv_fold_fits_equal_single_alpha_fits(method, rtol):
    for kind, X, y in path_instances(15, 12):
        X = np.vstack([X, X, X])  # enough rows for 3 folds
        y = np.concatenate([y, y[::-1], -y])
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
