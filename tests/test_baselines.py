"""OLS / ridge / lasso fits and cross-validated alpha selection.

Lasso correctness is certified through its KKT conditions (subgradient
stationarity of ||X theta - y||^2 + alpha ||theta||_1), and the homotopy
path is compared with the coordinate-descent oracle `fit_lasso_cd` from
`oracles`.
"""

import warnings

import numpy as np
import pytest

import advreg.baselines as baselines
from advreg.baselines import (
    FitConfig,
    cross_validate,
    fit_lasso,
    fit_ols,
    fit_ridge,
    lasso_paths,
)
from advreg.data import apply_standardizer, fit_standardizer, split_train_test
from advreg.exceptions import MaxSweepsExceeded, NonFinite, SingularDesign
from advreg.linalg import PIVOT_RTOL
from advreg.synthetic import load_bundled
from oracles import _lasso_path, fit_lasso_cd


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


@pytest.mark.parametrize("folds", [2.7, "5", True, 1, 0, -3, None])
def test_fit_config_rejects_bad_cv_folds(folds):
    # a float would run int(folds) folds and a string its integer
    with pytest.raises(ValueError, match="cv_folds"):
        FitConfig(cv_folds=folds)
    assert FitConfig(cv_folds=np.int64(3)).cv_folds == 3


BASELINE_FITS = {
    "ols": fit_ols,
    "ridge": lambda X, y: fit_ridge(X, y, 0.5),
    "lasso": lambda X, y: fit_lasso(X, y, 0.5),
    "cv-ridge": lambda X, y: cross_validate(X, y, "ridge", FitConfig(cv_folds=2)),
    "cv-lasso": lambda X, y: cross_validate(X, y, "lasso", FitConfig(cv_folds=2)),
}


@pytest.mark.parametrize("name", sorted(BASELINE_FITS))
@pytest.mark.parametrize("where,value", [("X", np.nan), ("X", np.inf), ("y", np.nan)])
def test_baselines_refuse_non_finite_inputs(name, where, value):
    # a NaN or inf used to come back as coefficients, a singular design or
    # NaN errors; in a stack it would stall its path or poison its neighbours
    rng = np.random.default_rng(27)
    X, y = rng.normal(size=(12, 3)), rng.normal(size=12)
    (X if where == "X" else y)[5] = value
    with pytest.raises(NonFinite, match=f"^{where} contains non-finite"):
        BASELINE_FITS[name](X, y)


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


DEGENERATE_KNOTS = {
    # column 2 lies in the span of active columns 5, 3 and 0; it must join
    # once column 3 leaves
    "span-shrinks": (
        [[0, 1, 0, 1, 0, 1], [-1, 1, 0, 0, -1, 1], [-1, 0, 1, -1, -1, 1]], [2, 0, 1]),
    # columns 1 and 3 are equal, and column 1's coefficient reaches zero at
    # the knot where column 5 joins, so the pair can trade places at one t
    "duplicate-at-a-knot": (
        [[1, 1, -1, 1, -1, -1, -1], [-1, 1, -1, 1, -1, -1, -1], [-1, 1, 1, 1, -1, 1, -1],
         [1, -1, 1, -1, -1, -1, 1], [-1, 1, 1, 1, 1, -1, -1], [1, -1, 1, -1, -1, 1, -1],
         [1, 1, -1, 1, 1, 1, -1], [-1, 1, 1, 1, -1, -1, 1], [1, -1, -1, -1, 1, -1, 1]],
        [-2, 2, 0, -2, -1, -2, 1, 1, -2]),
    # six of seven correlations tie at the start: eight knots at one t
    "six-way-tie": (
        [[-1, 1, 0, 0, -1, 1, 1], [1, -1, 0, 0, 1, 1, 1], [-1, -1, 0, 0, 0, -1, 0],
         [1, 0, 0, -1, 1, 0, -1], [1, 0, 0, 0, 0, 1, 0], [1, 1, 0, -1, 1, -1, 1],
         [0, -1, -1, -1, 1, 1, -1]],
        [0, 0, -1, 2, 1, -2, -2]),
    # all five correlations tie at the start: ten knots after the first at
    # one t (2 d), joins and leaves interleaved
    "five-way-tie": (
        [[1, -1, -1, 1, -1], [1, -1, -1, 1, -1], [-1, -1, 1, -1, 1], [-1, 1, 1, -1, -1],
         [-1, 1, 1, -1, -1], [-1, 1, -1, -1, 1], [1, -1, 1, 1, 1], [-1, -1, 1, -1, 1],
         [-1, 1, 1, 1, -1]],
        [-1, 0, -2, 1, -2, -1, -1, 2, 1]),
    # at the tied start column 2 leaves, and column 1 then tries to join at
    # the same t but is spanned; column 2's bar stands at the knot after
    "bar-outlasts-a-spanned-join": (
        [[1, 1, 1, 1, 0, 0], [-1, -1, 1, -1, -1, 1], [-1, -1, 1, 1, 1, 0],
         [1, 1, -1, 1, 1, -1], [-1, -1, 1, -1, 1, 0]],
        [0, -2, -2, -1, 1]),
    # at the tied start columns 2 and 4 each join and leave; once columns 0
    # and 1 are the active set again, both stay barred
    "bars-accumulate-at-one-t": ([[-1, 1, 1, 0, 1], [0, 0, 1, 0, -1], [-1, 0, -1, 0, 1]], [1, 0, 0]),
    # column 3 leaves at a knot that moves t, and column 4 then tries to join
    # at that t but is spanned; column 3's bar stands at the knot after
    "leave-then-spanned-tie": (
        [[1, 1, 0, 1, 0, 0, 1], [1, 0, 0, -1, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1],
         [0, -1, -1, -1, 1, -1, -1], [-1, 1, 0, -1, 0, -1, 1]],
        [1, 1, 1, 1, 1]),
}


@pytest.mark.parametrize("X,y", DEGENERATE_KNOTS.values(), ids=DEGENERATE_KNOTS)
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


@pytest.mark.parametrize("scale", [0.2, 0.1])
def test_lasso_long_path_does_not_drift(scale):
    # the active-set inverse is updated at every knot; at scale 0.2, 167
    # knots pass, 81 of them leaves, and the duplicate of column 0 is turned
    # away as spanned 29 times, so error that accumulated over the updates
    # would show. At 0.1, 363 knots pass and the smallest column has norm
    # about 5e-5, so the oracle's stop rule must not depend on column scale
    X, y = long_path_design(6, scale)
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


TIED_JOIN_DESIGN = (np.array([[2.0, 2.0, -1.0], [0.0, 0.0, 1.0]]), np.array([0.0, -2.0]))


def test_lasso_tied_join_goes_to_the_lowest_index():
    # columns 0 and 1 are equal, so once column 2 is active their join times
    # tie exactly; column 0 joins, as np.argmax picks the first maximum, and
    # column 1 then lies in the active span and stays out to alpha = 0
    X, y = TIED_JOIN_DESIGN
    for alpha in GRID_WITH_ZERO:
        assert fit_lasso(X, y, alpha)[1] == 0.0, alpha
    np.testing.assert_allclose(fit_lasso(X, y, 0.0), [-1.0, 0.0, -2.0], rtol=1e-12)


# ------------------------------------------------------------ lasso stacks

def every_lasso_design():
    """The designs the lasso path tests above fit, as (X, y)."""
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(d + 2, d + 20))
        X = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-1, 2, d)
        yield X, rng.normal(size=m) * float(10.0 ** rng.uniform(0, 1))
        rng.uniform(0.05, 5.0)  # that test's alpha, to keep the draws in step
    yield from ((X, y) for _, X, y in path_instances(13, 40))
    yield from ((X, y) for _, X, y in path_instances(22, 200, DEGENERATE_KINDS + ("pm1",)))
    rng = np.random.default_rng(25)
    for _, X, y in path_instances(24, 80, ("correlated",) + DEGENERATE_KINDS):
        yield X * 10.0 ** rng.uniform(-4, 4, X.shape[1]), y
    rng = np.random.default_rng(26)
    for _, X, y in path_instances(23, 60, ("collinear",)):
        m = X.shape[0]
        X[:, -1] += 1e-7 * np.linalg.norm(X[:, -1]) / np.sqrt(m) * rng.normal(size=m)
        yield X, y
    for X, y in DEGENERATE_KNOTS.values():
        yield np.array(X, dtype=float), np.array(y, dtype=float)
    for scale in (0.2, 0.1):
        X, y = long_path_design(6, scale)
        yield np.column_stack([X, X[:, 0]]), y
    rng = np.random.default_rng(20)
    yield rng.normal(size=(4, 7)), rng.normal(size=4)  # wide: the span stops every join
    yield TIED_JOIN_DESIGN
    yield np.array([[1e7, 0.0], [0.0, 1.0]]), np.array([1e7, 1.0])


def wine_fold_systems(seed):
    """X^T X and X^T y of each CV fold's training rows on a wine_like half
    split: ordinary paths, with no ties and no spanned column."""
    train, _ = split_train_test(load_bundled("wine_like"), 0.5, seed)
    folds = np.array_split(np.random.default_rng(seed).permutation(train.m), 5)
    for f in range(5):
        trn = np.concatenate(folds[:f] + folds[f + 1:])
        yield train.X[trn].T @ train.X[trn], train.X[trn].T @ train.y[trn]


def padded_systems(designs, d=11):
    """X^T X and X^T y of each design, zero-padded to d columns."""
    for X, y in designs:
        G, b = np.zeros((d, d)), np.zeros(d)
        G[:X.shape[1], :X.shape[1]], b[:X.shape[1]] = X.T @ X, X.T @ y
        yield G, b


LONG_GRID = np.concatenate([GRID_WITH_ZERO, 2.0 * np.logspace(-12, 0, 13)])


def assert_stack_equals_paths(systems, alphas=LONG_GRID, alone=False):
    """lasso_paths on the stack equals `_lasso_path` on each system, theta and
    knots per alpha, to the bit; with alone, each alpha also equals the path
    run to that alpha alone."""
    G, b = (np.array(part) for part in zip(*systems))
    A = np.tile(alphas, (len(b), 1))
    thetas, knots = lasso_paths(G, b, A)
    for q in range(len(b)):
        ref, ref_knots = _lasso_path(G[q], b[q], A[q])
        assert thetas[q].tobytes() == ref.tobytes(), q  # to the bit and the sign of zero
        assert knots[q].tolist() == ref_knots.tolist(), q
        for i in range(len(alphas)) if alone else ():
            one, one_knots = _lasso_path(G[q], b[q], A[q, i:i + 1])
            assert one.tobytes() == ref[i:i + 1].tobytes(), (q, i)
            assert one_knots.tolist() == [ref_knots[i]], (q, i)


def test_lasso_paths_equal_lasso_path_on_every_design():
    designs = list(every_lasso_design())
    # one stack: every design padded to wine_like's 11 columns among wine folds
    assert_stack_equals_paths([*wine_fold_systems(0), *padded_systems(designs),
                               *wine_fold_systems(1)])
    # and unpadded, one stack per column count and one stack per design
    by_d = {}
    for X, y in designs:
        by_d.setdefault(X.shape[1], []).append((X.T @ X, X.T @ y))
        assert_stack_equals_paths([(X.T @ X, X.T @ y)])
    for systems in by_d.values():
        assert_stack_equals_paths(systems)


def degenerate_stack():
    """Ten wine_like fold systems with a tie and a spanned join among them,
    padded to 11 columns: paths 5 and 11."""
    tie = np.array(DEGENERATE_KNOTS["six-way-tie"][0], dtype=float), np.array(
        DEGENERATE_KNOTS["six-way-tie"][1], dtype=float)
    rng = np.random.default_rng(20)
    wide = rng.normal(size=(4, 7)), rng.normal(size=4)
    # the tie comes at the tied start; the wide design has a single first
    # column, and its fifth column to join lies in the span of four
    assert np.sum(np.abs(tie[0].T @ tie[1]) == np.max(np.abs(tie[0].T @ tie[1]))) == 6
    assert np.sum(np.abs(wide[0].T @ wide[1]) == np.max(np.abs(wide[0].T @ wide[1]))) == 1
    return [*wine_fold_systems(2), *padded_systems([tie]), *wine_fold_systems(3),
            *padded_systems([wide])]


def test_lasso_paths_run_a_tie_and_a_spanned_join_inside_the_stack():
    # the package keeps one homotopy: no single-path route to hand a path to
    assert not hasattr(baselines, "_lasso_path")
    assert_stack_equals_paths(degenerate_stack(), GRID_WITH_ZERO)


def test_each_alpha_of_a_stacked_path_equals_the_path_run_to_it_alone():
    # the fit stage reads each deployed lasso off a path run to the whole
    # grid, at the chosen alpha; its theta and knots must be those of the
    # path run to that alpha alone, whether the path runs in the stack, in a
    # stack of one or among ordinary paths
    designs = [(np.array(X, dtype=float), np.array(y, dtype=float))
               for X, y in DEGENERATE_KNOTS.values()]
    designs += [(np.column_stack([X, X[:, 0]]), y)
                for X, y in (long_path_design(6, scale) for scale in (0.2, 0.1))]
    assert_stack_equals_paths(padded_systems(designs, 7), alone=True)
    for X, y in designs:
        assert_stack_equals_paths([(X.T @ X, X.T @ y)], alone=True)
    assert_stack_equals_paths(degenerate_stack(), GRID_WITH_ZERO, alone=True)


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


# ---------------------------------------------------------------- CV guard

def residual_cv(X, y, method, cfg, seed):
    """(alpha, errors, margins) of a CV the residual way: gathered fold
    systems, their fits, held-out residuals; and each alpha's rounding margin
    on the quadratic-form route, n eps (|X_f th|^2 + 2 |y_f . X_f th| +
    |y_f|^2) over the fold's n training rows, averaged like the errors."""
    folds = baselines._folds(len(y), cfg, seed)
    thetas = baselines._fold_fits(method, *baselines._fold_systems(X, y, folds),
                                  cfg.cv_alpha_grid)
    alpha, errors = baselines._cv_choice(X, y, folds, thetas, cfg.cv_alpha_grid)
    margins = 0.0
    for val, theta in zip(folds, thetas):
        pred = X[val] @ theta.T
        terms = np.sum(pred * pred, axis=0) + 2.0 * np.abs(y[val] @ pred) + y[val] @ y[val]
        margins += (len(y) - val.size) * np.finfo(float).eps * terms / val.size
    return alpha, errors, margins / len(folds)


def bundled_split(name, seed, standardized):
    train, _ = split_train_test(load_bundled(name), 0.5, seed)
    X = apply_standardizer(fit_standardizer(train.X), train.X) if standardized else train.X
    return X, train.y


@pytest.mark.parametrize("name", ["wine_like", "housing_like"])
@pytest.mark.parametrize("standardized", [False, True])
def test_cv_choices_equal_the_residual_route_within_the_margin(name, standardized):
    cfg = FitConfig()
    for seed in range(8):
        X, y = bundled_split(name, seed, standardized)
        for method in ("ridge", "lasso"):
            alpha, errors = cross_validate(X, y, method, cfg, seed)
            ref_alpha, ref_errors, margins = residual_cv(X, y, method, cfg, seed)
            assert alpha == ref_alpha, (seed, method)
            assert np.all(np.abs(errors - ref_errors) <= margins), (seed, method)


# noise-free half splits (y = X theta exactly) on which the quadratic form's
# choice differs from the residual route's; recorded with numpy 2.4.6's
# bundled OpenBLAS: (dataset, split and CV seed, method)
NOISE_FREE_MISPICKS = (("housing_like", 32, "ridge"), ("housing_like", 37, "lasso"),
                       ("wine_like", 106, "ridge"), ("wine_like", 155, "lasso"))


def test_cv_guard_reruns_noise_free_cvs_whose_quadratic_form_cancels(monkeypatch):
    # every held-out error is rounding next to |y_f|^2, so the quadratic form
    # cancels: each CV lands within the margin and reruns on gathered rows,
    # and reports the residual route's choice and errors
    cfg = FitConfig()
    grid = cfg.cv_alpha_grid
    reruns, mispicks = [], 0
    fold_systems = baselines._fold_systems
    for name, seed, method in NOISE_FREE_MISPICKS:
        X, _ = bundled_split(name, seed, False)
        y = X @ np.random.default_rng(seed).normal(size=X.shape[1])
        folds = baselines._folds(len(y), cfg, seed)
        G, b, blocks = baselines._fold_blocks(X, y, folds)
        thetas, d = baselines._fold_fits(method, G, b, grid), X.shape[1]
        quad = np.sum((thetas @ blocks[:, :d, :d]) * thetas, axis=2)
        errors = quad - 2.0 * (thetas @ blocks[:, :d, d:])[:, :, 0] + blocks[:, d:, d]
        unguarded = grid[baselines._pick(np.sum(errors / [[f.size] for f in folds], axis=0), grid)]
        ref_alpha, ref_errors, _ = residual_cv(X, y, method, cfg, seed)
        mispicks += bool(unguarded != ref_alpha)
        monkeypatch.setattr(baselines, "_fold_systems",
                            lambda *a: reruns.append(seed) or fold_systems(*a))
        alpha, errors = cross_validate(X, y, method, cfg, seed)
        monkeypatch.setattr(baselines, "_fold_systems", fold_systems)
        assert (alpha, errors.tobytes()) == (ref_alpha, ref_errors.tobytes()), (name, seed)
    assert reruns == [seed for _, seed, _ in NOISE_FREE_MISPICKS]
    assert mispicks > 0  # without the guard, some choice would change


def test_cv_exact_tie_of_zero_fits_goes_to_the_larger_alpha():
    # alphas above 2 max |X^T y| of every fold fit theta = 0, so they score
    # each fold's |y_f|^2 / |f| on either route, equal to the bit
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40)  # labels independent of features: theta = 0 is best
    cfg = FitConfig(cv_alpha_grid=[1e-3, 1e6, 1e7, 1e5], cv_folds=5)
    alpha, errors = cross_validate(X, y, "lasso", cfg, seed=1)
    assert alpha == 1e7
    assert errors[1] == errors[2] == errors[3] < errors[0]


# ------------------------------------------------------------- stacked CV

def assert_cv_scores_equal_each_cv_alone(cvs, blocks, thetas, grid, scores):
    """scores, `_cv_score` on a stack of CVs, equal it on each CV alone, as
    `cross_validate` runs it: the chosen alpha and the errors' bytes."""
    assert len(scores) == len(cvs)
    for i, (alpha, errors) in enumerate(scores):
        ((want_alpha, want_errors),) = baselines._cv_score(
            cvs[i:i + 1], blocks[i:i + 1], thetas[i:i + 1], grid)
        assert (alpha, errors.tobytes()) == (want_alpha, want_errors.tobytes()), i


def test_stacked_cv_scores_equal_each_cv_alone_on_the_criterion_5_and_6_blocks(
        acceptance_sweeps):
    # every ridge and lasso CV of a sweep block is scored in one stack; each
    # stack as the sweeps ran it, recorded once a session
    stacks = []
    for sweep in acceptance_sweeps.values():
        for (cvs, blocks, thetas, grid), scores in sweep.cvs:
            stacks.append(len(cvs))
            assert_cv_scores_equal_each_cv_alone(cvs, blocks, thetas, grid, scores)
    assert stacks == ([24] * 16 + [16]) * 2 + [24] * 50


def test_a_stacked_cv_near_a_tie_reruns_alone(monkeypatch):
    # one CV of a criterion-6 block gets its best alpha's fits in a second
    # alpha's place, so the two errors tie: that CV alone reruns on gathered
    # fold systems, and the others keep their stacked scores
    import advreg.evaluate as evaluate
    from test_acceptance import _criterion_6_sweep

    block = []
    monkeypatch.setattr(evaluate, "_cv_score", lambda *args: block.append(args) or
                        baselines._cv_score(*args))
    _criterion_6_sweep(1)
    ((cvs, blocks, thetas, grid),) = block
    reruns = []
    cv_choice = baselines._cv_choice
    monkeypatch.setattr(baselines, "_cv_choice", lambda X, y, folds, fits, grid: (
        reruns.append(folds) or cv_choice(X, y, folds, fits, grid)))
    scores = baselines._cv_score(cvs, blocks, thetas, grid)
    assert reruns == []
    j = 7
    best = int(np.argmax(grid == scores[j][0]))
    tied = thetas.copy()
    tied[j, :, (best + 1) % grid.size] = tied[j, :, best]
    tie = baselines._cv_score(cvs, blocks, tied, grid)
    assert_cv_scores_equal_each_cv_alone(cvs, blocks, tied, grid, tie)
    assert len(reruns) == 2 and reruns[0] is reruns[1] is cvs[j][1]
    rows, folds, method = cvs[j]
    X, y = rows()
    fits = baselines._fold_fits(method, *baselines._fold_systems(X, y, folds), grid)
    alpha, errors = cv_choice(X, y, folds, fits, grid)
    assert (tie[j][0], tie[j][1].tobytes()) == (alpha, errors.tobytes())
    for i in set(range(len(cvs))) - {j}:
        assert (tie[i][0], tie[i][1].tobytes()) == (scores[i][0], scores[i][1].tobytes()), i


# ------------------------------------------------------------- pinned bits

# cross_validate and fit_lasso on three seeded wine_like half splits, raw and
# standardized, as float.hex: the chosen alpha and the CV errors of ridge and
# lasso, and the lasso path's knots and theta at its chosen alpha. A change
# that moves any of these by rounding updates them and says so.
PINNED_WINE_FITS = {
    (0, False): {
        "ridge": ("0x1.94c583ada5b53p+1", (
            "0x1.dc97a7c1b051ep-2 0x1.dc979fd7b77dap-2 0x1.dc9786d229446p-2 "
            "0x1.dc9737bd50635p-2 0x1.dc963e1a5890ap-2 0x1.dc932d1396e80p-2 "
            "0x1.dc89a614d00d6p-2 0x1.dc6d29e7c254ap-2 0x1.dc21edbd94abdp-2 "
            "0x1.dba27c36a2c8bp-2 0x1.dc0ea21a027c8p-2 0x1.e06f8494d172ep-2 "
            "0x1.e8a91d2bd83d3p-2")),
        "lasso": ("0x1.94c583ada5b53p+1", (
            "0x1.dc97a8479ff2bp-2 0x1.dc97a17f33b2ap-2 0x1.dc978c0cac318p-2 "
            "0x1.dc97483f50293p-2 0x1.dc96720ab485ap-2 0x1.dc93ceb3f2fdep-2 "
            "0x1.dc8b8b7a44d23p-2 0x1.dc723662b4a63p-2 0x1.dc2a1119db136p-2 "
            "0x1.db8ccc7948eeap-2 0x1.dd768546fb503p-2 0x1.eb204e7f088bdp-2 "
            "0x1.f965365f47823p-2")),
        "knots": 12,
        "theta": (
            "0x1.b2024c562ffe6p-8 0x1.24c774cb87a77p-1 0x1.44a863ea26099p-1 "
            "0x1.9cfcde6aa89cdp-7 0x1.ea04f85981394p-4 0x1.a018573421951p-4 "
            "0x1.c49b6d1581a4fp-6 -0x1.c3d23bf7ee454p-11 0x1.b7b7112b6df1cp-8 "
            "0x1.2dcb796533819p-8 -0x1.d2741364fa572p-6"),
    },
    (0, True): {
        "ridge": ("0x1.9000000000000p+6", (
            "0x1.0f3ac24c1a035p+5 0x1.0f3ac1b581866p+5 0x1.0f3abfd9484cdp+5 "
            "0x1.0f3ab9f7594a6p+5 0x1.0f3aa75d57ba2p+5 0x1.0f3a6c8c4c72ap+5 "
            "0x1.0f39b29f26e1ep+5 0x1.0f37675998bc6p+5 0x1.0f302cfedb746p+5 "
            "0x1.0f19946123d5cp+5 0x1.0ed49fd6ffca4p+5 0x1.0e10a406da103p+5 "
            "0x1.0c41bae7f306ep+5")),
        "lasso": ("0x1.9000000000000p+6", (
            "0x1.0f3ac204a7cf2p+5 0x1.0f3ac0d392cf6p+5 0x1.0f3abd0ed21adp+5 "
            "0x1.0f3ab1240492ap+5 0x1.0f3a8b74aa17ap+5 0x1.0f3a144a60864p+5 "
            "0x1.0f389b82413c2p+5 0x1.0f33f48980b01p+5 0x1.0f2543857f1f3p+5 "
            "0x1.0ef67350e090ap+5 0x1.0e63286fd711dp+5 0x1.0ccfb761f0d9ep+5 "
            "0x1.0961c5606b00cp+5")),
        "knots": 5,
        "theta": (
            "0x1.a6c52c1e18c19p-4 0x1.ec029982bcafep-4 0x1.3ce8400143493p-3 "
            "0x1.e983ffc147fedp-5 0x1.7a56b2a0d9f0ap-7 0x0.0p+0 "
            "0x1.11dca640c93a1p-5 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0"),
    },
    (1, False): {
        "ridge": ("0x1.0000000000000p+0", (
            "0x1.c054b711603b2p-2 0x1.c054b5439146bp-2 0x1.c054af902475ep-2 "
            "0x1.c0549d9270c40p-2 0x1.c054650bdd826p-2 0x1.c053b5f37a1f0p-2 "
            "0x1.c051b05704f1ap-2 0x1.c04ca6672743dp-2 0x1.c048b5518c546p-2 "
            "0x1.c08fb6b84c39dp-2 0x1.c29ec55290588p-2 0x1.c8a1727ede212p-2 "
            "0x1.d04194a63f79bp-2")),
        "lasso": ("0x1.0000000000000p+0", (
            "0x1.c054b6dd81f4dp-2 0x1.c054b49f82713p-2 0x1.c054ad88fe2aap-2 "
            "0x1.c05497253b9a8p-2 0x1.c054509644356p-2 0x1.c05373e6a8b76p-2 "
            "0x1.c050d26cef802p-2 0x1.c04b0622f4582p-2 0x1.c049a95aa0470p-2 "
            "0x1.c0647643600d8p-2 0x1.c375c7387c906p-2 0x1.d6ad69b5923cep-2 "
            "0x1.d98592d037216p-2")),
        "knots": 10,
        "theta": (
            "0x1.c2edca7e8ecd2p-7 0x1.5c2aabde38f78p-1 0x1.1c8975cc86971p-1 "
            "0x1.4503afa14f0b1p-7 0x1.810499426bd67p-7 0x1.b663a531fa2a7p-4 "
            "0x1.1e34fbd2e8b2cp-5 0x1.d343c65250112p-9 -0x1.4ac3f1ddf7d71p-5 "
            "0x1.116ffcec5012cp-8 -0x1.0230412306184p-5"),
    },
    (1, True): {
        "ridge": ("0x1.9000000000000p+6", (
            "0x1.0967741b5ec30p+5 0x1.096773c292b84p+5 0x1.096772a9c5f72p+5 "
            "0x1.09676f31d127ap+5 0x1.09676439f5b45p+5 0x1.0967418bce7a6p+5 "
            "0x1.0966d3eb5365dp+5 0x1.096579aa8ab0bp+5 0x1.096136dff678bp+5 "
            "0x1.0953e67aaca3ep+5 0x1.092b5494f56b8p+5 0x1.08b87e2639ebap+5 "
            "0x1.07abc7b92566ap+5")),
        "lasso": ("0x1.9000000000000p+6", (
            "0x1.096773db71e8fp+5 0x1.096772f86c840p+5 0x1.0967702a85761p+5 "
            "0x1.0967674c533fep+5 0x1.09674b4172091p+5 0x1.0966f294f139fp+5 "
            "0x1.0965da36ba204p+5 0x1.0962640b84765p+5 0x1.095753d23b69ep+5 "
            "0x1.0933cf3ae0f00p+5 0x1.08c7f4fe2bb2bp+5 0x1.079de6ec01ad6p+5 "
            "0x1.05e3856b18160p+5")),
        "knots": 4,
        "theta": (
            "0x1.46351ce480dbep-3 0x1.055fd3c94c2d6p-3 0x1.fda6745a0e237p-4 "
            "0x1.3eb8b2bdf7787p-5 0x0.0p+0 0x0.0p+0 "
            "0x1.a6bc182451cf8p-5 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0"),
    },
    (2, False): {
        "ridge": ("0x1.0000000000000p+0", (
            "0x1.cf87441ff27eep-2 0x1.cf873ebe9695ap-2 0x1.cf872dbcce31ep-2 "
            "0x1.cf86f8070262ep-2 0x1.cf864ee2d295bp-2 0x1.cf843f085376ep-2 "
            "0x1.cf7dff01012abp-2 0x1.cf6cd0ec9c77ap-2 0x1.cf4d0186095e3p-2 "
            "0x1.cf7e52e79511ep-2 0x1.d2010b8a829fap-2 0x1.d90b5bc9762d3p-2 "
            "0x1.e16f74ebe4613p-2")),
        "lasso": ("0x1.94c583ada5b53p+1", (
            "0x1.cf87434ebdf6ep-2 0x1.cf873c28e2b3dp-2 0x1.cf87258ee229ap-2 "
            "0x1.cf86de1b10100p-2 0x1.cf85fc5a7c92ap-2 0x1.cf833476b6523p-2 "
            "0x1.cf7a7d49474eep-2 0x1.cf5fb5d6d1cf2p-2 0x1.cf1df96e1aebbp-2 "
            "0x1.ceaca41188d1dp-2 0x1.d07b00af53d62p-2 0x1.eabb08948063ep-2 "
            "0x1.ebb87c8d9ee4ep-2")),
        "knots": 14,
        "theta": (
            "0x1.6773255825b0ap-7 0x1.c118f0277650cp-1 0x1.c4d1499d400cbp-2 "
            "0x1.a52cd644e0cfbp-8 0x1.571fba2b74f3ep-6 0x1.97555d3bced7dp-4 "
            "0x1.386cc480bb601p-5 -0x1.2a937af50cfd2p-8 0x1.832ba549babf4p-5 "
            "0x1.7c1bf60fc6b1ep-8 -0x1.14b7102996990p-7"),
    },
    (2, True): {
        "ridge": ("0x1.9000000000000p+6", (
            "0x1.09bd39729f1fap+5 0x1.09bd392ea6d0ep+5 0x1.09bd3857b6696p+5 "
            "0x1.09bd35b005f92p+5 0x1.09bd2d4abc533p+5 0x1.09bd12bedfd95p+5 "
            "0x1.09bcbed44d903p+5 0x1.09bbb5c4a18d6p+5 0x1.09b8729cbb825p+5 "
            "0x1.09ae3fa2326ebp+5 0x1.098f1f247d01fp+5 0x1.0936a5915c4dfp+5 "
            "0x1.0865f0760c0e2p+5")),
        "lasso": ("0x1.9000000000000p+6", (
            "0x1.09bd393624f0ep+5 0x1.09bd386f67dc0p+5 0x1.09bd35faf0a47p+5 "
            "0x1.09bd2e3790ff2p+5 0x1.09bd15ab08802p+5 0x1.09bcc80a88c87p+5 "
            "0x1.09bbd667f0951p+5 0x1.09b8f63764767p+5 0x1.09afe11a4c1dap+5 "
            "0x1.09934b3e47746p+5 0x1.093a5c6337188p+5 0x1.0858968b32cf7p+5 "
            "0x1.06e8116fde9a9p+5")),
        "knots": 5,
        "theta": (
            "0x1.23d22412676c6p-3 0x1.6490ce522dc9dp-3 0x1.6753b342f9419p-4 "
            "0x1.6bc8a485a3946p-6 0x0.0p+0 0x0.0p+0 "
            "0x1.1f18a9e9c6b3bp-4 0x0.0p+0 0x0.0p+0 "
            "0x1.223317c31a370p-9 0x0.0p+0"),
    },
}


@pytest.mark.parametrize("seed,standardized", sorted(PINNED_WINE_FITS))
def test_cv_and_lasso_fits_are_pinned_to_the_bit(seed, standardized):
    pinned = PINNED_WINE_FITS[seed, standardized]
    train, _ = split_train_test(load_bundled("wine_like"), 0.5, seed)
    X = train.X
    if standardized:
        X = apply_standardizer(fit_standardizer(X), X)
    for method in ("ridge", "lasso"):
        alpha, errors = cross_validate(X, train.y, method, seed=seed)
        assert (alpha.hex(), [float(e).hex() for e in errors]) == (
            pinned[method][0], pinned[method][1].split()), method
    theta, info = fit_lasso(X, train.y, alpha, return_info=True)
    assert info["path_knots"] == pinned["knots"]
    assert [float(v).hex() for v in theta] == pinned["theta"].split()
