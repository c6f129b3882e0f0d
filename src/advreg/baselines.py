"""Reference regressors: least squares, ridge, lasso, and k-fold CV.

All three minimize the *unnormalized* squared loss ||X theta - y||^2 (no
1/m or 1/(2m) factor, no intercept), so their objectives are directly
comparable with the game costs:

    ols    argmin ||X theta - y||^2
    ridge  argmin ||X theta - y||^2 + alpha * ||theta||^2
    lasso  argmin ||X theta - y||^2 + alpha * ||theta||_1

The lasso coordinate update is the soft threshold at alpha / 2 because of
the missing 1/2 on the quadratic term.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionMismatch,
    MaxSweepsExceeded,
    NotPositiveDefinite,
    SingularDesign,
)
from .linalg import solve_spd


def _default_alpha_grid():
    return np.logspace(-4.0, 2.0, 13)


@dataclass(eq=False)
class FitConfig:
    cd_tol: float = 1e-9
    cd_max_sweeps: int = 10000
    cv_folds: int = 5
    cv_alpha_grid: np.ndarray = field(default_factory=_default_alpha_grid)

    def __post_init__(self):
        self.cv_alpha_grid = np.asarray(self.cv_alpha_grid, dtype=float)

    def as_dict(self):
        return {
            "cd_tol": float(self.cd_tol),
            "cd_max_sweeps": int(self.cd_max_sweeps),
            "cv_folds": int(self.cv_folds),
            "cv_alpha_grid": [float(a) for a in self.cv_alpha_grid],
        }


def _check_xy(X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DimensionMismatch(f"y has shape {y.shape}, X has {X.shape[0]} rows")
    return X, y


def fit_ols(X, y):
    X, y = _check_xy(X, y)
    try:
        return solve_spd(X.T @ X, X.T @ y)
    except NotPositiveDefinite as exc:
        raise SingularDesign("X^T X is not numerically positive definite") from exc


def fit_ridge(X, y, alpha):
    X, y = _check_xy(X, y)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    A = X.T @ X + alpha * np.eye(X.shape[1])
    try:
        return solve_spd(A, X.T @ y)
    except NotPositiveDefinite as exc:
        raise SingularDesign("ridge system is not positive definite") from exc


def fit_lasso(X, y, alpha, cfg=None, theta0=None):
    """Cyclic coordinate descent for the unnormalized lasso.

    theta_j <- soft(rho_j, alpha/2) / x_j^T x_j with
    rho_j = x_j^T (y - X theta + x_j theta_j); sweeps stop once the largest
    coordinate change is at most cfg.cd_tol. Zero-norm columns keep a zero
    coefficient. Hitting the sweep cap emits MaxSweepsExceeded and returns
    the iterate.

    Sweeps run against the precomputed Gram matrix, so a sweep costs
    O(d^2) independent of the sample count. `theta0` warm-starts the
    iteration (used along CV paths); without it the iteration starts from
    the matching ridge solution (falling back to zeros on singular
    designs). Every few sweeps the exact minimizer restricted to the
    current support and sign pattern is computed and adopted when it is
    sign-consistent — a restricted minimum, so the objective never
    increases — which collapses the slow zig-zag tail on correlated or
    badly scaled columns. Termination is still decided only by the sweep
    rule above.
    """
    X, y = _check_xy(X, y)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    cfg = cfg or FitConfig()
    d = X.shape[1]
    G = X.T @ X
    c = X.T @ y
    col_sq = np.diag(G).copy()
    live = col_sq > 0.0
    if theta0 is None:
        try:
            theta = solve_spd(G + alpha * np.eye(d), c)
        except NotPositiveDefinite:
            theta = np.zeros(d)
    else:
        theta = np.asarray(theta0, dtype=float).copy()
    theta[~live] = 0.0
    Gtheta = G @ theta
    half = 0.5 * alpha
    for sweep in range(cfg.cd_max_sweeps):
        max_delta = 0.0
        for j in range(d):
            if not live[j]:
                continue
            rho = c[j] - Gtheta[j] + col_sq[j] * theta[j]
            new = np.sign(rho) * max(abs(rho) - half, 0.0) / col_sq[j]
            delta = new - theta[j]
            if delta != 0.0:
                Gtheta += G[:, j] * delta
                theta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta <= cfg.cd_tol:
            break
        if (sweep + 1) % 4 == 0:
            support = np.flatnonzero(theta)
            if support.size == 0:
                continue
            signs = np.sign(theta[support])
            try:
                polished = solve_spd(
                    G[np.ix_(support, support)], c[support] - half * signs
                )
            except NotPositiveDefinite:
                continue
            if np.all(np.sign(polished) == signs):
                theta = np.zeros(d)
                theta[support] = polished
                Gtheta = G @ theta
    else:
        warnings.warn(
            f"coordinate descent stopped at cap {cfg.cd_max_sweeps}", MaxSweepsExceeded
        )
    return theta


def cross_validate(X, y, method, cfg=None, seed=0):
    """Pick alpha for ridge/lasso by k-fold CV on held-out squared error.

    Rows are shuffled once with the given seed and cut into contiguous
    folds (the first m mod k folds get the extra row). The score of an
    alpha is the mean over folds of ||X_val theta - y_val||^2 / |fold|;
    ties go to the larger alpha.

    Returns (alpha_best, cv_errors) with cv_errors aligned to
    cfg.cv_alpha_grid.
    """
    X, y = _check_xy(X, y)
    cfg = cfg or FitConfig()
    if method not in ("ridge", "lasso"):
        raise ValueError(f"method must be 'ridge' or 'lasso', got {method!r}")
    k = int(cfg.cv_folds)
    m = X.shape[0]
    if k < 2 or k > m:
        raise ValueError(f"cv_folds must be in 2..{m}, got {k}")
    grid = np.asarray(cfg.cv_alpha_grid, dtype=float)
    if grid.size == 0 or np.any(grid < 0):
        raise ValueError("cv_alpha_grid must be non-empty and non-negative")
    perm = np.random.default_rng(seed).permutation(m)
    base, extra = divmod(m, k)
    folds = []
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        folds.append(perm[start : start + size])
        start += size

    errors = np.zeros(grid.size)
    for f in range(k):
        val = folds[f]
        trn = np.concatenate([folds[g] for g in range(k) if g != f])
        X_trn, y_trn = X[trn], y[trn]
        X_val, y_val = X[val], y[val]
        # descending-alpha path so lasso warm starts stay sparse
        path = np.argsort(-grid, kind="stable")
        warm = None
        for idx in path:
            if method == "ridge":
                theta = fit_ridge(X_trn, y_trn, grid[idx])
            else:
                theta = fit_lasso(X_trn, y_trn, grid[idx], cfg, theta0=warm)
                warm = theta
            r = X_val @ theta - y_val
            errors[idx] += float(r @ r) / val.size
    errors /= k

    best_idx = 0
    for i in range(grid.size):
        if errors[i] < errors[best_idx] or (
            errors[i] == errors[best_idx] and grid[i] > grid[best_idx]
        ):
            best_idx = i
    return float(grid[best_idx]), errors
