"""Reference regressors: least squares, ridge, lasso, and k-fold CV.

All three minimize the *unnormalized* squared loss ||X theta - y||^2 (no
1/m or 1/(2m) factor, no intercept), so their objectives are directly
comparable with the game costs:

    ols    argmin ||X theta - y||^2
    ridge  argmin ||X theta - y||^2 + alpha * ||theta||^2
    lasso  argmin ||X theta - y||^2 + alpha * ||theta||_1

Ridge and lasso are read off exact regularization paths, so
cross-validation factors each fold once instead of refitting per alpha:

* ridge: one eigendecomposition X^T X = V diag(lam) V^T gives
  theta(alpha) = V diag(1 / (lam + alpha)) V^T X^T y for every alpha
  (Hastie, Tibshirani & Friedman, ESL 3.4).
* lasso: the LARS-lasso homotopy (Osborne, Presnell & Turlach 2000;
  Efron, Hastie, Johnstone & Tibshirani 2004). With t = alpha / 2 (the
  quadratic term has no 1/2) the optimality conditions read
  X^T (y - X theta) = t sign(theta) on the support and |.| <= t off it.
  Between knots the support A and its signs s are fixed and
  theta_A(t) = G_AA^-1 (X_A^T y - t s) is linear in t, G = X^T X. The
  path starts at theta = 0, t = max |X^T y|; each knot adds the column
  whose correlation reaches t or drops the one whose coefficient reaches
  zero, and every requested alpha is read off its segment.

The homotopy is exact while each active-set Gram passes solve_spd's
pivot test. When one fails (collinear columns, or a wide design followed
to alpha near 0), or more than d knots in a row fall at the same t (tied
columns trading places), the path is degenerate: the alphas it has not
reached are fit by cyclic coordinate descent (`fit_lasso_cd`, soft
threshold at alpha / 2) started from the last exact path point.
`fit_lasso_cd` is also the tests' oracle.
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
from .linalg import PIVOT_RTOL, solve_spd, sym_eig


def _default_alpha_grid():
    return np.logspace(-4.0, 2.0, 13)


@dataclass(eq=False)
class FitConfig:
    """Baseline fit settings.

    cd_tol and cd_max_sweeps govern only coordinate descent, which runs as
    the lasso's fallback on a degenerate path and as `fit_lasso_cd`.
    """

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
    # row-major copies: column reductions round by memory layout
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
    y = np.ascontiguousarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DimensionMismatch(f"y has shape {y.shape}, X has {X.shape[0]} rows")
    return X, y


def fit_ols(X, y):
    X, y = _check_xy(X, y)
    try:
        return solve_spd(X.T @ X, X.T @ y)
    except NotPositiveDefinite as exc:
        raise SingularDesign("X^T X is not numerically positive definite") from exc


def _ridge_path(G, b, alphas):
    """Ridge coefficients (one row per alpha) from one eigendecomposition of G.

    Raises SingularDesign when some alpha leaves lam_min + alpha at or
    below PIVOT_RTOL * (lam_max + alpha).
    """
    lam, V = sym_eig(G)  # descending
    singular = ~(lam[-1] + alphas > PIVOT_RTOL * (lam[0] + alphas))
    if np.any(singular):
        raise SingularDesign(
            f"ridge system is not positive definite at alpha={alphas[singular][0]:g}"
        )
    return (V.T @ b / (lam + alphas[:, None])) @ V.T


def fit_ridge(X, y, alpha):
    X, y = _check_xy(X, y)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return _ridge_path(X.T @ X, X.T @ y, np.array([float(alpha)]))[0]


def _coordinate_descent(G, b, alpha, theta, cfg):
    """Cyclic coordinate descent on the Gram matrix, updating theta in place.

    theta_j <- soft(rho_j, alpha/2) / G_jj with rho_j = b_j - (G theta)_j +
    G_jj theta_j; sweeps stop once the largest coordinate change is at most
    cfg.cd_tol. Zero-norm columns keep a zero coefficient. Hitting the sweep
    cap emits MaxSweepsExceeded and returns the iterate.
    """
    col_sq = np.diag(G)
    live = np.flatnonzero(col_sq > 0.0)
    theta[col_sq == 0.0] = 0.0
    Gtheta = G @ theta
    half = 0.5 * alpha
    for _ in range(cfg.cd_max_sweeps):
        max_delta = 0.0
        for j in live:
            rho = b[j] - Gtheta[j] + col_sq[j] * theta[j]
            new = np.sign(rho) * max(abs(rho) - half, 0.0) / col_sq[j]
            delta = new - theta[j]
            if delta != 0.0:
                Gtheta += G[:, j] * delta
                theta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta <= cfg.cd_tol:
            return theta
    warnings.warn(
        f"coordinate descent stopped at cap {cfg.cd_max_sweeps}", MaxSweepsExceeded
    )
    return theta


def _lasso_path(G, b, alphas, cfg):
    """Lasso coefficients (one row per alpha) along one homotopy.

    Returns (thetas, solver, knots): solver is "path", or "cd" when the
    path degenerated before the smallest alpha (see the module docstring);
    knots counts the knots passed.
    """
    d = b.size
    halves = 0.5 * alphas
    thetas = np.zeros((alphas.size, d))
    live = np.diag(G) > 0.0
    t = float(np.max(np.abs(b[live]), initial=0.0))
    # alphas at or above 2 max|X^T y| keep theta = 0
    pending = [int(k) for k in np.argsort(-halves, kind="stable") if halves[k] < t]
    theta = np.zeros(d)  # the exact solution at t
    j = int(np.argmax(np.where(live, np.abs(b), -1.0)))
    active, signs = [j], [float(np.sign(b[j]))]
    # the column that just left may not rejoin on the same side at its own knot
    left, left_sign = -1, 0.0
    knots = stalls = 0
    while pending and active:
        A = np.array(active)
        try:
            U = solve_spd(G[np.ix_(A, A)], np.column_stack([b[A], signs]))
        except NotPositiveDefinite:
            break
        u, w = U[:, 0], U[:, 1]  # theta_A(s) = u - s w on this segment
        GU = G[:, A] @ U
        p, a = b - GU[:, 0], GU[:, 1]  # correlations X^T (y - X theta(s)) = p + s a
        free = live.copy()
        free[A] = False
        # largest s < t where a free correlation reaches +s or -s, or an
        # active coefficient reaches zero; clipped at t against rounding
        up = np.divide(p, 1.0 - a, out=np.full(d, -np.inf), where=free & (a < 1.0))
        down = np.divide(-p, 1.0 + a, out=np.full(d, -np.inf), where=free & (a > -1.0))
        if left >= 0:
            (up if left_sign > 0 else down)[left] = -np.inf
        join = np.minimum(np.maximum(up, down), t)
        leave = np.minimum(
            np.divide(u, w, out=np.full(A.size, -np.inf), where=np.array(signs) * w < 0.0),
            t,
        )
        j, i = int(np.argmax(join)), int(np.argmax(leave))
        t_next = max(join[j], leave[i], 0.0)
        while pending and halves[pending[0]] >= t_next:
            k = pending.pop(0)
            thetas[k, A] = u - halves[k] * w
        if not pending:
            break
        theta = np.zeros(d)
        theta[A] = u - t_next * w
        stalls = stalls + 1 if t_next >= t else 0
        t = t_next
        knots += 1
        if stalls > d:
            break
        if leave[i] >= join[j]:
            left, left_sign = active.pop(i), signs.pop(i)
            theta[left] = 0.0
        else:
            active.append(j)
            signs.append(1.0 if up[j] >= down[j] else -1.0)
            left = -1
    for k in pending:
        thetas[k] = _coordinate_descent(G, b, alphas[k], theta.copy(), cfg)
    return thetas, "cd" if pending else "path", knots


def fit_lasso(X, y, alpha, cfg=None, *, return_info=False):
    """Lasso at one alpha, read off the homotopy path.

    With return_info, returns (theta, {"solver": "path" | "cd",
    "path_knots": int}) instead of theta.
    """
    X, y = _check_xy(X, y)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    thetas, solver, knots = _lasso_path(
        X.T @ X, X.T @ y, np.array([float(alpha)]), cfg or FitConfig()
    )
    if return_info:
        return thetas[0], {"solver": solver, "path_knots": knots}
    return thetas[0]


def fit_lasso_cd(X, y, alpha, cfg=None, theta0=None):
    """Lasso at one alpha by cyclic coordinate descent (the path's oracle).

    Starts from theta0, or else from the matching ridge solution (zeros on
    singular designs); cfg.cd_tol and cfg.cd_max_sweeps as in
    `_coordinate_descent`.
    """
    X, y = _check_xy(X, y)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    G = X.T @ X
    b = X.T @ y
    if theta0 is None:
        try:
            theta = solve_spd(G + alpha * np.eye(X.shape[1]), b)
        except NotPositiveDefinite:
            theta = np.zeros(X.shape[1])
    else:
        theta = np.array(theta0, dtype=float)
    return _coordinate_descent(G, b, alpha, theta, cfg or FitConfig())


def cross_validate(X, y, method, cfg=None, seed=0):
    """Pick alpha for ridge/lasso by k-fold CV on held-out squared error.

    Rows are shuffled once with the given seed and cut into contiguous
    folds (the first m mod k folds get the extra row). Each fold fits every
    alpha from one regularization path. The score of an alpha is the mean
    over folds of ||X_val theta - y_val||^2 / |fold|; ties go to the larger
    alpha.

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
        X_trn = X[trn]
        G, b = X_trn.T @ X_trn, X_trn.T @ y[trn]
        if method == "ridge":
            thetas = _ridge_path(G, b, grid)
        else:
            thetas = _lasso_path(G, b, grid, cfg)[0]
        R = X[val] @ thetas.T - y[val][:, None]
        errors += np.sum(R * R, axis=0) / val.size
    errors /= k

    best_idx = 0
    for i in range(grid.size):
        if errors[i] < errors[best_idx] or (
            errors[i] == errors[best_idx] and grid[i] > grid[best_idx]
        ):
            best_idx = i
    return float(grid[best_idx]), errors
