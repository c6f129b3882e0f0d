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
  (Hastie, Tibshirani & Friedman, ESL 3.4), `linalg.shifted_solve`. An
  alpha with lam_min + alpha <= PIVOT_RTOL * (lam_max + alpha) raises
  SingularDesign. OLS is this path at alpha = 0, so `fit_ols` and
  `fit_ridge(X, y, 0)` are one computation.
* lasso: the LARS-lasso homotopy (Osborne, Presnell & Turlach 2000;
  Efron, Hastie, Johnstone & Tibshirani 2004). With t = alpha / 2 (the
  quadratic term has no 1/2) the optimality conditions read
  X^T (y - X theta) = t sign(theta) on the support and |.| <= t off it.
  Between knots the support A and its signs s are fixed and
  theta_A(t) = G_AA^-1 (X_A^T y - t s) is linear in t, G = X^T X. The
  path starts at theta = 0, t = max |X^T y|; each knot adds the column
  whose correlation reaches t or drops the one whose coefficient reaches
  zero, and every requested alpha is read off its segment.

The path keeps H, the inverse of the active Gram scaled to unit diagonal,
so G_AA^-1 = D H D with D = diag(G_AA)^-1/2 and no knot solves a system: a
bordered update when a column joins, a rank-one downdate when one leaves
(Efron et al. 2004, section 7). A column in the span of the active columns
never joins. The Schur complement 1 - g^T H g of a joining column (g its
unit-scaled Gram column) is its new squared Cholesky pivot, its squared
distance from the active span against its own squared norm. When that is
not above PIVOT_RTOL the column is spanned: it is marked and stays out, and
the segment stands. This is exact: x_j = X_A c has correlation t c^T s, at
most t where it tried to join, so theta_j = 0 stays optimal until a leave
shrinks the span and clears the marks. A column within
sqrt(PIVOT_RTOL) = 1e-6 of the span, relative to its norm, counts as
spanned; its condition then holds to about 1e-6 ||x_j|| ||y - X theta||. At
tied knots a column that left at t may not rejoin on its side while the set
it left is active at t (its correlation moves inward or along the bound).
Bars only accumulate at one t, so the knots there end unless the state
after a leave recurs, and then NoConvergence is raised instead of a cycle.

Only the matrix algebra of a knot runs in numpy: the segment U = D H D
[b_A, s], the correlations G[:, A] U, and the join and leave updates of H.
The O(d) rest runs on Python floats, read off the segment once: each free
column's join time and side, each active coefficient's leave time, the
first maximum of each (the lowest index, as np.argmax takes), and the
coefficients at every requested alpha. On small d this drops numpy's
per-call overhead, which was most of a knot. The results are bit-identical
to the elementwise numpy form, because + - * / and comparisons on Python
floats round as numpy's elementwise ufuncs do, and every product that sums
stays in the same BLAS call.
`fit_lasso_cd` (cyclic coordinate descent) is the tests' oracle.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, MaxSweepsExceeded, NoConvergence, NotPositiveDefinite
from .linalg import PIVOT_RTOL, shifted_solve, solve_spd


def _default_alpha_grid():
    return np.logspace(-4.0, 2.0, 13)


@dataclass(eq=False)
class FitConfig:
    """Cross-validation settings for ridge and lasso.

    The alpha grid must be non-empty, finite and non-negative.
    """

    cv_folds: int = 5
    cv_alpha_grid: np.ndarray = field(default_factory=_default_alpha_grid)

    def __post_init__(self):
        self.cv_alpha_grid = grid = np.asarray(self.cv_alpha_grid, dtype=float)
        if grid.size == 0 or not np.all(np.isfinite(grid) & (grid >= 0.0)):
            raise ValueError("cv_alpha_grid must be non-empty, finite and non-negative")

    def as_dict(self):
        return {
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


def _check_alpha(alpha):
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    return alpha


def fit_ols(X, y):
    """Least squares: the ridge path at alpha = 0."""
    return fit_ridge(X, y, 0.0)


def fit_ridge(X, y, alpha):
    X, y = _check_xy(X, y)
    alpha = _check_alpha(alpha)
    return shifted_solve(X.T @ X, X.T @ y, np.array([alpha]))[0]


def _lasso_path(G, b, alphas):
    """Lasso coefficients (one row per alpha) along one homotopy.

    Returns (thetas, knots), knots counting the knots passed. Raises
    NoConvergence when the knots at one t return to a state they left.
    """
    d = b.size
    halves = 0.5 * alphas
    live = np.diag(G) > 0.0
    r = 1.0 / np.sqrt(np.where(live, np.diag(G), 1.0))
    unit = G * r[:, None] * r  # unit diagonal on live columns
    t = float(np.max(np.abs(b[live]), initial=0.0))
    # alphas at or above 2 max|X^T y| keep theta = 0
    order, halves = np.argsort(-halves, kind="stable").tolist(), halves.tolist()
    pending = [k for k in order if halves[k] < t]
    thetas = [[0.0] * d for _ in halves]
    j = int(np.argmax(np.where(live, np.abs(b), -1.0)))
    live = live.tolist()
    active, signs = [j], [float(np.sign(b[j]))]
    H = np.ones((1, 1))  # inverse of unit[A, A], updated at each knot
    spanned = set()  # free columns in the span of the active columns
    # each column that left at the current t, with the set it left and its
    # side: it may not rejoin on that side while that set is active
    barred = set()
    seen = set()  # (active, signs, bars) after each leave at the current t
    knots = 0
    A = None  # the current segment's active columns; None once the set changes
    while pending and active:
        if A is None:
            A = np.array(active)
            rA = r[A, None]
            rhs = np.empty((A.size, 2))
            rhs[:, 0], rhs[:, 1] = b[A], signs
            U = rA * (H @ (rA * rhs))
            GU = G[:, A] @ U
            # theta_A(s) = u - s w, correlations X^T (y - X theta(s)) = p + s a
            u, w = U.T.tolist()
            p, a = (b - GU[:, 0]).tolist(), GU[:, 1].tolist()
            free = [k for k in range(d) if live[k] and k not in active]
        # largest s < t where a free correlation reaches +s or -s, or an
        # active coefficient reaches zero; clipped at t against rounding,
        # ties to the lowest index
        key = frozenset(active)
        bars = {(col, side > 0.0) for S, col, side in barred if S == key}
        join, j, join_up = -np.inf, 0, True
        for k in free:
            if k in spanned:
                continue
            pk, ak = p[k], a[k]
            up = pk / (1.0 - ak) if ak < 1.0 and (k, True) not in bars else -np.inf
            down = -pk / (1.0 + ak) if ak > -1.0 and (k, False) not in bars else -np.inf
            s = up if up >= down else down
            if s > t:
                s = t
            if s > join:
                join, j, join_up = s, k, up >= down
        leave, i = -np.inf, 0
        for n, (sn, un, wn) in enumerate(zip(signs, u, w)):
            if sn * wn < 0.0:
                s = un / wn
                if s > t:
                    s = t
                if s > leave:
                    leave, i = s, n
        t_next = max(join, leave, 0.0)
        while pending and halves[pending[0]] >= t_next:
            half, row = halves[pending[0]], thetas[pending.pop(0)]
            for col, sn, un, wn in zip(active, signs, u, w):
                x = un - half * wn  # at its own knot it may round past zero
                row[col] = 0.0 if sn * x < 0.0 else x
        if not pending:
            break
        if t_next < t:
            barred, seen = set(), set()
        t = t_next
        if leave >= join:
            col, side = active.pop(i), signs.pop(i)
            q = np.delete(H[:, i], i)
            H = np.delete(np.delete(H, i, 0), i, 1) - np.outer(q, q) / H[i, i]
            barred.add((frozenset(active), col, side))
            spanned.clear()
            # the path goes on as a function of this state; bars only grow
            state = (tuple(active), tuple(signs), len(barred))
            if state in seen:
                raise NoConvergence(f"lasso path cycles at alpha={2.0 * t:g}: tied columns")
            seen.add(state)
        else:
            g = unit[A, j]
            h = H @ g
            schur = 1.0 - g @ h  # x_j's squared pivot, against its own norm
            if not schur > PIVOT_RTOL:
                spanned.add(j)  # stays out; the segment is unchanged
                continue
            v = np.concatenate((h, [-1.0]))  # H' = [[H, 0], [0, 0]] + v v^T / schur
            bordered = np.outer(v, v) / schur
            bordered[:-1, :-1] += H
            H = bordered
            active.append(j)
            signs.append(1.0 if join_up else -1.0)
        knots += 1
        A = None
    return np.array(thetas), knots


def fit_lasso(X, y, alpha, *, return_info=False):
    """Lasso at one alpha, read off the homotopy path.

    With return_info, returns (theta, {"solver": "path", "path_knots": int})
    instead of theta.
    """
    X, y = _check_xy(X, y)
    alpha = _check_alpha(alpha)
    thetas, knots = _lasso_path(X.T @ X, X.T @ y, np.array([alpha]))
    if return_info:
        return thetas[0], {"solver": "path", "path_knots": knots}
    return thetas[0]


def fit_lasso_cd(X, y, alpha, theta0=None, *, tol=1e-9, max_sweeps=10000):
    """Lasso at one alpha by cyclic coordinate descent (the path's oracle).

    Starts from theta0, or else from the matching ridge solution (zeros on
    singular designs). Each sweep sets theta_j <- soft(rho_j, alpha/2) / G_jj
    with rho_j = b_j - (G theta)_j + G_jj theta_j, G = X^T X, b = X^T y;
    sweeps stop once the largest coordinate change is at most tol.
    Zero-norm columns keep a zero coefficient. Hitting max_sweeps emits
    MaxSweepsExceeded and returns the iterate.
    """
    X, y = _check_xy(X, y)
    alpha = _check_alpha(alpha)
    G = X.T @ X
    b = X.T @ y
    if theta0 is None:
        try:
            theta = solve_spd(G + alpha * np.eye(X.shape[1]), b)
        except NotPositiveDefinite:
            theta = np.zeros(X.shape[1])
    else:
        theta = np.array(theta0, dtype=float)
    col_sq = np.diag(G)
    live = np.flatnonzero(col_sq > 0.0)
    theta[col_sq == 0.0] = 0.0
    Gtheta = G @ theta
    half = 0.5 * alpha
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in live:
            rho = b[j] - Gtheta[j] + col_sq[j] * theta[j]
            new = np.sign(rho) * max(abs(rho) - half, 0.0) / col_sq[j]
            delta = new - theta[j]
            if delta != 0.0:
                Gtheta += G[:, j] * delta
                theta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta <= tol:
            return theta
    warnings.warn(f"coordinate descent stopped at cap {max_sweeps}", MaxSweepsExceeded)
    return theta


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
    grid = cfg.cv_alpha_grid
    perm = np.random.default_rng(seed).permutation(m)
    folds = np.array_split(perm, k)  # the first m mod k folds get a row more

    errors = np.zeros(grid.size)
    for f in range(k):
        val = folds[f]
        trn = np.concatenate([folds[g] for g in range(k) if g != f])
        X_trn = X[trn]
        G, b = X_trn.T @ X_trn, X_trn.T @ y[trn]
        if method == "ridge":
            thetas = shifted_solve(G, b, grid)
        else:
            thetas = _lasso_path(G, b, grid)[0]
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
