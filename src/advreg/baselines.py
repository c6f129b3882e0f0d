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
  `fit_ridge(X, y, 0)` are one computation. Ridge CV decomposes its fold
  Grams as one stack; a sweep block stacks every fold Gram of its scenarios
  with their training X^T X, and reads its ridge and OLS fits off that one
  `sym_eig` call (`evaluate`), as `cross_validate` and
  `linalg.shifted_solve` would have them.
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
the segment stands; the attempt is no knot. This is exact: x_j = X_A c has
correlation t c^T s, at most t where it tried to join, so theta_j = 0 stays
optimal until a leave shrinks the span and clears the marks. A column
within sqrt(PIVOT_RTOL) = 1e-6 of the span, relative to its norm, counts as
spanned; its condition then holds to about 1e-6 ||x_j|| ||y - X theta||. At
tied knots (the next knot at the current t, as at a tied start) a column
that left at t may not rejoin on its side while the set it left is active
at t (its correlation moves inward or along the bound). Bars only
accumulate at one t, so the knots there end unless the state after a leave
recurs, and then NoConvergence is raised instead of a cycle.

`lasso_paths` runs the homotopies of a stack of Gram systems in lockstep,
one knot per path per step, as masked array operations, and `fit_lasso` is
its stack of one. The spanned columns are a mask. Where t moves, only the
column that left at the knot before is barred, a mask for one step; ties
are rare, so each path inside one keeps its bars and the states after its
leaves as Python sets. `cross_validate` stacks its lasso folds; a sweep
block stacks every lasso CV fold of its scenarios and their deployed paths
in one call (`evaluate`). k-fold CV (ESL 7.10) sums each fold's
training system from the other folds' Gram blocks and scores it by a
quadratic form in its own block, or from residuals where rounding could
decide the choice (`_fold_blocks`, `_cv_score`).
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, NoConvergence, NonFinite
from .linalg import PIVOT_RTOL, shifted_solve
# unused here; perfbench/selftest.py asserts that its tracer restores this binding
from .linalg import solve_spd  # noqa: F401


def _default_alpha_grid():
    return np.logspace(-4.0, 2.0, 13)


@dataclass(eq=False)
class FitConfig:
    """Cross-validation settings for ridge and lasso.

    cv_folds must be an integer (not a bool) of at least 2, and the alpha
    grid non-empty, finite and non-negative.
    """

    cv_folds: int = 5
    cv_alpha_grid: np.ndarray = field(default_factory=_default_alpha_grid)

    def __post_init__(self):
        k = self.cv_folds
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 2:
            raise ValueError(f"cv_folds must be an integer >= 2, got {k!r}")
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
    for name, v in (("X", X), ("y", y)):
        if not np.isfinite(v).all():
            raise NonFinite(f"{name} contains non-finite entries")
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


def lasso_paths(G, b, alphas):
    """Lasso homotopies on a stack of Gram systems: G (k, d, d) and b (k, d),
    each an X^T X and X^T y, and alphas (k, n) give thetas (k, n, d) and
    knots (k, n), the knots each path passed when it read each alpha.

    The paths run in lockstep, one knot per path per step, as masked array
    operations. Active columns, signs and H are kept in join order and
    zero-padded, so a padded product sums an unpadded path's terms in its
    order (a zero term changes no BLAS sum); h = H g, whose BLAS kernel
    groups terms by length, runs unpadded, one stack per active-set size.
    Raises NoConvergence when the knots at one t return to a state they left.
    """
    k, d = b.shape
    e = d + 1  # position d pads: act d, signs and H zero
    diag = np.diagonal(G, axis1=1, axis2=2)
    live = diag > 0.0
    r = 1.0 / np.sqrt(np.where(live, diag, 1.0))
    rb = np.stack((r * b, r), axis=2)  # per column: r b, r
    halves = 0.5 * alphas
    t = np.max(np.where(live, np.abs(b), 0.0), axis=1)
    # alphas at or above 2 max|X^T y| keep theta = 0
    pending = halves < t[:, None]
    j = np.argmax(np.where(live, np.abs(b), -1.0), axis=1)
    rows = np.arange(k)
    act = np.full((k, e), d)
    act[:, 0] = j
    S = np.zeros((k, e, 2))  # 1 and the sign; 0 and 0 on the pad
    S[:, 0, 0], S[:, 0, 1] = 1.0, np.sign(b[rows, j])
    H = np.zeros((k, e, e))  # inverse of the unit-scaled active Gram
    H[:, 0, 0] = 1.0
    na = np.ones(k, dtype=int)
    free = np.repeat(live[:, None], 2, axis=1)  # may join going up, going down
    free[rows, :, j] = False
    spanned = np.zeros((k, d), dtype=bool)  # free columns in the span of the active ones
    bar = np.zeros((k, 2, d), dtype=bool)  # may not join at this step, on that side
    # per path whose last step kept its t: each column that left at t, with
    # the set it left and its side, and the states after those leaves
    ties = {}
    knots = np.zeros(k, dtype=int)
    read_at = np.zeros(alphas.shape, dtype=int)  # knots passed when each alpha was read
    thetas = np.zeros((k, alphas.shape[1], e))  # column d takes the padding
    flip = np.array([[1.0], [-1.0]])
    on = pending.any(axis=1)  # a finished path rides along, masked out

    def left_at_tie(path, col, side):
        """col may not rejoin the path on its side while the set it left is
        active at this t; the path goes on as a function of its state after
        the leave, and bars only grow, so a state that recurs is a cycle."""
        barred, seen = ties[path]
        A = act[path, :na[path]].tolist()
        barred.add((frozenset(A), col, side))
        state = (tuple(A), tuple(S[path, :len(A), 1].tolist()), len(barred))
        if state in seen:
            raise NoConvergence(f"lasso path cycles at alpha={2.0 * t[path]:g}: tied columns")
        seen.add(state)

    while on.any():
        # the pad reads a real column, which only ever meets zeros
        col_of = (rows[:, None], np.minimum(act, d - 1))
        C = rb[col_of]
        U = C[:, :, 1:] * (H @ (C * S))  # r_A * (H @ [r_A b_A, r_A s])
        GU = G[rows[:, None], :, col_of[1]].transpose(0, 2, 1) @ U  # G[:, A] @ U
        # theta_A(s) = u - s w, correlations X^T (y - X theta(s)) = p + s a
        u, w, sgn = U[:, :, 0], U[:, :, 1], S[:, :, 1]
        p, a = b - GU[:, :, 0], GU[:, :, 1]
        # the largest s < t where a free correlation reaches +s (p / (1 - a))
        # or -s (-p / (1 + a)), or an active coefficient reaches zero;
        # clipped at t against rounding, ties to the lowest index
        den = 1.0 - a[:, None] * flip
        ok = free & ~bar & ~spanned[:, None] & (den > 0.0)
        c = np.full((k, 2, d), -np.inf)
        np.divide(p[:, None] * flip, den, out=c, where=ok)
        s = np.minimum(np.maximum(c[:, 0], c[:, 1]), t[:, None])
        j = np.argmax(s, axis=1)
        join = s[rows, j]
        s = np.full((k, e), -np.inf)
        np.divide(u, w, out=s, where=sgn * w < 0.0)
        np.minimum(s, t[:, None], out=s)
        i = np.argmax(s, axis=1)
        leave = s[rows, i]
        t_next = np.maximum(np.maximum(join, leave), 0.0)
        read = pending & (halves >= t_next[:, None])
        if read.any():
            ri, ai = np.nonzero(read)
            x = w[ri]
            x *= halves[ri, ai, None]
            np.subtract(u[ri], x, out=x)  # u - half w
            x[sgn[ri] * x < 0.0] = 0.0  # at its own knot it may round past zero
            at = act[ri]  # flat positions in thetas
            at += ((ri * alphas.shape[1] + ai) * e)[:, None]
            thetas.put(at, x)
            read_at[ri, ai] = knots[ri]
            pending &= ~read
        on = pending.any(axis=1)
        tied = np.flatnonzero(on & (t_next == t)).tolist()
        ties = {path: ties.get(path) for path in tied}  # where t moved, the bars lapse
        for path in tied:
            if ties[path] is None:  # t moved at the step before: a leave there bars
                ties[path] = set(), set()
                for side, col in np.argwhere(bar[path]).tolist():
                    left_at_tie(path, col, side)
        bar[:] = False
        t[:] = t_next
        knots += on
        lv = on & (leave >= join)
        jn = np.flatnonzero(on ^ lv)
        lv = np.flatnonzero(lv)
        if lv.size:
            lr, n = np.arange(lv.size), i[lv]
            col, side = act[lv, n], np.where(S[lv, n, 1] > 0.0, 0, 1)
            Hl = H[lv]
            q = Hl[lr, :, n]
            Hl -= q[:, :, None] * q[:, None, :] / Hl[lr, n, n][:, None, None]
            # drop position n: the later ones move up, the pad fills the end
            order = np.minimum(np.arange(e) + (np.arange(e) >= n[:, None]), d)
            H[lv] = Hl[lr[:, None, None], order[:, :, None], order[:, None, :]]
            act[lv] = act[lv[:, None], order]
            S[lv] = S[lv[:, None], order]
            free[lv, :, col] = True
            bar[lv, side, col] = True
            spanned[lv] = False  # the span shrank
            na[lv] -= 1
            if ties:
                for path, cp, sp in zip(lv.tolist(), col.tolist(), side.tolist()):
                    if path in ties:
                        left_at_tie(path, cp, sp)
            gone = lv[na[lv] == 0]  # none left active
            read_at[gone] = np.where(pending[gone], knots[gone, None], read_at[gone])
            pending[gone] = on[gone] = False
        if jn.size:
            nj, col = na[jn], j[jn]
            up = c[jn, 0, col] >= c[jn, 1, col]
            joins = np.zeros(jn.size, dtype=bool)  # False: spanned
            for n in sorted(set(nj.tolist())):
                z = np.flatnonzero(nj == n)
                row, A, cz = jn[z, None], act[jn[z], :n], col[z, None]
                g = (G[row, A, cz] * r[row, A] * r[row, cz])[:, :, None]
                h = H[jn[z], :n, :n] @ g
                schur = 1.0 - (g.transpose(0, 2, 1) @ h)[:, 0, 0]  # squared pivot
                joins[z] = keep = schur > PIVOT_RTOL
                # H' = [[H, 0], [0, 0]] + v v^T / schur, v = [h, -1]
                v = np.concatenate((h[keep, :, 0], np.full((keep.sum(), 1), -1.0)), axis=1)
                v = v[:, :, None] * v[:, None, :] / schur[keep, None, None]
                H[jn[z[keep]], :n + 1, :n + 1] += v
            if not joins.all():
                # a spanned column stays out and the segment stands: no knot
                spanned[jn[~joins], col[~joins]] = True
                knots[jn[~joins]] -= 1
                jn, nj, col, up = jn[joins], nj[joins], col[joins], up[joins]
            act[jn, nj] = col
            S[jn, nj, 0], S[jn, nj, 1] = 1.0, np.where(up, 1.0, -1.0)
            free[jn, :, col] = False
            na[jn] += 1
        for path, (barred, _) in ties.items():  # the bars of the set now active
            key = frozenset(act[path, :na[path]].tolist())
            for K, col, side in barred:
                if K == key:
                    bar[path, side, col] = True
    return np.ascontiguousarray(thetas[:, :, :d]), read_at


def fit_lasso(X, y, alpha, *, return_info=False):
    """Lasso at one alpha, read off the homotopy path.

    With return_info, returns (theta, {"solver": "path", "path_knots": int})
    instead of theta.
    """
    X, y = _check_xy(X, y)
    alpha = _check_alpha(alpha)
    thetas, knots = lasso_paths((X.T @ X)[None], (X.T @ y)[None], np.array([[alpha]]))
    if return_info:
        return thetas[0, 0], {"solver": "path", "path_knots": int(knots[0, 0])}
    return thetas[0, 0]


def _folds(m, cfg, seed):
    """cross_validate's folds of m rows: one seeded shuffle cut into k
    contiguous parts, the first m mod k of them a row longer."""
    k = int(cfg.cv_folds)
    if k < 2 or k > m:
        raise ValueError(f"cv_folds must be in 2..{m}, got {k}")
    perm, (q, r) = np.random.default_rng(seed).permutation(m), divmod(m, k)
    return [perm[i * q + min(i, r):(i + 1) * q + min(i + 1, r)] for i in range(k)]


def _fold_blocks(X, y, folds):
    """(G, b, blocks): each fold's block [X_f y_f]^T [X_f y_f], and each
    fold's training X^T X and X^T y summed from the other folds' blocks in
    fold order (the full Gram less a block would cancel)."""
    d, ends = X.shape[1], np.cumsum([f.size for f in folds])
    Z = np.column_stack((X, y))[np.concatenate(folds)]
    blocks = np.array([Z[e - f.size:e].T @ Z[e - f.size:e] for f, e in zip(folds, ends)])
    rest = np.where(~np.eye(len(folds), dtype=bool)[:, :, None, None], blocks, 0.0).sum(axis=1)
    return rest[:, :d, :d], rest[:, :d, d], blocks


def _fold_systems(X, y, folds):
    """Each fold's training X^T X and X^T y, stacked."""
    k, d = len(folds), X.shape[1]
    G, b = np.empty((k, d, d)), np.empty((k, d))
    for f in range(k):
        trn = np.concatenate([folds[g] for g in range(k) if g != f])
        X_trn = X[trn]
        G[f], b[f] = X_trn.T @ X_trn, X_trn.T @ y[trn]
    return G, b


def _fold_fits(method, G, b, grid):
    """Every alpha's fit on each fold's training system, (k, n, d)."""
    if method == "ridge":
        return shifted_solve(G, b, grid)
    return lasso_paths(G, b, np.tile(grid, (len(b), 1)))[0]


def _pick(errors, grid):
    """The index of the least error, ties to the larger alpha, then the first."""
    return max(range(grid.size), key=lambda i: (-errors[i], grid[i]))


def _cv_choice(X, y, folds, thetas, grid):
    """(alpha, errors): each alpha's mean held-out error over the folds, and
    the alpha with the least, ties to the larger alpha."""
    errors = np.zeros(grid.size)
    for val, theta in zip(folds, thetas):
        R = X[val] @ theta.T - y[val][:, None]
        errors += np.sum(R * R, axis=0) / val.size
    errors /= len(folds)
    return float(grid[_pick(errors, grid)]), errors


def _cv_score(cvs, blocks, thetas, grid):
    """`_cv_choice`'s (alpha, errors) of each CV (rows, folds, method) of a
    stack that shares k, grid and d, rows() -> (X, y), from its
    `_fold_blocks` blocks and the fits thetas (K, k, n, d) on their systems,
    each held-out error th^T P th - 2 th^T c + yy off its fold's block.

    Summed Grams move theta and the form cancels, so an error is good to its
    margin n eps (th^T P th + 2 |th^T c| + yy), n the fold's training rows. If
    another alpha's error is within its margin plus the best's, rounding could
    decide, and that CV alone runs again as `_cv_choice` on gathered rows.
    """
    k, d = thetas.shape[1], thetas.shape[3]
    sizes = np.array([[[f.size] for f in folds] for _, folds, _ in cvs])
    P, c, yy = blocks[..., :d, :d], blocks[..., :d, d:], blocks[..., d:, d]
    quad, lin = np.sum((thetas @ P) * thetas, axis=3), (thetas @ c)[..., 0]
    errors = np.sum((quad - 2.0 * lin + yy) / sizes, axis=1) / k
    terms = (sizes.sum(axis=1, keepdims=True) - sizes) * np.finfo(float).eps * (
        np.abs(quad) + 2.0 * np.abs(lin) + yy)
    margins = np.sum(terms / sizes, axis=1) / k
    scores = []
    for (rows, folds, method), err, margin in zip(cvs, errors, margins):
        best = _pick(err, grid)
        apart = np.abs(err - err[best]) > margin + margin[best]  # NaN is not apart
        apart[best] = np.isfinite(err[best])
        if apart.all():
            scores.append((float(grid[best]), err))
        else:
            X, y = rows()
            fits = _fold_fits(method, *_fold_systems(X, y, folds), grid)
            scores.append(_cv_choice(X, y, folds, fits, grid))
    return scores


def cross_validate(X, y, method, cfg=None, seed=0):
    """Pick alpha for ridge/lasso by k-fold CV on held-out squared error.

    Rows are shuffled once with the given seed and cut into contiguous
    folds (the first m mod k folds get the extra row). Each fold fits every
    alpha from one regularization path on the sum of the other folds' Gram
    blocks; the folds run as one stack. The score of an alpha is the mean
    over folds of ||X_val theta - y_val||^2 / |fold|, a quadratic form in the
    held-out block, or from residuals where rounding could decide the
    choice (`_cv_score`); ties go to the larger alpha.

    Returns (alpha_best, cv_errors) with cv_errors aligned to
    cfg.cv_alpha_grid.
    """
    X, y = _check_xy(X, y)
    cfg = cfg or FitConfig()
    if method not in ("ridge", "lasso"):
        raise ValueError(f"method must be 'ridge' or 'lasso', got {method!r}")
    grid = cfg.cv_alpha_grid
    folds = _folds(len(y), cfg, seed)
    G, b, blocks = _fold_blocks(X, y, folds)
    fits = _fold_fits(method, G, b, grid)[None]
    return _cv_score([(lambda: (X, y), folds, method)], blocks[None], fits, grid)[0]
