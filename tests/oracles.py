"""Oracles the tests check the exact solvers against.

The package ships only exact solvers: the spectral equilibrium
(`advreg.equilibrium.solve_equilibrium`) and the lasso homotopy on a stack
of paths (`advreg.baselines.lasso_paths`; `fit_lasso` is its stack of one).
Two oracles here reach the same answers by independent iterations,
projected gradient descent and cyclic coordinate descent, each with a cap
that warns when it is hit (the suite turns warnings into errors). From the
package they take only input checks, the objective and its gradient, their
starting points and the solution record.

`_lasso_path` is the same homotopy run one path at a time, the reference
every stacked path must equal to the bit. Only the matrix algebra of a knot
runs in numpy; the O(d) rest (each free column's join time and side, each
active coefficient's leave time, the first maximum of each, the
coefficients at every requested alpha) runs on Python floats, read off the
segment once. Those round as numpy's elementwise ufuncs do, and every
product that sums stays in one BLAS call, so the two agree bit for bit
while sharing no control flow: the oracle keeps its ties' bars as one set
keyed by active set, and recomputes nothing after a spanned join.
"""

import warnings

import numpy as np

from advreg.baselines import _check_alpha, _check_xy
from advreg.equilibrium import (
    _kappa,
    _solution,
    default_radius,
    equilibrium_gradient,
    equilibrium_objective,
)
from advreg.exceptions import (
    MaxItersExceeded,
    MaxSweepsExceeded,
    NoConvergence,
    NonFinite,
    NotPositiveDefinite,
)
from advreg.linalg import PIVOT_RTOL, shifted_solve, solve_spd


def project_to_ball(theta, radius):
    """Radial projection onto {v : ||v||_2 <= radius}; no-op inside."""
    theta = np.asarray(theta, dtype=float)
    nrm = float(np.sqrt(theta @ theta))
    if nrm <= radius:
        return theta.copy()
    return theta * (radius / nrm)


def solve_equilibrium_pgd(X, y, params, tol=1e-8, max_iters=50000):
    """Projected gradient descent on f over the ball (default_radius if unset).

    Backtracking (shrink 0.5) starting from step 1 / L_hat, where
    L_hat = 2 * (Gershgorin bound on X^T X) + 6 * kappa * R^2 upper-bounds
    the curvature on the ball; accepted steps double on the next iteration,
    while the trial step stays shorter than the ball's diameter, so the
    step length adapts to the local curvature. A step is accepted
    when the Armijo condition (c1 = 1e-4) holds or, because near the
    optimum f cannot resolve a decrease below its own rounding, when the
    approximate Armijo condition of Hager & Zhang (2005) holds: f rises by
    at most 1e-14 |f| and the directional derivative at the candidate is
    at most 0.8 times the magnitude of the one at the current iterate.
    Stops when the projected-gradient measure at the reference step falls
    below tol * (1 + ||2 X^T y||). Hitting `max_iters` returns the best
    iterate flagged `converged=False` and emits a MaxItersExceeded warning.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    XtX = X.T @ X
    Xty = X.T @ y
    start = shifted_solve(XtX, Xty, np.zeros(1))[0]  # least squares
    radius = default_radius(X, y) if params.theta_radius is None else params.theta_radius
    kappa = _kappa(params, y)
    if not np.isfinite(kappa):
        raise NonFinite("quartic coefficient overflowed")

    gersh = float(np.max(np.sum(np.abs(XtX), axis=1)))
    L_hat = 2.0 * gersh + 6.0 * kappa * radius * radius
    t_ref = 1.0 / L_hat
    gscale = 1.0 + float(np.sqrt((2.0 * Xty) @ (2.0 * Xty)))

    theta = project_to_ball(start, radius)
    f_cur = equilibrium_objective(theta, X, y, params)
    t = t_ref
    c1 = 1e-4
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        grad = equilibrium_gradient(theta, X, y, params)
        pg = (theta - project_to_ball(theta - t_ref * grad, radius)) / t_ref
        if float(np.sqrt(pg @ pg)) <= tol * gscale:
            converged = True
            iters -= 1
            break
        while True:
            cand = project_to_ball(theta - t * grad, radius)
            f_cand = equilibrium_objective(cand, X, y, params)
            step = cand - theta
            decrease = float(grad @ step)
            if np.isfinite(f_cand) and (
                f_cand <= f_cur + c1 * decrease
                or (f_cand <= f_cur + 1e-14 * abs(f_cur)
                    and float(equilibrium_gradient(cand, X, y, params) @ step)
                    <= -0.8 * decrease)
            ):
                break
            t *= 0.5
            if t < 1e-300:
                raise NonFinite("line search collapsed")
        theta, f_cur = cand, f_cand
        # a trial step longer than the ball's diameter moves no farther
        if t * float(np.sqrt(grad @ grad)) < 2.0 * radius:
            t *= 2.0
    if not converged:
        warnings.warn(
            f"projected gradient stopped at max_iters={max_iters}", MaxItersExceeded
        )
    on_boundary = float(np.sqrt(theta @ theta)) >= radius * (1.0 - 1e-9)
    return _solution(theta, X, y, params, iters, "pgd", on_boundary, converged)


def fit_lasso_cd(X, y, alpha, theta0=None, *, tol=1e-9, max_sweeps=10000):
    """Lasso at one alpha by cyclic coordinate descent (the path's oracle).

    Starts from theta0, or else from the matching ridge solution (zeros on
    singular designs). Each sweep sets theta_j <- soft(rho_j, alpha/2) / G_jj
    with rho_j = b_j - (G theta)_j + G_jj theta_j, G = X^T X, b = X^T y.
    Sweeps stop once max_j |change in theta_j| * ||x_j|| <= tol * (1 + ||y||):
    the largest change a sweep made to the fitted values through one
    column, against the labels' scale, so tiny columns with large
    coefficients stop as soon as their fit settles.
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
    col_norm = np.sqrt(col_sq)
    live = np.flatnonzero(col_sq > 0.0)
    theta[col_sq == 0.0] = 0.0
    Gtheta = G @ theta
    half = 0.5 * alpha
    stop = tol * (1.0 + float(np.sqrt(y @ y)))
    for _ in range(max_sweeps):
        max_change = 0.0
        for j in live:
            rho = b[j] - Gtheta[j] + col_sq[j] * theta[j]
            new = np.sign(rho) * max(abs(rho) - half, 0.0) / col_sq[j]
            delta = new - theta[j]
            if delta != 0.0:
                Gtheta += G[:, j] * delta
                theta[j] = new
                max_change = max(max_change, abs(delta) * col_norm[j])
        if max_change <= stop:
            return theta
    warnings.warn(f"coordinate descent stopped at cap {max_sweeps}", MaxSweepsExceeded)
    return theta


def _lasso_path(G, b, alphas):
    """Lasso coefficients (one row per alpha) along one homotopy.

    Returns (thetas, knots), knots[i] counting the knots passed when alphas[i]
    was read. Raises NoConvergence when the knots at one t return to a state
    they left.
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
    counts = [0] * len(halves)
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
            q = pending.pop(0)
            half, row, counts[q] = halves[q], thetas[q], knots
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
    for q in pending:  # no column stayed active
        counts[q] = knots
    return np.array(thetas), np.array(counts)
