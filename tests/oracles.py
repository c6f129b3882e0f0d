"""Iterative oracles the tests check the exact solvers against.

The package ships only exact solvers: the spectral equilibrium
(`advreg.equilibrium.solve_equilibrium`) and the lasso homotopy
(`advreg.baselines.fit_lasso`). The oracles here reach the same answers by
independent iterations, projected gradient descent and cyclic coordinate
descent, each with a cap that warns when it is hit (the suite turns
warnings into errors). From the package they take only input checks, the
objective and its gradient, their starting points and the solution record.
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
from advreg.exceptions import MaxItersExceeded, MaxSweepsExceeded, NonFinite, NotPositiveDefinite
from advreg.linalg import shifted_solve, solve_spd


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
