"""Symmetric equilibrium of the decoupled learner game.

With every learner using the surrogate cost, the unique symmetric
equilibrium minimizes the strictly convex objective

    f(theta) = ||X theta - y||^2 + (kappa / 4) * (theta^T theta)^2,
    kappa = 2 * beta * (n + 1) * ||z - y||^2 / lam^2,

over the ball ||theta|| <= R if a radius R is set, else over all theta.
With mu >= 0 the ball's multiplier, its KKT conditions read

    (X^T X + (kappa s / 2 + mu) I) theta = X^T y,   s = theta^T theta,

that is, ridge regression at a shift >= 0. So no equilibrium is longer
than the least-squares fit (bound below) and the `default_radius` ball
never binds. Two independent solvers, cross-checked in the tests:

* `solve_equilibrium` — exact and spectral. One eigendecomposition
  X^T X = V diag(lam_i) V^T with b = V^T X^T y gives, for any shift >= 0,
  ||theta||^2 = sum_i b_i^2 / (lam_i + shift)^2 <= sum_i b_i^2 / lam_i^2.
  Inside the ball the shift is kappa s / 2 and s solves the secular
  equation sum_i b_i^2 / (lam_i + kappa s / 2)^2 = s. A set ball binds
  exactly when that residual is still positive at s = R^2; then (the
  trust-region case of More & Sorensen, 1983) the shift is
  kappa R^2 / 2 + mu and mu solves sum_i b_i^2 / (lam_i + shift)^2 = R^2.
  Each residual is convex, strictly decreasing and nonnegative at zero,
  so Newton started from zero climbs monotonically to the root.
* `solve_equilibrium_pgd` — projected gradient descent with backtracking,
  kept as the independent oracle the tests compare against.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import MaxItersExceeded, NonFinite, SingularDesign
from .game import sq_norm
from .linalg import pd_check, solve_spd, sym_eig


@dataclass(eq=False)
class EquilibriumSolution:
    theta_star: np.ndarray
    s_star: float          # theta_star^T theta_star
    grad_norm: float       # ||gradient of f at theta_star||
    iterations: int
    solver: str            # "spectral" | "pgd"
    on_boundary: bool
    converged: bool = True


def _kappa(params, y):
    return 2.0 * params.beta * (params.n + 1) * sq_norm(params.z - y) / params.lam**2


def equilibrium_objective(theta, X, y, params):
    theta = np.asarray(theta, dtype=float)
    s = sq_norm(theta)
    return sq_norm(X @ theta - y) + 0.25 * _kappa(params, y) * s * s


def equilibrium_gradient(theta, X, y, params):
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(X, dtype=float)
    return 2.0 * (X.T @ (X @ theta - y)) + _kappa(params, y) * sq_norm(theta) * theta


def project_to_ball(theta, radius):
    """Radial projection onto {v : ||v||_2 <= radius}; no-op inside."""
    theta = np.asarray(theta, dtype=float)
    nrm = float(np.sqrt(theta @ theta))
    if nrm <= radius:
        return theta.copy()
    return theta * (radius / nrm)


def default_radius(X, y):
    """Working ball of the PGD oracle and the fixed-point certificate: 10x
    the least-squares norm, which no equilibrium reaches. Raises
    NotPositiveDefinite when X^T X is not numerically positive definite.
    """
    X = np.asarray(X, dtype=float)
    theta = solve_spd(X.T @ X, X.T @ np.asarray(y, dtype=float))
    return 10.0 * float(np.sqrt(theta @ theta))


def _solution(theta, X, y, params, iters, solver, on_boundary, converged=True):
    grad = equilibrium_gradient(theta, X, y, params)
    return EquilibriumSolution(
        theta_star=theta,
        s_star=sq_norm(theta),
        grad_norm=float(np.sqrt(grad @ grad)),
        iterations=iters,
        solver=solver,
        on_boundary=on_boundary,
        converged=converged,
    )


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
    if not pd_check(XtX):
        raise SingularDesign("X^T X is not numerically positive definite")
    radius = default_radius(X, y) if params.theta_radius is None else params.theta_radius
    kappa = _kappa(params, y)
    if not np.isfinite(kappa):
        raise NonFinite("quartic coefficient overflowed")

    gersh = float(np.max(np.sum(np.abs(XtX), axis=1)))
    L_hat = 2.0 * gersh + 6.0 * kappa * radius * radius
    t_ref = 1.0 / L_hat
    gscale = 1.0 + float(np.sqrt((2.0 * Xty) @ (2.0 * Xty)))

    theta = project_to_ball(solve_spd(XtX, Xty), radius)
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


def _newton_from_zero(g):
    """Root of a convex, strictly decreasing g with g(0) >= 0.

    `g(t)` returns ``(value, slope)``. A convex function lies above its
    tangents, so every Newton step from the left lands at or before the
    root and the iterates rise monotonically; the first step that fails to
    rise marks the root to rounding. Returns ``(root, steps)``.
    """
    t, steps = 0.0, 0
    while True:
        value, slope = g(t)
        nxt = t - value / slope
        if not nxt > t:
            return t, steps
        t, steps = nxt, steps + 1


def solve_equilibrium(X, y, params):
    """Exact equilibrium from one eigendecomposition of X^T X, with no
    ball when ``params.theta_radius`` is None. Raises SingularDesign when
    X^T X is not numerically positive definite and NonFinite when the
    quartic coefficient overflows.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    XtX = X.T @ X
    if not pd_check(XtX):
        raise SingularDesign("X^T X is not numerically positive definite")
    kappa = _kappa(params, y)
    if not np.isfinite(kappa):
        raise NonFinite("quartic coefficient overflowed")
    lam, V = sym_eig(XtX)
    b = V.T @ (X.T @ y)
    b2 = b * b

    def sq_norm_at(shift):
        """||theta||^2 at a diagonal shift, and its derivative in the shift."""
        w = b2 / (lam + shift) ** 2
        return float(np.sum(w)), -2.0 * float(np.sum(w / (lam + shift)))

    def interior(s):
        v, dv = sq_norm_at(0.5 * kappa * s)
        return v - s, 0.5 * kappa * dv - 1.0

    r2 = None if params.theta_radius is None else params.theta_radius * params.theta_radius
    on_boundary = r2 is not None and interior(r2)[0] > 0.0
    if on_boundary:
        base = 0.5 * kappa * r2

        def binding(mu):
            v, dv = sq_norm_at(base + mu)
            return v - r2, dv

        mu, steps = _newton_from_zero(binding)
        shift = base + mu
    else:
        s, steps = _newton_from_zero(interior)
        shift = 0.5 * kappa * s
    theta = V @ (b / (lam + shift))
    return _solution(theta, X, y, params, steps, "spectral", on_boundary)
