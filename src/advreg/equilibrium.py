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
never binds. `solve_equilibrium` computes it exactly and spectrally.
One eigendecomposition X^T X = V diag(lam_i) V^T with b = V^T X^T y gives,
for any shift >= 0, ||theta||^2 = sum_i b_i^2 / (lam_i + shift)^2 <=
sum_i b_i^2 / lam_i^2. Inside the ball the shift is kappa s / 2 and s
solves the secular equation sum_i b_i^2 / (lam_i + kappa s / 2)^2 = s. A
set ball binds exactly when that residual is still positive at s = R^2;
then (the trust-region case of More & Sorensen, 1983) the shift is
kappa R^2 / 2 + mu and mu solves sum_i b_i^2 / (lam_i + shift)^2 = R^2.
Each residual is convex, strictly decreasing and nonnegative at zero, so
Newton started from zero climbs monotonically to the root.

The solver refuses X^T X by `linalg.nonsingular` (SingularDesign), even
where kappa > 0 would let the equilibrium exist, so mlsg answers where
OLS does, and a non-finite X^T X or X^T y (NonFinite, naming X or y).
`_from_spectrum` solves from a given spectrum (lam, V, b): a sweep block
passes each mlsg fit its slice of one stacked `sym_eig` call (`evaluate`).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NonFinite, SingularDesign
from .game import sq_norm
from .linalg import nonsingular, shifted_solve, sym_eig


@dataclass(eq=False)
class EquilibriumSolution:
    theta_star: np.ndarray
    s_star: float          # theta_star^T theta_star
    grad_norm: float       # ||gradient of f at theta_star||
    iterations: int
    solver: str            # "spectral"; the tests' PGD oracle reports "pgd"
    on_boundary: bool
    converged: bool = True  # False only from a capped run of that oracle


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


def default_radius(X, y):
    """Ball of the fixed-point certificate: 10x the least-squares norm,
    which no equilibrium reaches. Raises
    SingularDesign when lam_min(X^T X) <= PIVOT_RTOL * lam_max(X^T X).
    """
    X = np.asarray(X, dtype=float)
    theta = shifted_solve(X.T @ X, X.T @ np.asarray(y, dtype=float), np.zeros(1))[0]
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
    lam_min(X^T X) <= PIVOT_RTOL * lam_max(X^T X), even where kappa > 0
    would make the shifted system solvable, and NonFinite when X^T X, X^T y
    or the quartic coefficient is not finite.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    G, b = _finite_system(X.T @ X, X.T @ y)
    lam, V = sym_eig(G)
    return _from_spectrum(X, y, params, lam, V, V.T @ b)


def _finite_system(G, b):
    """(G, b) = (X^T X, X^T y); NonFinite naming X or y unless finite."""
    for name, v in (("X", G), ("y", b)):
        if not np.isfinite(v).all():
            raise NonFinite(f"X^T {name} is not finite: {name} has non-finite or huge entries")
    return G, b


def _from_spectrum(X, y, params, lam, V, b):
    """`solve_equilibrium` given X^T X = V diag(lam) V^T and b = V^T X^T y."""
    if not nonsingular(lam):
        raise SingularDesign("X^T X is not numerically positive definite")
    kappa = _kappa(params, y)
    if not np.isfinite(kappa):
        raise NonFinite("quartic coefficient overflowed")
    b2 = b * b

    def sq_norm_at(shift):
        """||theta||^2 at a diagonal shift, and its derivative in the shift."""
        den = lam + shift
        w = b2 / den**2
        return float(w.sum()), -2.0 * float((w / den).sum())

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
