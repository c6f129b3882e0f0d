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
`_from_spectrum` solves from a given spectrum (lam, V, b); `_from_spectra`
runs the Newtons of a stack of them (a sweep block's mlsg fits, the
fixed-point certificate) in lockstep, each row bit for bit as alone. A stack
of one runs the scalar Newton, in about a third of a one-row lockstep's time.
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
    gradient: np.ndarray   # the gradient of f at theta_star
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
    return _radius(shifted_solve(X.T @ X, X.T @ np.asarray(y, dtype=float), np.zeros(1))[0])


def _radius(theta_ls):
    """`default_radius` given the least-squares fit theta_ls."""
    return 10.0 * float(np.sqrt(theta_ls @ theta_ls))


def _solution(theta, X, y, params, iters, solver, on_boundary, converged=True):
    grad = equilibrium_gradient(theta, X, y, params)
    return EquilibriumSolution(
        theta_star=theta,
        s_star=sq_norm(theta),
        grad_norm=float(np.sqrt(grad @ grad)),
        gradient=grad,
        iterations=iters,
        solver=solver,
        on_boundary=on_boundary,
        converged=converged,
    )


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


def _checked_kappa(lam, y, params):
    """kappa of a game whose X^T X has eigenvalues lam; raises as `_from_spectrum`."""
    if not nonsingular(lam):
        raise SingularDesign("X^T X is not numerically positive definite")
    kappa = _kappa(params, y)
    if not np.isfinite(kappa):
        raise NonFinite("quartic coefficient overflowed")
    return kappa


def _from_spectrum(X, y, params, lam, V, b):
    """`solve_equilibrium` given X^T X = V diag(lam) V^T and b = V^T X^T y.
    Newton runs in t at shift = base + scale t on the residual ||theta||^2 -
    R^2 on a binding ball (t = mu) or ||theta||^2 - t inside it (t = s)."""
    c, b2 = 0.5 * _checked_kappa(lam, y, params), b * b

    def sq_norm_at(shift):
        """||theta||^2 at a diagonal shift, and its derivative in the shift."""
        den = lam + shift
        w = b2 / den**2
        return float(w.sum()), -2.0 * float((w / den).sum())

    r2 = None if params.theta_radius is None else params.theta_radius * params.theta_radius
    on_boundary = r2 is not None and sq_norm_at(c * r2)[0] - r2 > 0.0
    base, scale, target = (c * r2, 1.0, r2) if on_boundary else (0.0, c, None)
    t, steps = 0.0, 0
    while True:  # a step that fails to rise marks the root to rounding
        v, dv = sq_norm_at(base + scale * t)
        nxt = t - (v - (t if target is None else target)) / (scale * dv - (target is None))
        if not nxt > t:
            break
        t, steps = nxt, steps + 1
    theta = V @ (b / (lam + (base + scale * t)))
    return _solution(theta, X, y, params, steps, "spectral", on_boundary)


def _from_spectra(games, lam, V, b):
    """`_from_spectrum` on each row: games (X, y, params), lam and b (k, d), V
    k slices (d, d). Each row's Newton stops where it stops alone, and the
    first failing row raises what it raises alone."""
    if len(games) == 1:
        return [_from_spectrum(*games[0], lam[0], V[0], b[0])]
    c = 0.5 * np.array([_checked_kappa(row, y, p) for row, (_, y, p) in zip(lam, games)])
    radii = [p.theta_radius for _, _, p in games]
    r2, b2 = np.array([0.0 if r is None else r * r for r in radii]), b * b

    def sq_norm_at(shift):
        den = lam + shift[:, None]
        w = b2 / den**2
        return w.sum(-1), -2.0 * (w / den).sum(-1)

    bind = np.array([r is not None for r in radii]) & (sq_norm_at(c * r2)[0] - r2 > 0.0)
    base, scale, inner = np.where(bind, c * r2, 0.0), np.where(bind, 1.0, c), ~bind
    t, steps, rising = np.zeros(len(games)), np.zeros(len(games), dtype=int), np.ones_like(bind)
    while rising.any():
        v, dv = sq_norm_at(base + scale * t)
        nxt = t - (v - np.where(bind, r2, t)) / (scale * dv - inner)
        rising &= nxt > t
        t = np.where(rising, nxt, t)
        steps += rising
    q = b / (lam + (base + scale * t)[:, None])
    return [_solution(Vk @ qk, X, y, p, int(n), "spectral", bool(on))
            for Vk, qk, (X, y, p), n, on in zip(V, q, games, steps, bind)]
