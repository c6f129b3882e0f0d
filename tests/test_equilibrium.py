"""Symmetric-equilibrium solvers.

The load-bearing oracle is a one-dimensional instance whose stationarity
condition reduces to the cubic t^3 + t - 2 = 0 with unique real root
t = 1: n=1, beta=0.5, lam=1, X=[[1]], y=[2], z=[1] gives the objective
(t-2)^2 + 0.5 t^4, whose derivative 2(t-2) + 2t^3 vanishes at t=1.
Everything else is property-based: the spectral solver must agree with
the projected-gradient oracle, inside the ball and with the ball
binding; gradients must match central differences; and the quartic
term's ridge correspondence must hold at the solution.
"""

from dataclasses import replace

import numpy as np
import pytest

from advreg.baselines import fit_ols, fit_ridge
from advreg.equilibrium import (
    default_radius,
    equilibrium_gradient,
    equilibrium_objective,
    solve_equilibrium,
)
from advreg.exceptions import NonFinite, SingularDesign
from advreg.game import GameParams
from oracles import project_to_ball, solve_equilibrium_pgd

CUBIC_X = np.array([[1.0]])
CUBIC_Y = np.array([2.0])


def cubic_params(radius=10.0):
    return GameParams(n=1, beta=0.5, lam=1.0, z=np.array([1.0]), theta_radius=radius)


def random_instance(rng):
    d = int(rng.integers(1, 5))
    m = int(rng.integers(d + 1, d + 6))
    X = rng.uniform(-1, 1, (m, d))
    y = rng.uniform(-1, 1, m)
    p = GameParams(
        n=int(rng.integers(1, 5)),
        beta=float(rng.uniform(0, 1)),
        lam=float(rng.uniform(0.5, 2)),
        z=rng.uniform(-1, 1, m),
        theta_radius=10.0,
    )
    return X, y, p


# -------------------------------------------------------------- objective

def test_objective_beta_zero_is_least_squares():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    th = rng.normal(size=2)
    p = GameParams(n=3, beta=0.0, lam=1.0, z=rng.normal(size=5), theta_radius=5.0)
    assert equilibrium_objective(th, X, y, p) == pytest.approx(
        float(np.sum((X @ th - y) ** 2)), rel=1e-12
    )


def test_objective_at_origin_is_label_energy():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([3.0, 4.0])
    p = GameParams(n=2, beta=0.8, lam=1.0, z=np.array([9.0, 9.0]), theta_radius=5.0)
    assert equilibrium_objective(np.zeros(2), X, y, p) == pytest.approx(25.0, rel=1e-12)


def test_objective_cubic_instance_value():
    assert equilibrium_objective(
        np.array([1.0]), CUBIC_X, CUBIC_Y, cubic_params()
    ) == pytest.approx(1.5, abs=1e-12)


# --------------------------------------------------------------- gradient

def test_gradient_zero_at_ols_when_beta_zero():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 2))
    y = rng.normal(size=6)
    p = GameParams(n=1, beta=0.0, lam=1.0, z=np.zeros(6), theta_radius=50.0)
    g = equilibrium_gradient(fit_ols(X, y), X, y, p)
    assert np.linalg.norm(g) < 1e-10


def test_gradient_at_origin():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    p = GameParams(n=2, beta=0.5, lam=1.0, z=rng.normal(size=5), theta_radius=5.0)
    assert np.allclose(
        equilibrium_gradient(np.zeros(3), X, y, p), -2.0 * X.T @ y, atol=1e-12
    )


def test_gradient_cubic_stationary_point():
    g = equilibrium_gradient(np.array([1.0]), CUBIC_X, CUBIC_Y, cubic_params())
    assert abs(g[0]) < 1e-12


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    for _ in range(100):
        X, y, p = random_instance(rng)
        th = rng.uniform(-1, 1, X.shape[1])
        g = equilibrium_gradient(th, X, y, p)
        h = 1e-6
        fd = np.zeros_like(th)
        for k in range(th.size):
            up, dn = th.copy(), th.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (
                equilibrium_objective(up, X, y, p)
                - equilibrium_objective(dn, X, y, p)
            ) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-5 * (1 + np.linalg.norm(fd))


# -------------------------------------------------------- project_to_ball

def test_project_inside_untouched():
    assert np.allclose(project_to_ball(np.array([3.0, 4.0]), 10.0), [3.0, 4.0])


def test_project_on_sphere_untouched():
    out = project_to_ball(np.array([3.0, 4.0]), 5.0)
    assert np.allclose(out, [3.0, 4.0], atol=1e-12)


def test_project_radial_scaling():
    assert np.allclose(project_to_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], atol=1e-12)


# ----------------------------------------------------------------- solvers

@pytest.mark.parametrize("solve", [solve_equilibrium, solve_equilibrium_pgd])
def test_solver_beta_zero_reduces_to_ols(solve):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(8, 3))
    y = rng.normal(size=8)
    p = GameParams(n=2, beta=0.0, lam=1.0, z=rng.normal(size=8), theta_radius=50.0)
    sol = solve(X, y, p)
    assert np.allclose(sol.theta_star, fit_ols(X, y), atol=1e-8)


def test_spectral_z_equals_y_reduces_to_ols():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(7, 2))
    y = rng.normal(size=7)
    p = GameParams(n=3, beta=0.9, lam=1.0, z=y.copy(), theta_radius=50.0)
    sol = solve_equilibrium(X, y, p)
    assert np.allclose(sol.theta_star, fit_ols(X, y), atol=1e-8)


def test_spectral_cubic_root():
    sol = solve_equilibrium(CUBIC_X, CUBIC_Y, cubic_params())
    assert sol.solver == "spectral"
    assert sol.theta_star[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.s_star == pytest.approx(1.0, abs=1e-8)
    assert not sol.on_boundary
    assert sol.converged


def test_pgd_cubic_root():
    sol = solve_equilibrium_pgd(CUBIC_X, CUBIC_Y, cubic_params())
    assert sol.theta_star[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("solve", [solve_equilibrium, solve_equilibrium_pgd])
def test_solver_small_ball_stops_on_boundary(solve):
    # unconstrained optimum is t=1; f decreases on [0,1], so R=0.5 binds
    sol = solve(CUBIC_X, CUBIC_Y, cubic_params(radius=0.5))
    assert sol.theta_star[0] == pytest.approx(0.5, abs=1e-6)
    assert sol.on_boundary


@pytest.mark.parametrize("rho", [None, "default", 0.25, 0.5, 0.75],
                         ids=["radius-10", "default-ball", "rho-0.25", "rho-0.5", "rho-0.75"])
def test_solvers_agree_on_random_instances(rho):
    # rho a number: the radius is rho times the unconstrained equilibrium
    # norm, so the ball binds. "default": no radius, so the exact solver
    # has no ball and the oracle works inside default_radius's
    rng = np.random.default_rng(6)
    for _ in range(100):
        X, y, p = random_instance(rng)
        if rho == "default":
            p = replace(p, theta_radius=None)
        elif rho is not None:
            free = solve_equilibrium(X, y, replace(p, theta_radius=None))
            p = replace(p, theta_radius=rho * np.sqrt(free.s_star))
        a = solve_equilibrium(X, y, p)
        b = solve_equilibrium_pgd(X, y, p)
        assert b.converged
        scale = 1 + np.linalg.norm(a.theta_star)
        assert np.linalg.norm(a.theta_star - b.theta_star) <= 1e-5 * scale
        if rho == "default":
            assert not a.on_boundary and not b.on_boundary
        elif rho is not None:
            assert a.on_boundary and b.on_boundary


def test_no_radius_solves_no_least_squares(monkeypatch):
    # with no radius there is no ball, so nothing sizes one
    import advreg.equilibrium as eq

    def refuse(*_):
        raise AssertionError("no least-squares solve expected")

    monkeypatch.setattr(eq, "default_radius", refuse)
    monkeypatch.setattr(eq, "shifted_solve", refuse)
    X, y, p = random_instance(np.random.default_rng(10))
    sol = solve_equilibrium(X, y, replace(p, theta_radius=None))
    assert not sol.on_boundary


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_solver_refuses_non_finite_data_naming_it(bad):
    # a non-finite X^T X names X, a non-finite X^T y names y; 1e200 squares
    # past the largest double, so X^T X (or X^T y) overflows though X (or y)
    # is finite
    X, y, p = random_instance(np.random.default_rng(13))
    for name in ("X", "y"):
        Xb, yb = X.copy(), y.copy()
        if name == "X":
            Xb[1, 0] = bad
        else:
            yb[2] = bad
            Xb[2] = 1e110  # so that a huge y overflows X^T y
        # numpy warns as X^T X or X^T y overflows; the solver then refuses them
        with np.errstate(over="ignore"), pytest.raises(
                NonFinite, match=rf"X\^T {name} is not finite: {name} has"):
            solve_equilibrium(Xb, yb, p)


def test_equilibrium_never_longer_than_least_squares():
    # ||theta(shift)||^2 = sum b_i^2 / (lam_i + shift)^2 falls with the shift
    rng = np.random.default_rng(11)
    for k in range(200):
        X, y, p = random_instance(rng)
        if k % 2:
            # y nearly orthogonal to the columns, so X^T y is near zero
            y = y - X @ fit_ols(X, y) + 1e-9 * rng.normal(size=y.size)
        sol = solve_equilibrium(X, y, replace(p, theta_radius=None))
        assert np.sqrt(sol.s_star) <= np.linalg.norm(fit_ols(X, y)) * (1 + 1e-9)


def test_solution_feasible_and_stationary():
    rng = np.random.default_rng(7)
    for _ in range(50):
        X, y, p = random_instance(rng)
        sol = solve_equilibrium(X, y, p)
        assert np.linalg.norm(sol.theta_star) <= p.theta_radius + 1e-9
        assert np.isfinite(sol.grad_norm)
        if not sol.on_boundary:
            assert sol.grad_norm <= 1e-7 * (1 + np.linalg.norm(2 * X.T @ y))


def test_interior_solution_matches_ridge_with_induced_penalty():
    # at an interior solution, theta solves the ridge problem whose penalty
    # is the quartic coefficient times s* = ||theta*||^2
    rng = np.random.default_rng(8)
    for _ in range(25):
        X, y, p = random_instance(rng)
        sol = solve_equilibrium(X, y, p)
        if sol.on_boundary:
            continue
        kappa = 2.0 * p.beta * (p.n + 1) * float(np.sum((p.z - y) ** 2)) / p.lam**2
        alpha = (kappa / 2.0) * sol.s_star
        assert np.allclose(sol.theta_star, fit_ridge(X, y, alpha), atol=1e-7)


def test_default_radius_contains_unregularized_solution():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    R = default_radius(X, y)
    assert np.isfinite(R) and R > 0
    assert np.linalg.norm(fit_ols(X, y)) <= R


# ----------------------------------------------- one least-squares rule

# lam_min / lam_max of X^T X: about 0.18, 5.6e-13, 0 and 0
LEAST_SQUARES_DESIGNS = {
    "well_conditioned": np.random.default_rng(12).normal(size=(8, 3)),
    "near_singular": np.array([[1.0, 1.0], [1.0, 1.0 + 3e-6], [0.0, 0.0]]),
    "rank_one": np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]),
    "zero_column": np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [1.0, 0.0]]),
}


@pytest.mark.parametrize("design", sorted(LEAST_SQUARES_DESIGNS))
def test_every_least_squares_solver_answers_or_refuses_together(design):
    # each normal-equations solve reads singularity off the spectrum of
    # X^T X by one rule; mlsg at kappa > 0 refuses too where OLS does
    X = LEAST_SQUARES_DESIGNS[design]
    m = X.shape[0]
    y = np.linspace(1.0, 2.0, m)
    game = GameParams(n=3, beta=0.8, lam=1.0, z=y + 1.0)
    solvers = {
        "ols": lambda: fit_ols(X, y),
        "ridge0": lambda: fit_ridge(X, y, 0.0),
        "mlsg_beta0": lambda: solve_equilibrium(X, y, replace(game, beta=0.0)).theta_star,
        "mlsg": lambda: solve_equilibrium(X, y, game).theta_star,
        "pgd": lambda: solve_equilibrium_pgd(X, y, game).theta_star,
        "radius": lambda: default_radius(X, y),
    }
    answers = {}
    for name, solve in solvers.items():
        try:
            answers[name] = solve()
        except SingularDesign:
            answers[name] = None
    refused = {name for name, value in answers.items() if value is None}
    assert refused in (set(), set(solvers)), refused
    assert (refused == set()) == (design == "well_conditioned")
    if not refused:
        assert np.array_equal(answers["ols"], answers["ridge0"])
        assert np.allclose(answers["mlsg_beta0"], answers["ols"], rtol=1e-10, atol=1e-12)
        assert np.allclose(answers["pgd"], answers["mlsg"], rtol=1e-5, atol=1e-8)
