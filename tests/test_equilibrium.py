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
import advreg.equilibrium as eq
from advreg.equilibrium import (
    _from_spectra,
    _from_spectrum,
    _radius,
    default_radius,
    equilibrium_gradient,
    equilibrium_objective,
    solve_equilibrium,
)
from advreg.exceptions import NonFinite, SingularDesign
from advreg.game import GameParams
from advreg.linalg import _spectrum
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


# ------------------------------------------------------- stacked rows

SOLUTION_FIELDS = ("s_star", "grad_norm", "iterations", "solver", "on_boundary", "converged")


def same_solution(a, b):
    return (a.theta_star.tobytes() == b.theta_star.tobytes()
            and a.gradient.tobytes() == b.gradient.tobytes()
            and all(getattr(a, f) == getattr(b, f) for f in SOLUTION_FIELDS)
            and all(type(getattr(a, f)) is type(getattr(b, f)) for f in SOLUTION_FIELDS))


def stacked_spectra(games):
    """One `_spectrum` call on the games' X^T X and X^T y."""
    return _spectrum(np.array([X.T @ X for X, _, _ in games]),
                     np.array([X.T @ y for X, y, _ in games]))


def assert_rows_equal_single_solves(games, lam, V, b, sols):
    """sols, `_from_spectra` on a stack: every row must equal `_from_spectrum`
    on its slice and `solve_equilibrium` on its game, bit for bit."""
    assert len(sols) == len(games)
    for k, ((X, y, p), sol) in enumerate(zip(games, sols)):
        assert same_solution(sol, _from_spectrum(X, y, p, lam[k], V[k], b[k])), k
        assert same_solution(sol, solve_equilibrium(X, y, p)), k


def assert_stacked_rows_equal_single_solves(games, lam, V, b):
    """`_from_spectra` on a stack, each row held to its single solves."""
    sols = _from_spectra(games, lam, V, b)
    assert_rows_equal_single_solves(games, lam, V, b, sols)
    return sols


def test_stacked_rows_equal_single_solves_on_the_criterion_5_and_6_blocks(acceptance_sweeps):
    # each block's lockstep solve as the sweeps ran it, recorded once a session
    stacks = []
    for sweep in acceptance_sweeps.values():
        for (games, lam, V, b), sols in sweep.rows:
            stacks.append(len(games))
            assert_rows_equal_single_solves(games, lam, V, b, sols)
    assert stacks == ([12] * 16 + [8]) * 2 + [12] * 50


def test_stacked_rows_equal_single_solves_on_the_fixed_point_instances(monkeypatch):
    # the certificate's equilibria and balls, seeds 0-199 at 50 trials,
    # against solve_equilibrium and default_radius on each instance
    import advreg.verify as verify

    games, radii = [], []

    def spy(group, lam, V, b):
        assert len({X.shape[1] for X, _, _ in group}) == 1
        games.extend(group)
        return assert_stacked_rows_equal_single_solves(group, lam, V, b)

    def radius(theta_ls):
        radii.append(_radius(theta_ls))
        return radii[-1]

    monkeypatch.setattr(verify, "_from_spectra", spy)
    monkeypatch.setattr(verify, "_radius", radius)
    for seed in range(200):
        assert verify.check_equilibrium_fixed_point(trials=50, seed=seed).passed
    assert len(games) == len(radii) == 200 * 50
    for (X, y, _), R in zip(games, radii):
        assert np.float64(R).tobytes() == np.float64(default_radius(X, y)).tobytes()


def ball_rows(name, splits=3):
    """ball-equilibrium's instances of one bundled dataset: half splits, raw
    and standardized, the ball at rho in {0.25, 0.5, 0.75} times the free
    equilibrium norm (binding), at 10 times it (free) and unset."""
    from advreg.data import (TargetSpec, apply_standardizer, build_target, fit_standardizer,
                             label_stats, split_train_test)
    from advreg.synthetic import load_bundled

    target = {"wine_like": TargetSpec(delta_scale=5.0, clip_max=10.0),
              "housing_like": TargetSpec(delta_scale=2.0)}[name]
    games = []
    for k in range(splits):
        train, _ = split_train_test(load_bundled(name), 0.5, k)
        for X in (train.X, apply_standardizer(fit_standardizer(train.X), train.X)):
            p = GameParams(n=5, beta=0.8, lam=1.0,
                           z=build_target(train.y, target, label_stats(train.y)[1]))
            norm = np.sqrt(solve_equilibrium(X, train.y, p).s_star)
            games += [(X, train.y, replace(p, theta_radius=rho * norm))
                      for rho in (0.25, 10.0, 0.5, 0.75)]
            games.append((X, train.y, p))
    return games


@pytest.mark.parametrize("name", ["wine_like", "housing_like"])
def test_stacked_ball_rows_mix_binding_and_free_rows(name):
    games = ball_rows(name)
    sols = assert_stacked_rows_equal_single_solves(games, *stacked_spectra(games))
    assert [s.on_boundary for s in sols] == [True, False, True, True, False] * 6


def test_stacked_rows_with_kappa_zero_and_a_newton_that_stops_at_step_0():
    # beta = 0 and z = y give kappa = 0; y = 0 gives X^T y = 0, whose Newton
    # stops at its first step with theta = 0
    rng = np.random.default_rng(14)
    games = []
    for k in range(12):
        X, y = rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, 6)
        p = GameParams(n=3, beta=0.7, lam=1.0, z=rng.uniform(-1, 1, 6), theta_radius=10.0)
        games.append((X, y, [p, replace(p, beta=0.0), replace(p, z=y.copy()),
                             replace(p, theta_radius=None)][k % 4]))
    X, _, p = games[4]
    games.insert(3, (X, np.zeros(6), p))
    sols = assert_stacked_rows_equal_single_solves(games, *stacked_spectra(games))
    assert sols[3].iterations == 0 and not sols[3].theta_star.any()
    assert all(s.iterations > 0 for k, s in enumerate(sols) if k != 3)


def test_a_stack_of_one_runs_the_scalar_newton(monkeypatch):
    calls = []
    monkeypatch.setattr(eq, "_from_spectrum", lambda *a: calls.append(a) or _from_spectrum(*a))
    game = random_instance(np.random.default_rng(15))
    for k in (1, 2, 3):
        calls.clear()
        sols = _from_spectra([game] * k, *stacked_spectra([game] * k))
        assert len(calls) == (k == 1)
        assert all(same_solution(sol, solve_equilibrium(*game)) for sol in sols)


def test_a_stack_raises_what_its_first_failing_row_raises_alone():
    rng = np.random.default_rng(16)
    X, y = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, 6)
    p = GameParams(n=2, beta=0.5, lam=1.0, z=rng.uniform(-1, 1, 6))
    good, singular = (X, y, p), (X[:, [0, 0]], y, p)
    huge = (X, y, replace(p, z=np.full(6, 1e200)))  # kappa overflows to inf
    for rows, error in (([good, singular, huge, good], SingularDesign),
                        ([good, huge, singular], NonFinite)):
        lam, V, b = stacked_spectra(rows)
        k = next(k for k, row in enumerate(rows) if row is not good)
        with np.errstate(over="ignore"):
            with pytest.raises(error) as alone:
                _from_spectrum(*rows[k], lam[k], V[k], b[k])
            with pytest.raises(error) as stacked:
                _from_spectra(rows, lam, V, b)
        assert str(stacked.value) == str(alone.value)
