"""Attack operator, closed-form best response, and the exact/surrogate
learner costs.

The scalar oracles below were derived by direct arithmetic; optimality of
the closed form is cross-checked by random perturbation (the best response
must not be improvable) and, in one dimension, against a grid minimizer.
"""

import numpy as np
import pytest

from advreg.exceptions import DimensionMismatch
from advreg.game import (
    GameParams,
    approx_cost,
    approx_cost_gradient,
    attacker_best_response,
    attacker_cost,
    build_attack_operator,
    exact_game_cost,
    learner_cost,
    sq_norm,
)


def params_for(thetas, lam=1.0, z=None, beta=1.0, radius=10.0):
    thetas = np.atleast_2d(thetas)
    m = 1 if z is None else len(z)
    z = np.full(m, 2.0) if z is None else np.asarray(z, dtype=float)
    return GameParams(n=thetas.shape[0], beta=beta, lam=lam, z=z, theta_radius=radius)


# --------------------------------------------------- build_attack_operator

def test_operator_scalar_instance():
    thetas = np.array([[1.0]])
    op = build_attack_operator(thetas, np.array([[1.0]]), params_for(thetas, z=[2.0]))
    assert np.allclose(op.A_inv, [[0.5]], atol=1e-14)
    assert np.allclose(op.B, [[3.0]], atol=1e-14)


def test_operator_zero_profile():
    thetas = np.zeros((3, 2))
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = params_for(thetas, lam=1.7, z=[0.3, -0.4])
    op = build_attack_operator(thetas, X, p)
    assert np.allclose(op.A_inv, np.eye(2) / 1.7, atol=1e-14)
    assert np.allclose(op.B, 1.7 * X, atol=1e-14)


def test_operator_two_identical_learners():
    thetas = np.array([[1.0], [1.0]])
    op = build_attack_operator(thetas, np.array([[1.0]]), params_for(thetas, z=[2.0]))
    assert np.allclose(op.A_inv, [[1.0 / 3.0]], atol=1e-14)
    assert np.allclose(op.B, [[5.0]], atol=1e-14)


def test_operator_A_inv_symmetric_pd():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 6))
        thetas = rng.uniform(-1, 1, (n, d))
        X = rng.uniform(-1, 1, (m, d))
        p = params_for(thetas, lam=float(rng.uniform(0.5, 2)), z=rng.uniform(-1, 1, m))
        op = build_attack_operator(thetas, X, p)
        assert np.allclose(op.A_inv, op.A_inv.T, atol=1e-12)
        assert np.linalg.eigvalsh((op.A_inv + op.A_inv.T) / 2).min() > 0
        A = p.lam * np.eye(d) + thetas.T @ thetas
        assert np.allclose(op.A_inv @ A, np.eye(d), atol=1e-9)


# ------------------------------------------------- attacker_best_response

def test_best_response_zero_profile_leaves_X():
    thetas = np.zeros((2, 3))
    X = np.arange(12.0).reshape(4, 3)
    p = params_for(thetas, lam=0.9, z=np.ones(4))
    assert np.allclose(attacker_best_response(thetas, X, p), X, atol=1e-12)


def test_best_response_scalar_oracle():
    thetas = np.array([[1.0]])
    out = attacker_best_response(thetas, np.array([[1.0]]), params_for(thetas, z=[2.0]))
    assert np.allclose(out, [[1.5]], atol=1e-12)


def test_best_response_two_learners_oracle():
    thetas = np.array([[1.0], [1.0]])
    out = attacker_best_response(thetas, np.array([[1.0]]), params_for(thetas, z=[2.0]))
    assert np.allclose(out, [[5.0 / 3.0]], atol=1e-12)


def test_best_response_beats_grid_in_1d():
    # brute-force the attacker cost over a fine grid of scalar designs
    thetas = np.array([[1.0]])
    X = np.array([[1.0]])
    p = params_for(thetas, z=[2.0])
    star = attacker_best_response(thetas, X, p)
    best_grid = min(
        attacker_cost(thetas, X, np.array([[v]]), p)
        for v in np.linspace(0.0, 3.0, 20001)
    )
    assert attacker_cost(thetas, X, star, p) <= best_grid + 1e-9


def test_best_response_unimprovable_under_perturbation():
    rng = np.random.default_rng(4)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        thetas = rng.uniform(-1, 1, (n, d))
        X = rng.uniform(-1, 1, (m, d))
        p = params_for(thetas, lam=float(rng.uniform(0.5, 2)), z=rng.uniform(-1, 1, m))
        star = attacker_best_response(thetas, X, p)
        base = attacker_cost(thetas, X, star, p)
        for _ in range(40):
            E = rng.normal(size=(m, d))
            E *= 1e-3 / np.linalg.norm(E)
            assert attacker_cost(thetas, X, star + E, p) >= base - 1e-12


def test_best_response_invariant_under_profile_permutation():
    rng = np.random.default_rng(9)
    thetas = rng.uniform(-1, 1, (3, 2))
    X = rng.uniform(-1, 1, (4, 2))
    p = params_for(thetas, lam=1.3, z=rng.uniform(-1, 1, 4))
    swapped = thetas[[2, 0, 1]]
    a = attacker_best_response(thetas, X, p)
    b = attacker_best_response(swapped, X, p)
    # the cost depends on the profile as a set; the response must too, exactly
    assert np.array_equal(a, b)


def test_best_response_rejects_mismatched_shapes():
    thetas = np.array([[1.0, 2.0]])
    X = np.array([[1.0], [2.0]])
    with pytest.raises(DimensionMismatch):
        attacker_best_response(thetas, X, params_for(thetas, z=[1.0, 1.0]))


# ------------------------------------------------------------------ costs

def test_attacker_cost_no_shift_no_modification():
    thetas = np.zeros((1, 1))
    X = np.array([[1.0]])
    p = params_for(thetas, z=[0.0])
    assert attacker_cost(thetas, X, X, p) == pytest.approx(0.0, abs=1e-15)


def test_attacker_cost_scalar_at_best_response():
    thetas = np.array([[1.0]])
    X = np.array([[1.0]])
    p = params_for(thetas, z=[2.0])
    assert attacker_cost(thetas, X, np.array([[1.5]]), p) == pytest.approx(0.5, abs=1e-12)


def test_attacker_cost_unmodified_design():
    thetas = np.array([[1.0]])
    X = np.array([[1.0]])
    p = params_for(thetas, z=[2.0])
    assert attacker_cost(thetas, X, X, p) == pytest.approx(1.0, abs=1e-12)


def test_learner_cost_unmodified_design_any_beta():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    th = rng.normal(size=2)
    for beta in (0.0, 0.25, 1.0):
        p = GameParams(n=1, beta=beta, lam=1.0, z=np.zeros(5))
        assert learner_cost(th, X, X, y, p) == pytest.approx(sq_norm(X @ th - y), rel=1e-12)


@pytest.mark.parametrize("field", ["lam", "theta_radius"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_game_params_refuse_non_finite_price_and_radius(field, value):
    kwargs = {"n": 1, "beta": 0.5, "lam": 1.0, "z": np.zeros(2), field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GameParams(**kwargs)


def test_learner_cost_beta_zero_ignores_attack():
    X = np.eye(2)
    p = GameParams(n=1, beta=0.0, lam=1.0, z=np.zeros(2))
    y = np.array([1.0, 0.0])
    th = np.array([1.0, 0.0])
    assert learner_cost(th, X, 5 * X, y, p) == pytest.approx(0.0, abs=1e-15)


def test_learner_cost_beta_one_hand_value():
    X = np.eye(2)
    y = np.array([1.0, 0.0])
    th = np.array([1.0, 0.0])
    p = GameParams(n=1, beta=1.0, lam=1.0, z=np.zeros(2))
    assert learner_cost(th, X, 2 * np.eye(2), y, p) == pytest.approx(1.0, abs=1e-12)


def test_exact_cost_beta_zero():
    rng = np.random.default_rng(8)
    thetas = rng.uniform(-1, 1, (2, 3))
    X = rng.uniform(-1, 1, (4, 3))
    y = rng.uniform(-1, 1, 4)
    p = params_for(thetas, beta=0.0, z=rng.uniform(-1, 1, 4))
    for i in range(2):
        assert exact_game_cost(i, thetas, X, y, p) == pytest.approx(
            sq_norm(X @ thetas[i] - y), rel=1e-12
        )


def test_exact_cost_zero_profile_is_label_energy():
    thetas = np.zeros((2, 2))
    X = np.eye(2)
    y = np.array([3.0, 4.0])
    p = params_for(thetas, beta=0.7, z=np.array([1.0, 1.0]))
    for i in range(2):
        assert exact_game_cost(i, thetas, X, y, p) == pytest.approx(25.0, rel=1e-12)


def test_exact_cost_scalar_through_best_response():
    thetas = np.array([[1.0]])
    p = params_for(thetas, beta=1.0, z=[2.0])
    got = exact_game_cost(0, thetas, np.array([[1.0]]), np.array([1.0]), p)
    assert got == pytest.approx(0.25, abs=1e-12)


# ------------------------------------------------------------ approx_cost

def test_approx_cost_beta_zero():
    thetas = np.array([[0.3, -0.2]])
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([1.0, 2.0, 3.0])
    p = params_for(thetas, beta=0.0, z=np.zeros(3))
    assert approx_cost(0, thetas, X, y, p) == pytest.approx(
        sq_norm(X @ thetas[0] - y), rel=1e-12
    )


def test_approx_cost_z_equals_y():
    thetas = np.array([[0.5], [-0.25]])
    X = np.array([[1.0], [2.0]])
    y = np.array([1.0, -1.0])
    p = params_for(thetas, beta=0.9, z=y)
    assert approx_cost(0, thetas, X, y, p) == pytest.approx(
        sq_norm(X @ thetas[0] - y), rel=1e-12
    )


def test_approx_cost_hand_value():
    thetas = np.array([[1.0, 0.0]])
    X = np.eye(2)
    y = np.array([1.0, 0.0])
    p = params_for(thetas, beta=1.0, z=np.array([2.0, 0.0]))
    assert approx_cost(0, thetas, X, y, p) == pytest.approx(1.0, abs=1e-12)


def test_approx_cost_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        thetas = rng.uniform(-1, 1, (n, d))
        X = rng.uniform(-1, 1, (m, d))
        y = rng.uniform(-1, 1, m)
        p = params_for(
            thetas, lam=float(rng.uniform(0.5, 2)),
            z=rng.uniform(-1, 1, m), beta=float(rng.uniform(0, 1)),
        )
        i = int(rng.integers(0, n))
        grad = approx_cost_gradient(i, thetas, X, y, p)
        h = 1e-6
        fd = np.zeros(d)
        for k in range(d):
            up, dn = thetas.copy(), thetas.copy()
            up[i, k] += h
            dn[i, k] -= h
            fd[k] = (approx_cost(i, up, X, y, p) - approx_cost(i, dn, X, y, p)) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * (1 + np.linalg.norm(fd))
