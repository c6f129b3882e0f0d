"""Attack operator equation, closed-form best response, and the
exact/surrogate learner costs.

The scalar oracles below were derived by direct arithmetic; optimality of
the closed form is cross-checked by random perturbation (the best response
must not be improvable) and, in one dimension, against a grid minimizer.
"""

from fractions import Fraction

import numpy as np
import pytest

from advreg.exceptions import DimensionMismatch, NonFinite
from advreg.game import (
    GameParams,
    approx_cost,
    approx_cost_gradient,
    attacker_best_response,
    attacker_cost,
    exact_game_cost,
    learner_cost,
    sq_norm,
    symmetric_attacked_predictions,
)


def params_for(thetas, lam=1.0, z=None, beta=1.0, radius=10.0):
    thetas = np.atleast_2d(thetas)
    m = 1 if z is None else len(z)
    z = np.full(m, 2.0) if z is None else np.asarray(z, dtype=float)
    return GameParams(n=thetas.shape[0], beta=beta, lam=lam, z=z, theta_radius=radius)


# ------------------------------------------- the operator X' A = B
# The best response solves X' A = B with A = lam I + Theta^T Theta and
# B = lam X + z (sum theta)^T; these hand instances check that equation
# against A and B worked out by direct arithmetic.

def test_operator_scalar_instance():
    # A = 1 + 1 = 2 and B = 1 + 2 = 3
    thetas = np.array([[1.0]])
    out = attacker_best_response(thetas, np.array([[1.0]]), params_for(thetas, z=[2.0]))
    assert np.allclose(out @ [[2.0]], [[3.0]], atol=1e-14)


def test_operator_zero_profile():
    # A = 1.7 I and B = 1.7 X
    thetas = np.zeros((3, 2))
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = params_for(thetas, lam=1.7, z=[0.3, -0.4])
    out = attacker_best_response(thetas, X, p)
    assert np.allclose(out @ (1.7 * np.eye(2)), 1.7 * X, atol=1e-14)


def test_operator_two_identical_learners():
    # A = 1 + 2 = 3 and B = 1 + 2 * 2 = 5
    thetas = np.array([[1.0], [1.0]])
    out = attacker_best_response(thetas, np.array([[1.0]]), params_for(thetas, z=[2.0]))
    assert np.allclose(out @ [[3.0]], [[5.0]], atol=1e-14)


# ------------------------------------------------- attacker_best_response

def test_best_response_zero_profile_leaves_X():
    # A = lam I and B = lam X, so X' = X whatever lam and z are
    thetas = np.zeros((2, 3))
    X = np.arange(12.0).reshape(4, 3)
    p = params_for(thetas, lam=0.9, z=np.ones(4))
    assert np.allclose(attacker_best_response(thetas, X, p), X, atol=1e-14)


def test_best_response_scalar_oracle():
    # A = 1 + 1 = 2 and B = 1 + 2 = 3
    thetas = np.array([[1.0]])
    out = attacker_best_response(thetas, np.array([[1.0]]), params_for(thetas, z=[2.0]))
    assert np.allclose(out, [[1.5]], atol=1e-14)


def test_best_response_two_learners_oracle():
    # A = 1 + 2 = 3 and B = 1 + 2 * 2 = 5
    thetas = np.array([[1.0], [1.0]])
    out = attacker_best_response(thetas, np.array([[1.0]]), params_for(thetas, z=[2.0]))
    assert np.allclose(out, [[5.0 / 3.0]], atol=1e-14)


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


def test_best_response_is_accurate_when_lam_is_tiny():
    # A = lam I + Theta^T Theta has condition number up to 1 + n s / lam, about
    # 1e10 here; a solve against B keeps X' theta and the residual X' A - B at
    # rounding level, where an explicit A^-1 loses up to log10(cond) digits
    rng = np.random.default_rng(20)
    for k in range(400):
        m, d, n = int(rng.integers(1, 30)), int(rng.integers(1, 9)), int(rng.integers(1, 6))
        lam = 1e-8 if k % 4 == 0 else float(10 ** rng.uniform(-8, 2))
        X = rng.normal(size=(m, d)) * 10 ** rng.uniform(-2, 2)
        z = rng.normal(size=m) * 3.0
        thetas = rng.normal(size=(n, d)) * 10 ** rng.uniform(-2, 1)
        params = GameParams(n=n, beta=1.0, lam=lam, z=z)
        theta = thetas[0]
        got = attacker_best_response(np.tile(theta, (n, 1)), X, params) @ theta
        want = symmetric_attacked_predictions(theta, X, z, lam, n)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (k, lam, n)
        X_prime = attacker_best_response(thetas, X, params)
        A = lam * np.eye(d) + thetas.T @ thetas
        B = lam * X + np.outer(z, thetas.sum(axis=0))
        assert np.linalg.norm(X_prime @ A - B) <= 1e-12 * np.linalg.norm(B), (k, lam, n)


# ----------------------------------------- symmetric_attacked_predictions


def random_symmetric_instance(rng, k, max_m, max_d):
    """A seeded instance; every 8th has theta = 0, every 5th n = 1, and
    lam cycles through 1e-6, 1e6 and log-uniform draws in [1e-1, 1e3]."""
    m = int(rng.integers(1, max_m + 1))
    d = int(rng.integers(1, max_d + 1))
    n = 1 if k % 5 == 0 else int(rng.integers(1, 8))
    lam = (1e-6, 1e6, float(10 ** rng.uniform(-1, 3)))[k % 3]
    theta = rng.normal(size=d) * 10 ** rng.uniform(-2, 1)
    if k % 8 == 0:
        theta[:] = 0.0
    X = rng.normal(size=(m, d)) * 10 ** rng.uniform(-1, 1)
    z = rng.normal(size=m) * 3.0
    return theta, X, z, lam, n


def rel_err(got, want):
    scale = np.linalg.norm(want)
    return np.linalg.norm(got - want) / scale if scale else np.linalg.norm(got)


def test_symmetric_attacked_predictions_match_the_best_response():
    rng = np.random.default_rng(16)
    for k in range(240):
        theta, X, z, lam, n = random_symmetric_instance(rng, k, 40, 8)
        params = GameParams(n=n, beta=1.0, lam=lam, z=z)
        want = attacker_best_response(np.tile(theta, (n, 1)), X, params) @ theta
        got = symmetric_attacked_predictions(theta, X, z, lam, n)
        assert rel_err(got, want) <= 1e-12, (k, lam, n)


def exact_attacked_predictions(theta, X, z, lam, n):
    """X' theta in rational arithmetic, independently of the closed form:
    solve (lam I + n theta theta^T) w = theta by Gauss-Jordan elimination,
    then X' theta = (lam X + n z theta^T) w."""
    d = len(theta)
    t = [Fraction(v) for v in theta]
    lam, n = Fraction(lam), Fraction(n)
    rows = [[lam * (i == j) + n * t[i] * t[j] for j in range(d)] + [t[i]] for i in range(d)]
    for c in range(d):  # positive definite: every pivot is nonzero
        for r in range(d):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    w = [rows[i][d] / rows[i][i] for i in range(d)]
    tw = sum(ti * wi for ti, wi in zip(t, w))
    return np.array([
        float(lam * sum(Fraction(x) * wi for x, wi in zip(row, w)) + n * Fraction(zi) * tw)
        for row, zi in zip(X.tolist(), z.tolist())
    ])


def test_symmetric_attacked_predictions_match_exact_arithmetic():
    rng = np.random.default_rng(61)
    for k in range(200):
        theta, X, z, lam, n = random_symmetric_instance(rng, k, 6, 4)
        got = symmetric_attacked_predictions(theta, X, z, lam, n)
        assert rel_err(got, exact_attacked_predictions(theta, X, z, lam, n)) <= 1e-12, (k, lam)


def test_symmetric_attacked_predictions_check_inputs():
    theta, X, z = np.ones(2), np.ones((3, 2)), np.ones(3)
    with pytest.raises(DimensionMismatch):
        symmetric_attacked_predictions(theta, np.ones((3, 1)), z, 1.0, 2)
    with pytest.raises(DimensionMismatch):
        symmetric_attacked_predictions(theta, X, np.ones(2), 1.0, 2)
    with pytest.raises(DimensionMismatch):
        symmetric_attacked_predictions(np.ones((1, 2)), X, z, 1.0, 2)
    with pytest.raises(NonFinite):
        symmetric_attacked_predictions([1.0, np.nan], X, z, 1.0, 2)
    with pytest.raises(NonFinite):
        symmetric_attacked_predictions(theta, np.full((3, 2), np.inf), z, 1.0, 2)
    with pytest.raises(ValueError):
        symmetric_attacked_predictions(theta, X, z, 0.0, 2)
    with pytest.raises(ValueError):
        symmetric_attacked_predictions(theta, X, z, 1.0, 0)
    with np.errstate(over="ignore"), pytest.raises(NonFinite):  # lam * X theta overflows
        symmetric_attacked_predictions(theta, np.full((3, 2), 1e300), z, 1e300, 2)


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


# ------------------------------------------------------ input agreement

PROFILE_FUNCTIONS = {
    "attacker_best_response": lambda T, X, y, p: attacker_best_response(T, X, p),
    "attacker_cost": lambda T, X, y, p: attacker_cost(T, X, X, p),
    "exact_game_cost": lambda T, X, y, p: exact_game_cost(0, T, X, y, p),
    "approx_cost": lambda T, X, y, p: approx_cost(0, T, X, y, p),
    "approx_cost_gradient": lambda T, X, y, p: approx_cost_gradient(0, T, X, y, p),
}


@pytest.mark.parametrize("name", sorted(PROFILE_FUNCTIONS))
def test_profile_must_have_params_n_learners(name):
    # a profile of three learners against a game declared for one
    thetas = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    X = np.eye(2)
    y = np.array([1.0, 0.0])
    p = GameParams(n=1, beta=0.5, lam=1.0, z=np.array([2.0, 0.0]))
    with pytest.raises(DimensionMismatch, match="params.n"):
        PROFILE_FUNCTIONS[name](thetas, X, y, p)
    # the same call with a matching n answers
    PROFILE_FUNCTIONS[name](thetas, X, y, params_for(thetas, beta=0.5, z=[2.0, 0.0]))


@pytest.mark.parametrize("labels, target", [([1.0, 0.0, 3.0], [2.0, 0.0]),
                                            ([1.0, 0.0], [2.0, 0.0, 1.0])],
                         ids=["y-rows", "z-rows"])
def test_approx_cost_gradient_rejects_mismatched_labels(labels, target):
    thetas = np.array([[1.0, 0.0]])
    p = params_for(thetas, beta=0.5, z=target)
    for fn in (approx_cost, approx_cost_gradient):
        with pytest.raises(DimensionMismatch):
            fn(0, thetas, np.eye(2), np.array(labels), p)
