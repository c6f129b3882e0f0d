"""Test-time attack game between n linear learners and one data attacker.

Learners commit coefficient vectors theta_1..theta_n fit on clean data
(X, y); the attacker then replaces the evaluation features X with X' to
drag every learner's predictions toward a target z, paying a quadratic
price lam * ||X' - X||_F^2 for the edit. The attacker's problem is
strictly convex with the closed-form minimizer

    X' = (lam * X + z * sum_i theta_i^T) (lam * I + sum_i theta_i theta_i^T)^-1.

When all n learners play the same theta, A = lam * I + n theta theta^T, and
Sherman-Morrison on this minimizer gives A^-1 theta = theta / (lam + n s)
with s = theta^T theta, so the attacked predictions need no X':

    X' theta = (lam * X theta + n s z) / (lam + n s).

`symmetric_attacked_predictions` evaluates this in O(md).

Each learner's realized cost mixes attacked and clean risk with weight
beta, and `approx_cost` is the upper-bound surrogate that decouples the
learners (clean risk plus a quartic interaction penalty).

Cost sums over learners are accumulated in a canonical order (value-sorted
contributions; lexicographic row order for the best response's system) so
relabeling learners changes nothing, not even floating-point rounding.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NonFinite


def _check_beta_lam(beta, lam):
    """Raise ValueError unless beta is in [0, 1] and lam is finite and > 0."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be finite and > 0, got {lam}")


@dataclass(eq=False)
class GameParams:
    """Fixed data of one game instance.

    n : number of learners (>= 1)
    beta : probability the attack happens, in [0, 1]
    lam : attacker's effort price, finite and > 0
    z : attack target vector, one entry per evaluation row
    theta_radius : feasible-ball radius for learners, finite and > 0; None means no ball
    """

    n: int
    beta: float
    lam: float
    z: np.ndarray
    theta_radius: float | None = None

    def __post_init__(self):
        self.n = int(self.n)
        self.beta = float(self.beta)
        self.lam = float(self.lam)
        self.z = np.asarray(self.z, dtype=float)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        _check_beta_lam(self.beta, self.lam)
        if self.z.ndim != 1:
            raise DimensionMismatch(f"z must be a vector, got shape {self.z.shape}")
        if not np.all(np.isfinite(self.z)):
            raise NonFinite("z contains non-finite entries")
        if self.theta_radius is not None:
            self.theta_radius = float(self.theta_radius)
            if not 0.0 < self.theta_radius < math.inf:
                raise ValueError(f"theta_radius must be finite and > 0, got {self.theta_radius}")


def _profile_array(thetas, params):
    T = np.atleast_2d(np.asarray(thetas, dtype=float))
    if T.shape[0] != params.n:
        raise DimensionMismatch(f"profile has {T.shape[0]} learners, params.n is {params.n}")
    if not np.all(np.isfinite(T)):
        raise NonFinite("profile contains non-finite entries")
    return T


def _check_design(X, d, m=None, name="X"):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {X.shape}")
    if X.shape[1] != d:
        raise DimensionMismatch(f"{name} has {X.shape[1]} columns, profile has {d}")
    if m is not None and X.shape[0] != m:
        raise DimensionMismatch(f"{name} has {X.shape[0]} rows, expected {m}")
    if not np.all(np.isfinite(X)):
        raise NonFinite(f"{name} contains non-finite entries")
    return X


def _check_labels(y, z, X):
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],) or z.shape != y.shape:
        raise DimensionMismatch("X, y, z row counts disagree")
    return y


def _check_target_rows(z, X):
    if z.shape[0] != X.shape[0]:
        raise DimensionMismatch(f"z has {z.shape[0]} entries, X has {X.shape[0]} rows")


def _canonical_sum(values):
    # value-sorted accumulation: invariant under any relabeling of learners
    return float(np.sum(np.sort(np.asarray(values, dtype=float))))


def _canonical_order(T):
    # lexicographic row order; np.lexsort keys run last-to-first
    return np.lexsort(T.T[::-1]) if T.shape[0] > 1 else np.arange(T.shape[0])


def sq_norm(v):
    v = np.asarray(v, dtype=float)
    return float(v @ v)


def attacker_best_response(thetas, X, params):
    """The attacker's optimal manipulated feature matrix X'.

    X' solves X' A = B with A = lam * I + Theta^T Theta, symmetric positive
    definite, and B = lam * X + z (sum_i theta_i)^T: one LAPACK solve against
    B, with Theta's rows in canonical order so the profile labeling is
    irrelevant. A^-1 is never formed.
    """
    T = _profile_array(thetas, params)
    X = _check_design(X, T.shape[1])
    _check_target_rows(params.z, X)
    T = T[_canonical_order(T)]
    A = params.lam * np.eye(T.shape[1]) + T.T @ T
    B = params.lam * X + np.outer(params.z, T.sum(axis=0))
    X_prime = np.linalg.solve(A, B.T).T
    if not np.all(np.isfinite(X_prime)):
        raise NonFinite("best response produced non-finite entries")
    return X_prime


def symmetric_attacked_predictions(theta, X, z, lam, n):
    """X' theta of the best response to n copies of theta, without X'.

    Equals `attacker_best_response(np.tile(theta, (n, 1)), X, params) @ theta`
    up to rounding; see the module docstring for the form.
    """
    return _symmetric_predictions(theta, X, GameParams(n=n, beta=1.0, lam=lam, z=z))[1]


def _symmetric_predictions(theta, X, params, check_X=True):
    """(X theta, X' theta) off one X theta; check_X=False trusts X and z as checked."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise DimensionMismatch(f"theta must be a vector, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise NonFinite("theta contains non-finite entries")
    if check_X:
        X = _check_design(X, theta.shape[0])
        _check_target_rows(params.z, X)
    X_theta = X @ theta
    ns = params.n * sq_norm(theta)
    pred = (params.lam * X_theta + ns * params.z) / (params.lam + ns)
    if not np.all(np.isfinite(pred)):
        raise NonFinite("attacked predictions are non-finite")
    return X_theta, pred


def attacker_cost(thetas, X, X_prime, params):
    """sum_i ||X' theta_i - z||^2 + lam * ||X' - X||_F^2."""
    T = _profile_array(thetas, params)
    X = _check_design(X, T.shape[1])
    X_prime = _check_design(X_prime, T.shape[1], m=X.shape[0], name="X_prime")
    _check_target_rows(params.z, X)
    resid = X_prime @ T.T - params.z[:, None]
    terms = np.sum(resid * resid, axis=0)
    shift = X_prime - X
    return _canonical_sum(terms) + params.lam * float(np.sum(shift * shift))


def learner_cost(theta_i, X, X_prime, y, params):
    """beta * ||X' theta - y||^2 + (1 - beta) * ||X theta - y||^2."""
    theta_i = np.asarray(theta_i, dtype=float)
    X = _check_design(X, theta_i.shape[0])
    X_prime = _check_design(X_prime, theta_i.shape[0], m=X.shape[0], name="X_prime")
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise DimensionMismatch(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    attacked = sq_norm(X_prime @ theta_i - y)
    clean = sq_norm(X @ theta_i - y)
    return params.beta * attacked + (1.0 - params.beta) * clean


def exact_game_cost(i, thetas, X, y, params):
    """Learner i's realized cost when the attacker best-responds to thetas."""
    T = _profile_array(thetas, params)
    X_prime = attacker_best_response(T, X, params)
    return learner_cost(T[i], X, X_prime, y, params)


def approx_cost(i, thetas, X, y, params):
    """Decoupled surrogate cost for learner i.

    ||X theta_i - y||^2 + (beta / lam^2) * ||z - y||^2 * sum_j (theta_j^T theta_i)^2
    """
    T = _profile_array(thetas, params)
    X = _check_design(X, T.shape[1])
    y = _check_labels(y, params.z, X)
    base = sq_norm(X @ T[i] - y)
    coef = params.beta / params.lam**2 * sq_norm(params.z - y)
    terms = (T @ T[i]) ** 2
    return base + coef * _canonical_sum(terms)


def approx_cost_gradient(i, thetas, X, y, params):
    """Gradient of approx_cost in learner i's own coefficients."""
    T = _profile_array(thetas, params)
    X = _check_design(X, T.shape[1])
    y = _check_labels(y, params.z, X)
    coef = params.beta / params.lam**2 * sq_norm(params.z - y)
    ips = T @ T[i]
    quartic = 2.0 * coef * (T.T @ ips + ips[i] * T[i])
    return 2.0 * (X.T @ (X @ T[i] - y)) + quartic
