"""Test-time attack game between n linear learners and one data attacker.

Learners commit coefficient vectors theta_1..theta_n fit on clean data
(X, y); the attacker then replaces the evaluation features X with X' to
drag every learner's predictions toward a target z, paying a quadratic
price lam * ||X' - X||_F^2 for the edit. The attacker's problem is
strictly convex with the closed-form minimizer

    X' = (lam * X + z * sum_i theta_i^T) (lam * I + sum_i theta_i theta_i^T)^-1.

Each learner's realized cost mixes attacked and clean risk with weight
beta, and `approx_cost` is the upper-bound surrogate that decouples the
learners (clean risk plus a quartic interaction penalty).

Cost sums over learners are accumulated in a canonical order (value-sorted
contributions; lexicographic order for the rank-one updates) so relabeling
learners changes nothing, not even floating-point rounding.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NonFinite
from .linalg import rank_one_inverse_update


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
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if self.z.ndim != 1:
            raise DimensionMismatch(f"z must be a vector, got shape {self.z.shape}")
        if not np.all(np.isfinite(self.z)):
            raise NonFinite("z contains non-finite entries")
        if self.theta_radius is not None:
            self.theta_radius = float(self.theta_radius)
            if not 0.0 < self.theta_radius < math.inf:
                raise ValueError(f"theta_radius must be finite and > 0, got {self.theta_radius}")


@dataclass(eq=False)
class ThetaProfile:
    """Strategy profile: one coefficient vector per learner, as rows."""

    thetas: np.ndarray

    def __post_init__(self):
        self.thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))
        if not np.all(np.isfinite(self.thetas)):
            raise NonFinite("profile contains non-finite entries")

    @classmethod
    def symmetric(cls, theta, n):
        theta = np.asarray(theta, dtype=float)
        return cls(np.tile(theta, (int(n), 1)))

    @property
    def n(self):
        return self.thetas.shape[0]

    @property
    def d(self):
        return self.thetas.shape[1]


@dataclass(eq=False)
class AttackOperator:
    """Pieces of the closed-form best response: X' = B @ A_inv."""

    A_inv: np.ndarray
    B: np.ndarray


def _profile_array(thetas):
    if isinstance(thetas, ThetaProfile):
        return thetas.thetas
    T = np.atleast_2d(np.asarray(thetas, dtype=float))
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


def _canonical_sum(values):
    # value-sorted accumulation: invariant under any relabeling of learners
    return float(np.sum(np.sort(np.asarray(values, dtype=float))))


def _canonical_order(T):
    # lexicographic row order; np.lexsort keys run last-to-first
    return np.lexsort(T.T[::-1]) if T.shape[0] > 1 else np.arange(T.shape[0])


def sq_norm(v):
    v = np.asarray(v, dtype=float)
    return float(v @ v)


def build_attack_operator(thetas, X, params):
    """Assemble A_inv and B of the attacker's closed-form response.

    A = lam * I + sum_i theta_i theta_i^T is inverted incrementally,
    starting from (1/lam) I and applying one rank-one inverse update per
    learner (in canonical order, so the profile labeling is irrelevant).
    """
    T = _profile_array(thetas)
    X = _check_design(X, T.shape[1])
    if params.z.shape[0] != X.shape[0]:
        raise DimensionMismatch(
            f"z has {params.z.shape[0]} entries, X has {X.shape[0]} rows"
        )
    order = _canonical_order(T)
    A_inv = np.eye(T.shape[1]) / params.lam
    for i in order:
        A_inv = rank_one_inverse_update(A_inv, T[i])
    theta_sum = np.zeros(T.shape[1])
    for i in order:
        theta_sum = theta_sum + T[i]
    B = params.lam * X + np.outer(params.z, theta_sum)
    return AttackOperator(A_inv=A_inv, B=B)


def attacker_best_response(thetas, X, params):
    """The attacker's optimal manipulated feature matrix X'."""
    op = build_attack_operator(thetas, X, params)
    X_prime = op.B @ op.A_inv
    if not np.all(np.isfinite(X_prime)):
        raise NonFinite("best response produced non-finite entries")
    return X_prime


def attacker_cost(thetas, X, X_prime, params):
    """sum_i ||X' theta_i - z||^2 + lam * ||X' - X||_F^2."""
    T = _profile_array(thetas)
    X = _check_design(X, T.shape[1])
    X_prime = _check_design(X_prime, T.shape[1], m=X.shape[0], name="X_prime")
    if params.z.shape[0] != X.shape[0]:
        raise DimensionMismatch(
            f"z has {params.z.shape[0]} entries, X has {X.shape[0]} rows"
        )
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
    T = _profile_array(thetas)
    X_prime = attacker_best_response(T, X, params)
    return learner_cost(T[i], X, X_prime, y, params)


def approx_cost(i, thetas, X, y, params):
    """Decoupled surrogate cost for learner i.

    ||X theta_i - y||^2 + (beta / lam^2) * ||z - y||^2 * sum_j (theta_j^T theta_i)^2
    """
    T = _profile_array(thetas)
    X = _check_design(X, T.shape[1])
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],) or params.z.shape != y.shape:
        raise DimensionMismatch("X, y, z row counts disagree")
    base = sq_norm(X @ T[i] - y)
    coef = params.beta / params.lam**2 * sq_norm(params.z - y)
    terms = (T @ T[i]) ** 2
    return base + coef * _canonical_sum(terms)


def approx_cost_gradient(i, thetas, X, y, params):
    """Gradient of approx_cost in learner i's own coefficients."""
    T = _profile_array(thetas)
    X = _check_design(X, T.shape[1])
    y = np.asarray(y, dtype=float)
    coef = params.beta / params.lam**2 * sq_norm(params.z - y)
    ips = T @ T[i]
    quartic = 2.0 * coef * (T.T @ ips + ips[i] * T[i])
    return 2.0 * (X.T @ (X @ T[i] - y)) + quartic
