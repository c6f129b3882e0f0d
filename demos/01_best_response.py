#!/usr/bin/env python3
"""Walk through the attacker's closed-form optimal feature manipulation.

A small regression model is fit honestly, then the attacker — who wants the
model to predict a shifted target z instead of the truth y — rewrites the
test features. The manipulation has a closed form, and this script shows it
really is the cost minimizer by probing random directions around it.
"""

import numpy as np

from advreg.baselines import fit_ols
from advreg.game import GameParams, attacker_best_response, attacker_cost

rng = np.random.default_rng(0)

# a tiny regression task: 4 test rows, 2 features
X = rng.uniform(-1.0, 1.0, (4, 2))
y = X @ np.array([1.5, -0.7]) + 0.05 * rng.standard_normal(4)
theta = fit_ols(X, y)

# the attacker wants predictions pushed two units above the truth
z = y + 2.0
params = GameParams(n=1, beta=1.0, lam=0.5, z=z)
profile = theta[None, :]  # one learner, as a row

X_star = attacker_best_response(profile, X, params)

np.set_printoptions(precision=3, suppress=True)
print("honest model theta:", theta)
print()
print("clean features:\n", X)
print("manipulated features:\n", X_star)
print()
print("truth y:              ", y)
print("attack target z:      ", z)
print("predictions, clean:   ", X @ theta)
print("predictions, attacked:", X_star @ theta)
print()

c_star = attacker_cost(profile, X, X_star, params)
c_lazy = attacker_cost(profile, X, X, params)
print(f"attacker cost if it does nothing: {c_lazy:.4f}")
print(f"attacker cost at the closed form: {c_star:.4f}")

# probe: the closed form should beat every nearby manipulation
worst = np.inf
for _ in range(2000):
    E = rng.standard_normal(X.shape)
    E *= 1e-3 / np.sqrt(np.sum(E**2))
    worst = min(worst, attacker_cost(profile, X, X_star + E, params) - c_star)
print(f"worst cost margin over 2000 random nearby manipulations: {worst:.3e}")
print("(non-negative: no nearby manipulation does better)")
