#!/usr/bin/env python3
"""Solve the learners' game and connect its equilibrium to ridge regression.

The symmetric equilibrium of the approximate learner game minimizes

    f(theta) = ||X theta - y||^2 + (kappa / 4) (theta' theta)^2,
    kappa    = 2 beta (n + 1) ||z - y||^2 / lambda^2.

On a one-dimensional instance chosen so the stationarity condition becomes
theta^3 + theta - 2 = 0, the equilibrium is exactly theta = 1 — a hand-check
for the spectral solver, whose gradient norm at its answer shows how close
to stationary it lands. The script then shows the equilibrium coincides with
ridge regression whose penalty weight is set by the equilibrium itself.
"""

import numpy as np

from advreg.baselines import fit_ridge
from advreg.equilibrium import equilibrium_objective, solve_equilibrium
from advreg.game import GameParams

X = np.array([[1.0]])
y = np.array([2.0])
params = GameParams(n=1, beta=0.5, lam=1.0, z=np.array([1.0]))

sol = solve_equilibrium(X, y, params)
f_star = equilibrium_objective(sol.theta_star, X, y, params)
print(f"theta* = {sol.theta_star[0]:.10f} (exact 1), f* = {f_star:.10f} (exact 1.5), "
      f"gradient norm {sol.grad_norm:.1e} after {sol.iterations} Newton steps")
print()

# a larger random instance: equilibrium == ridge with a self-consistent alpha
rng = np.random.default_rng(1)
X = rng.uniform(-1.0, 1.0, (30, 4))
y = rng.uniform(-1.0, 1.0, 30)
z = y + rng.uniform(0.5, 1.5, 30)

for beta in (0.0, 0.3, 0.6, 0.9):
    params = GameParams(n=5, beta=beta, lam=1.0, z=z)
    sol = solve_equilibrium(X, y, params)
    kappa = 2.0 * beta * (params.n + 1) * float(np.sum((z - y) ** 2)) / params.lam**2
    alpha = 0.5 * kappa * sol.s_star
    ridge = fit_ridge(X, y, alpha) if alpha > 0 else None
    gap = 0.0 if ridge is None else float(np.max(np.abs(ridge - sol.theta_star)))
    print(f"beta = {beta:.1f}: ||theta*|| = {np.linalg.norm(sol.theta_star):.4f}, "
          f"implied ridge alpha = {alpha:8.3f}, ridge-vs-equilibrium gap = {gap:.2e}")

print()
print("raising the planned-for attack probability shrinks the equilibrium")
print("coefficients exactly like an ever-stronger ridge penalty would.")
