"""Independent output checks: numpy references only, no advreg solvers.

Each checker returns None when the output is right and a one-line reason
when it is not. They see only what the program wrote (model JSON,
attacked CSV, sweep CSV, certificate reports, equilibrium solutions) and
the generated inputs.
"""

import csv
import math

import numpy as np

# PGD's stopping rule, applied to any equilibrium solution on the ball
PGD_TOL = 1e-8
SWEEP_HEADER = ["lambda", "beta", "algorithm", "rmse_expected", "rmse_clean", "rmse_attacked"]
ALGORITHMS = ("lasso", "mlsg", "ols", "ridge")


def population_std(v):
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(np.mean((v - v.mean()) ** 2)))


def standardizer(X):
    """Train-set mean / population std; zero-variance columns pass through."""
    means = X.mean(axis=0)
    stds = np.sqrt(np.mean((X - means) ** 2, axis=0))
    flat = stds < 1e-12
    return np.where(flat, 0.0, means), np.where(flat, 1.0, stds)


def kappa(y, z, n, beta, lam):
    return 2.0 * beta * (n + 1) * float((z - y) @ (z - y)) / lam**2


def equilibrium_grad(theta, X, y, k):
    return 2.0 * (X.T @ (X @ theta - y)) + k * float(theta @ theta) * theta


def check_equilibrium(theta, X, y, z, n, beta, lam, radius):
    """Interior: gradient norm; on the ball: feasibility plus projected-gradient
    stationarity, both at PGD's tolerance tol * (1 + ||2 X^T y||)."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        return "non-finite coefficients"
    k = kappa(y, z, n, beta, lam)
    G = X.T @ X
    c = X.T @ y
    gscale = 1.0 + float(np.linalg.norm(2.0 * c))
    grad = equilibrium_grad(theta, X, y, k)
    nrm = float(np.linalg.norm(theta))
    if nrm < radius * (1.0 - 1e-9):
        gn = float(np.linalg.norm(grad))
        if gn > PGD_TOL * gscale:
            return f"interior gradient norm {gn:.3e} above {PGD_TOL * gscale:.3e}"
        return None
    if nrm > radius * (1.0 + 1e-9):
        return f"infeasible: norm {nrm:.17g} above radius {radius:.17g}"
    L_hat = 2.0 * float(np.max(np.sum(np.abs(G), axis=1))) + 6.0 * k * radius * radius
    t = 1.0 / L_hat
    step = theta - t * grad
    snorm = float(np.linalg.norm(step))
    proj = step if snorm <= radius else step * (radius / snorm)
    pg = float(np.linalg.norm((theta - proj) / t))
    if pg > PGD_TOL * gscale:
        return f"projected gradient {pg:.3e} above {PGD_TOL * gscale:.3e}"
    return None


def check_model(model, X, y, delta_scale):
    """A `train` model JSON fit on (X, y) with CLI defaults (standardized)."""
    pre = model["preprocessing"]
    if not pre.get("standardize"):
        return "model is not standardized"
    means = np.asarray(pre["means"], dtype=float)
    stds = np.asarray(pre["stds"], dtype=float)
    ref_means, ref_stds = standardizer(X)
    if not (np.allclose(means, ref_means, rtol=1e-12, atol=0.0)
            and np.allclose(stds, ref_stds, rtol=1e-12, atol=0.0)):
        return "standardizer differs from the numpy reference"
    Xs = (X - means) / stds
    theta = np.asarray(model["theta"], dtype=float)
    if theta.shape != (X.shape[1],) or not np.all(np.isfinite(theta)):
        return f"bad coefficient vector of shape {theta.shape}"
    G = Xs.T @ Xs
    c = Xs.T @ y
    algo = model["algorithm"]
    diag = model["diagnostics"]
    if algo == "ols":
        r = float(np.linalg.norm(G @ theta - c))
        scale = float(np.linalg.norm(G, 2) * np.linalg.norm(theta) + np.linalg.norm(c))
        return None if r <= 1e-10 * scale else f"normal-equation residual {r:.3e}"
    if algo == "ridge":
        alpha = float(diag["alpha"])
        ref = np.linalg.solve(G + alpha * np.eye(G.shape[0]), c)
        err = float(np.linalg.norm(theta - ref))
        return None if err <= 1e-9 * (1.0 + np.linalg.norm(ref)) else f"ridge error {err:.3e}"
    if algo == "lasso":
        half = 0.5 * float(diag["alpha"])
        g = c - G @ theta
        tol = 1e-6 * (1.0 + float(np.max(np.abs(c))))
        active = theta != 0.0
        viol = np.where(active, np.abs(g - half * np.sign(theta)), np.abs(g) - half)
        worst = float(np.max(viol))
        return None if worst <= tol else f"lasso KKT violation {worst:.3e} above {tol:.3e}"
    if algo == "mlsg":
        cfg = model["config"]
        z = y + delta_scale * population_std(y)
        radius = cfg["theta_radius"]
        if radius is None:
            radius = 10.0 * float(np.linalg.norm(np.linalg.solve(G, c)))
        return check_equilibrium(theta, Xs, y, z, int(cfg["n"]), float(cfg["beta"]),
                                 float(cfg["lambda"]), float(radius))
    return f"unknown algorithm {algo!r}"


def check_attacked_csv(path, header, model, X, y, lam, delta_scale):
    """X'(lam I + theta theta^T) = lam X + z theta^T in the model's feature space."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if [h.strip() for h in rows[0]] != header:
        return "attacked CSV header differs from the test file"
    table = np.array(rows[1:], dtype=float)
    if table.shape != (X.shape[0], X.shape[1] + 1):
        return f"attacked CSV has shape {table.shape}"
    label = header.index(model["preprocessing"]["label_name"])
    if not np.array_equal(table[:, label], y):
        return "labels changed"
    pre = model["preprocessing"]
    means = np.asarray(pre["means"], dtype=float)
    stds = np.asarray(pre["stds"], dtype=float)
    Xa = (np.delete(table, label, axis=1) - means) / stds
    Xs = (X - means) / stds
    theta = np.asarray(model["theta"], dtype=float)
    z = y + delta_scale * population_std(y)
    lhs = Xa @ (lam * np.eye(theta.size) + np.outer(theta, theta))
    rhs = lam * Xs + np.outer(z, theta)
    err = float(np.max(np.abs(lhs - rhs)))
    scale = 1.0 + float(np.max(np.abs(rhs)))
    return None if err <= 1e-9 * scale else f"best-response identity off by {err:.3e}"


def check_sweep_csv(path, lambda_grid, beta_grid):
    """One finite row per (lambda, beta, algorithm), sorted, with the mixture identity."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if rows[0] != SWEEP_HEADER:
        return f"sweep header {rows[0]}"
    body = rows[1:]
    want = len(lambda_grid) * len(beta_grid) * len(ALGORITHMS)
    if len(body) != want:
        return f"{len(body)} sweep rows, expected {want}"
    keys = [(float(r[0]), float(r[1]), r[2]) for r in body]
    expected = sorted((float(lam), float(beta), algo)
                      for lam in lambda_grid for beta in beta_grid for algo in ALGORITHMS)
    if keys != expected:
        return "sweep rows are not one per (lambda, beta, algorithm) in sorted order"
    for r in body:
        beta = float(r[1])
        exp, clean, att = (float(v) for v in r[3:6])
        if not all(math.isfinite(v) and v >= 0.0 for v in (exp, clean, att)):
            return f"non-finite or negative RMSE in row {r}"
        mix = beta * att * att + (1.0 - beta) * clean * clean
        if abs(exp * exp - mix) > 1e-10 * max(mix, 1e-300):
            return f"rmse_expected^2 != beta att^2 + (1-beta) clean^2 in row {r}"
    return None


def check_reports(reports, names, trials):
    """Certificate reports: one per requested check, all trials run, no failures."""
    got = [r.check_name for r in reports]
    if got != list(names):
        return f"reports for {got}, expected {list(names)}"
    for r in reports:
        if r.trials != trials:
            return f"{r.check_name} ran {r.trials} trials, expected {trials}"
        if r.failures != 0:
            return f"{r.check_name} reported {r.failures} failures"
    return None
