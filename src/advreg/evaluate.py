"""Benchmark harness: deploy models, attack them, score expected risk.

A scenario is one (train, test) pair plus two parameter settings: what the
defender *believes* (used to fit the game-equilibrium model) and what the
attacker *actually* does at test time. Every deployed algorithm is cloned
into n identical learners and attacked by its own optimal attacker; the
reported numbers are root-mean-square errors on clean features, attacked
features, and their beta-mixture (the expected risk under attack
probability beta). Models come from `fit_model`, the fit path the `train`
command shares.

Sweeps repeat scenarios over a lambda x beta grid with fresh seeded
train/test splits per repeat. Each (cell, repeat) derives its own RNG seed
from (base seed, cell indices, repeat), and cells run one after another.
"""

# unused here; perfbench's tracer reads and rebinds this name when installed
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .baselines import FitConfig, cross_validate, fit_lasso, fit_ols, fit_ridge
from .data import (
    ConstantTarget,
    TargetSpec,
    build_target,
    concat_datasets,
    fit_standardizer,
    apply_standardizer,
    label_stats,
    split_rows,
)
from .equilibrium import solve_equilibrium
from .exceptions import ConfigError, DimensionMismatch
from .game import GameParams, ThetaProfile, _check_beta_lam, attacker_best_response, sq_norm


def derive_seed(base, *parts):
    """Deterministic 64-bit mix of a base seed with stream labels."""
    h = int(base) & 0xFFFFFFFFFFFFFFFF
    for p in parts:
        p = int(p) & 0xFFFFFFFFFFFFFFFF
        h ^= (p + 0x9E3779B97F4A7C15 + ((h << 6) & 0xFFFFFFFFFFFFFFFF) + (h >> 2)) & 0xFFFFFFFFFFFFFFFF
        h &= 0xFFFFFFFFFFFFFFFF
    return h


# fixed stream labels so reordering computations cannot reshuffle draws
STREAM_DEFENDER_TARGET = 1
STREAM_ACTUAL_TARGET = 2
STREAM_CV_RIDGE = 3
STREAM_CV_LASSO = 4


def draw_target(y, target, seed, stream):
    """Attack target on labels y; returns (z, sigma, drawn).

    A ranged constant draws its value on `stream` of `seed` and returns it
    as `drawn` (None otherwise); offsets scale by sigma, the population std
    of y.
    """
    drawn = None
    if isinstance(target, ConstantTarget) and target.value_range is not None:
        lo, hi = target.value_range
        rng = np.random.default_rng(derive_seed(seed, stream))
        drawn = float(rng.uniform(float(lo), float(hi)))
        target = ConstantTarget(value=drawn, mask=target.mask)
    sigma = label_stats(y)[1]
    return build_target(y, target, sigma), sigma, drawn


def _fit_mlsg(X, y, *, setting, n, theta_radius, seed, **_):
    z_hat, sigma, drawn = draw_target(y, setting.target, seed, STREAM_DEFENDER_TARGET)
    params = GameParams(
        n=n, beta=setting.beta, lam=setting.lam, z=z_hat, theta_radius=theta_radius
    )
    sol = solve_equilibrium(X, y, params)
    return sol.theta_star, {
        "solver": sol.solver,
        "iterations": sol.iterations,
        "s_star": sol.s_star,
        "grad_norm": sol.grad_norm,
        "on_boundary": sol.on_boundary,
        "converged": sol.converged,
        "sigma": sigma,
        "drawn_value": drawn,
    }


def _fit_ols(X, y, **_):
    return fit_ols(X, y), {}


def _fit_penalized(method, X, y, *, fit, seed, alpha, **_):
    ridge = method == "ridge"
    diagnostics = {}
    if alpha is None:
        stream = STREAM_CV_RIDGE if ridge else STREAM_CV_LASSO
        alpha, errs = cross_validate(X, y, method, fit, seed=derive_seed(seed, stream))
        diagnostics["cv_errors"] = [float(e) for e in errs]
    diagnostics["alpha"] = float(alpha)
    if ridge:
        return fit_ridge(X, y, alpha), diagnostics
    theta, info = fit_lasso(X, y, alpha, return_info=True)
    diagnostics.update(info)
    return theta, diagnostics


_FITTERS = {
    "lasso": partial(_fit_penalized, "lasso"),
    "mlsg": _fit_mlsg,
    "ols": _fit_ols,
    "ridge": partial(_fit_penalized, "ridge"),
}
KNOWN_ALGORITHMS = tuple(sorted(_FITTERS))


def fit_model(algorithm, X, y, *, setting, n, theta_radius, fit, seed, alpha=None):
    """Fit one algorithm on (X, y); returns (theta, diagnostics).

    `mlsg` plays the equilibrium against `setting`, the defender's view of
    the game. Ridge and lasso cross-validate on the seed's CV stream unless
    `alpha` is given. X and y are fit as row-major copies, so the result
    does not depend on their memory layout.
    """
    if algorithm not in _FITTERS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; known: {KNOWN_ALGORITHMS}")
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    return _FITTERS[algorithm](
        X, y, setting=setting, n=n, theta_radius=theta_radius, fit=fit, seed=seed,
        alpha=alpha,
    )


@dataclass(eq=False)
class GameSetting:
    """One side's view of the game: effort price, attack probability, target.

    lam must be finite and > 0 and beta in [0, 1], as in GameParams.
    """

    lam: float
    beta: float
    target: TargetSpec | ConstantTarget = field(default_factory=TargetSpec)

    def __post_init__(self):
        _check_beta_lam(self.beta, self.lam)

    def as_dict(self):
        return {
            "lambda": float(self.lam),
            "beta": float(self.beta),
            "target": self.target.as_dict(),
        }


@dataclass(eq=False)
class ScenarioConfig:
    n: int
    defender_estimates: GameSetting
    actual: GameSetting
    algorithms: tuple = KNOWN_ALGORITHMS
    seed: int = 0
    defender_knows_actual: bool = False
    standardize: bool = True
    theta_radius: float | None = None
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        bad = [a for a in self.algorithms if a not in KNOWN_ALGORITHMS]
        if bad:
            raise ConfigError(f"unknown algorithms {bad}; known: {KNOWN_ALGORITHMS}")

    def as_dict(self):
        return {
            "n": self.n,
            "seed": int(self.seed),
            "algorithms": list(self.algorithms),
            "defender_knows_actual": self.defender_knows_actual,
            "standardize": self.standardize,
            "theta_radius": self.theta_radius,
            "defender_estimates": self.defender_estimates.as_dict(),
            "actual": self.actual.as_dict(),
            "fit": self.fit.as_dict(),
        }


@dataclass(eq=False)
class EvalReport:
    results: dict
    metadata: dict

    def as_dict(self):
        return {"results": self.results, "metadata": self.metadata}


@dataclass(eq=False)
class SweepGrid:
    lambda_values: list
    beta_values: list
    cells: list          # cells[i][j] = {algo: {rmse_expected/clean/attacked}}
    repeats: int
    metadata: dict

    def csv_rows(self):
        """Rows sorted by (lambda, beta, algorithm), ready for the CSV writer."""
        rows = []
        for i, lam in enumerate(self.lambda_values):
            for j, beta in enumerate(self.beta_values):
                for algo, vals in self.cells[i][j].items():
                    rows.append((float(lam), float(beta), algo, *(vals[k] for k in _RMSE_KEYS)))
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        return rows

    def as_dict(self):
        return {
            "lambda_values": [float(v) for v in self.lambda_values],
            "beta_values": [float(v) for v in self.beta_values],
            "repeats": self.repeats,
            "cells": [
                [
                    {algo: dict(vals) for algo, vals in cell.items()}
                    for cell in row
                ]
                for row in self.cells
            ],
            "metadata": self.metadata,
        }


_RMSE_KEYS = ("rmse_expected", "rmse_clean", "rmse_attacked")
CSV_HEADER = ["lambda", "beta", "algorithm", *_RMSE_KEYS]


def simulate_attack(thetas, X_test, z_test, lam):
    """Optimal manipulated features against the deployed profile."""
    profile = thetas if isinstance(thetas, ThetaProfile) else ThetaProfile(thetas)
    params = GameParams(n=profile.n, beta=1.0, lam=lam, z=z_test)
    return attacker_best_response(profile, X_test, params)


def expected_rmse(theta, X_clean, X_attacked, y, beta):
    """(expected, clean, attacked) RMSE for one model under attack prob beta."""
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    N = y.shape[0]
    sq_clean = sq_norm(X_clean @ theta - y)
    sq_att = sq_norm(X_attacked @ theta - y)
    rmse_clean = float(np.sqrt(sq_clean / N))
    rmse_att = float(np.sqrt(sq_att / N))
    rmse_exp = float(np.sqrt((beta * sq_att + (1.0 - beta) * sq_clean) / N))
    return rmse_exp, rmse_clean, rmse_att


def _target_used(target, drawn, sigma):
    """Metadata of a target as built: a drawn value replaces the range."""
    meta = target.as_dict()
    if drawn is not None:
        meta.update(value=drawn, value_range=None, drawn_value=drawn)
    meta["sigma"] = sigma
    return meta


def run_scenario(train, test, cfg):
    """Fit every algorithm, attack each with the actual setting, score RMSEs.

    Each side's target reads sigma from its own labels: the defender's
    from the training labels, the attacker's from the test labels.
    """
    if train.d != test.d:
        raise DimensionMismatch(f"train has {train.d} features, test has {test.d}")
    if cfg.standardize:
        std = fit_standardizer(train.X)
        X_tr = apply_standardizer(std, train.X)
        X_te = apply_standardizer(std, test.X)
    else:
        X_tr, X_te = train.X, test.X

    est = cfg.actual if cfg.defender_knows_actual else cfg.defender_estimates
    _, est_sigma, est_drawn = draw_target(
        train.y, est.target, cfg.seed, STREAM_DEFENDER_TARGET
    )
    z_test, act_sigma, act_drawn = draw_target(
        test.y, cfg.actual.target, cfg.seed, STREAM_ACTUAL_TARGET
    )

    results = {}
    diagnostics = {}
    for algo in sorted(cfg.algorithms):
        theta, diagnostics[algo] = fit_model(
            algo, X_tr, train.y, setting=est, n=cfg.n, theta_radius=cfg.theta_radius,
            fit=cfg.fit, seed=cfg.seed,
        )
        profile = ThetaProfile.symmetric(theta, cfg.n)
        X_att = simulate_attack(profile, X_te, z_test, cfg.actual.lam)
        exp, clean, att = expected_rmse(theta, X_te, X_att, test.y, cfg.actual.beta)
        results[algo] = {
            "rmse_expected": exp,
            "rmse_clean": clean,
            "rmse_attacked": att,
            "theta": [float(t) for t in theta],
        }

    metadata = {
        "config": cfg.as_dict(),
        "resolved": {
            "sigma_source": "defender_train_actual_test_population",
            "rows_train": train.m,
            "rows_test": test.m,
            "defender_target": _target_used(est.target, est_drawn, est_sigma),
            "actual_target": _target_used(cfg.actual.target, act_drawn, act_sigma),
            "label_standardized": False,
            "feature_standardization": "train_mean_std_population" if cfg.standardize else "none",
            "ridge_objective": "sse_plus_alpha_l2sq",
            "lasso_objective": "sse_plus_alpha_l1",
        },
        "diagnostics": diagnostics,
    }
    return EvalReport(results=results, metadata=metadata)


def _grid(name, values, check):
    """The grid as floats; ConfigError naming it unless every value is a
    number (not a bool) that passes check."""
    try:
        grid = list(values)
        if isinstance(values, str) or any(isinstance(v, bool) for v in grid):
            raise TypeError
        grid = [float(v) for v in grid]
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}") from None
    if not grid:
        raise ConfigError(f"{name} must be non-empty")
    for v in grid:
        try:
            check(v)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return grid


def run_sweep(train, test, cfg, lambda_grid, beta_grid, repeats, seed):
    """Grid of scenarios with per-repeat fresh splits; cell means per algorithm.

    Each repeat reshuffles the pooled rows and trains on train.m of them.
    Every grid value is checked before the first scenario runs.

    The defender's estimates stay fixed across the grid unless
    cfg.defender_knows_actual is set, in which case they track each cell.
    """
    lambda_grid = _grid("lambda_grid", lambda_grid, lambda lam: _check_beta_lam(0.0, lam))
    beta_grid = _grid("beta_grid", beta_grid, lambda beta: _check_beta_lam(beta, 1.0))
    repeats = int(repeats)
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    full = concat_datasets(train, test)

    algos = sorted(cfg.algorithms)
    cells = []
    for i, lam in enumerate(lambda_grid):
        row = []
        for j, beta in enumerate(beta_grid):
            runs = []
            for r in range(repeats):
                s = derive_seed(seed, i, j, r)
                cell_cfg = replace(cfg, seed=s, actual=replace(cfg.actual, lam=lam, beta=beta))
                if (i, j, r) == (0, 0, 0):
                    scenario = cell_cfg.as_dict()
                runs.append(run_scenario(*split_rows(full, train.m, s), cell_cfg).results)
            # canonical reduction order: repeat 0, 1, ...
            row.append({
                algo: {k: float(np.mean([res[algo][k] for res in runs])) for k in _RMSE_KEYS}
                for algo in algos
            })
        cells.append(row)

    metadata = {
        "base_seed": int(seed),
        "repeats": repeats,
        "train_fraction": train.m / full.m,
        "rows_total": full.m,
        "scenario": scenario,
        "seed_derivation": "hash_combine(base_seed, lambda_index, beta_index, repeat)",
    }
    return SweepGrid(
        lambda_values=lambda_grid,
        beta_values=beta_grid,
        cells=cells,
        repeats=repeats,
        metadata=metadata,
    )
