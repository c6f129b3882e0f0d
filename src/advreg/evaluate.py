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
from (base seed, cell indices, repeat) and draws its split once. The
scenarios run in blocks of SWEEP_BLOCK in that order. A block gathers a
scenario's rows off its split by plain index as each pass needs them, and
holds only its folds, Grams and targets between the passes:

1. the fit stage `_fit`: a first pass gathers the training rows and the
   test labels, draws both targets, runs every algorithm's input checks in
   sorted order, draws each CV's folds and builds its fold blocks and
   Grams and the training X^T X and X^T y;
2. one `lasso_paths` call runs every lasso CV fold and deployed lasso of
   the block, and one `sym_eig` call decomposes every ridge CV fold Gram
   and training X^T X;
3. a second pass gathers the training rows, and only those, of the
   scenarios that fit mlsg and solves those fits off the spectra in one
   lockstep (`_from_spectra`), then `_cv_score` scores every CV of the
   block in one stack (a CV near a tie gathers its training rows once
   more), and each lasso is read off its path, and ridge and OLS off the
   spectra;
4. `_score` gathers the test rows and scores every model off one X theta.

So every input check of a scenario runs before any of its solves. No code
stores an error: `_run_block` catches one only to run a block of several
scenarios again as blocks of one, so a sweep raises what its first failing
scenario raises alone. `run_scenario` is the block of one, and `fit_model`
runs the fit stage on one problem with no test set.
"""

# unused here; perfbench's tracer reads and rebinds this name when installed
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import FitConfig, lasso_paths
from .baselines import _check_alpha, _check_xy, _cv_score, _fold_blocks, _folds
from .data import (
    ConstantTarget,
    TargetSpec,
    build_target,
    concat_datasets,
    fit_standardizer,
    apply_standardizer,
    label_stats,
)
from .equilibrium import _finite_system, _from_spectra
from .exceptions import ConfigError, DimensionMismatch
from .game import (
    GameParams,
    _check_beta_lam,
    _symmetric_predictions,
    sq_norm,
)
from .linalg import _solve_spectrum, _spectrum


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


KNOWN_ALGORITHMS = ("lasso", "mlsg", "ols", "ridge")


def fit_model(algorithm, X, y, *, setting, n, theta_radius, fit, seed, alpha=None):
    """Fit one algorithm on (X, y); returns (theta, diagnostics).

    `mlsg` plays the equilibrium against `setting`, the defender's view of
    the game. Ridge and lasso cross-validate on the seed's CV stream unless
    `alpha` is given. X and y are fit as row-major copies, so the result
    does not depend on their memory layout. The fit is the sweep's fit
    stage on one problem.
    """
    if algorithm not in KNOWN_ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; known: {KNOWN_ALGORITHMS}")
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    cfg = ScenarioConfig(n, setting, setting, (algorithm,), seed, theta_radius=theta_radius,
                         fit=fit)
    return _fit([(lambda: (X, y), None, cfg, alpha)])[0][0][algorithm]


def _fit(problems):
    """The fit stage. Per problem (rows, test, cfg, alpha), rows() -> (X, y)
    the training rows, row-major, and test the test rows or None, returns
    the fits {algo: (theta, diagnostics)}, the defender's target and the
    actual target, each `draw_target`'s (z, sigma, drawn) or None: the
    defender's is drawn if mlsg is fit or test is given, the actual one, on
    test.y, if test is given. A given alpha replaces ridge's and lasso's CV.
    rows() is read again for mlsg and for a CV near a tie, and test.y only
    in the first pass; the module docstring gives the order."""
    held, lasso, lasso_alphas, eig = [], [], [], []
    for rows, test, cfg, alpha in problems:
        X, y = rows()
        y_test = None if test is None else test.y
        est = cfg.actual if cfg.defender_knows_actual else cfg.defender_estimates
        defender = actual = None
        if "mlsg" in cfg.algorithms or y_test is not None:
            defender = draw_target(y, est.target, cfg.seed, STREAM_DEFENDER_TARGET)
        if y_test is not None:
            actual = draw_target(y_test, cfg.actual.target, cfg.seed, STREAM_ACTUAL_TARGET)
        plan, system = {}, None
        for algo in sorted(cfg.algorithms):
            if algo == "mlsg":
                plan[algo] = GameParams(n=cfg.n, beta=est.beta, lam=est.lam, z=defender[0],
                                        theta_radius=cfg.theta_radius)
                system = system or _finite_system(X.T @ X, X.T @ y)
                continue
            X, y = _check_xy(X, y)
            if algo == "lasso":  # sorts first: no system yet
                system = _finite_system(X.T @ X, X.T @ y)
            stack = lasso if algo == "lasso" else eig
            start, grid, folds, blocks = len(stack), cfg.fit.cv_alpha_grid, None, None
            if algo == "ols" or alpha is not None:  # the grid's width, for the lasso stack
                grid = np.full(grid.size, _check_alpha(0.0 if algo == "ols" else alpha))
            else:
                folds = _folds(len(y), cfg.fit, derive_seed(
                    cfg.seed, STREAM_CV_LASSO if algo == "lasso" else STREAM_CV_RIDGE))
                G, b, blocks = _fold_blocks(X, y, folds)
                stack += zip(G, b)
            if algo == "lasso":  # the deployed path joins its CV folds' stack
                stack.append(system)
                lasso_alphas += [grid] * (len(stack) - start)
            plan[algo] = folds, blocks, slice(start, len(stack)), grid
        t = None  # the training X^T X's place in eig
        if plan.keys() - {"lasso"}:
            t = len(eig)
            eig.append(system or (X.T @ X, X.T @ y))
        held.append((plan, t, defender, actual))

    if lasso:
        lasso_thetas, lasso_knots = lasso_paths(*map(np.array, zip(*lasso)),
                                                np.array(lasso_alphas))
    if eig:
        lam, V, c = _spectrum(*map(np.array, zip(*eig)))

    def deploy(algo, t, at, grid, alpha, diagnostics):
        """The fit at alpha, read off the deployed lasso path or the training spectrum."""
        if algo != "ols":
            diagnostics["alpha"] = float(alpha)
        if algo != "lasso":
            return _solve_spectrum(lam[t], V[t], c[t], np.array([alpha]))[0], diagnostics
        i = at.stop - 1, int(np.argmax(grid == alpha))  # the deployed path's read
        return lasso_thetas[i], {**diagnostics, "solver": "path", "path_knots": int(lasso_knots[i])}

    at = [t for plan, t, _, _ in held if "mlsg" in plan]
    games = ((*rows(), plan["mlsg"]) for (rows, *_), (plan, *_) in zip(problems, held)
             if "mlsg" in plan)  # no rows are held past the solve
    mlsg = iter(_from_spectra(list(games), lam[at], [V[t] for t in at], c[at]) if at else ())
    out, cvs = [], {}  # the CVs that share (k, grid, d), to score as one stack
    for (rows, _, cfg, _), (plan, t, defender, actual) in zip(problems, held):
        fits = {}
        for algo in sorted(cfg.algorithms):
            if algo == "mlsg":
                sol = next(mlsg)
                fits[algo] = sol.theta_star, {
                    "solver": sol.solver, "iterations": sol.iterations, "s_star": sol.s_star,
                    "grad_norm": sol.grad_norm, "on_boundary": sol.on_boundary,
                    "converged": sol.converged, "sigma": defender[1], "drawn_value": defender[2]}
                continue
            folds, blocks, at, grid = plan[algo]
            if folds is None:
                fits[algo] = deploy(algo, t, at, grid, grid[0], {})
                continue
            thetas = (lasso_thetas[at][:-1] if algo == "lasso"
                      else _solve_spectrum(lam[at], V[at], c[at], grid))
            cvs.setdefault((len(folds), grid.tobytes(), thetas.shape[-1]), []).append(
                ((rows, folds, algo), blocks, thetas, (fits, algo, t, at, grid)))
        out.append((fits, defender, actual))
    for group in cvs.values():
        stack, blocks, thetas, deploys = zip(*group)
        scores = _cv_score(stack, np.array(blocks), np.array(thetas), deploys[0][-1])
        for (alpha, errs), (fits, algo, *args) in zip(scores, deploys):
            fits[algo] = deploy(algo, *args, alpha, {"cv_errors": [float(e) for e in errs]})
    return out


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


def expected_rmse(pred_clean, pred_attacked, y, beta):
    """(expected, clean, attacked) RMSE of one model's predictions on clean
    and on attacked features, under attack probability beta."""
    y = np.asarray(y, dtype=float)
    N = y.shape[0]
    sq_clean = sq_norm(np.asarray(pred_clean, dtype=float) - y)
    sq_att = sq_norm(np.asarray(pred_attacked, dtype=float) - y)
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
    from the training labels, the attacker's from the test labels. The
    attack on n copies of a model is scored from its predictions X' theta
    in closed form (`symmetric_attacked_predictions`); X' is never built.
    This is the block of one scenario; sweeps run blocks of SWEEP_BLOCK.
    """
    return _run_block([(lambda: (train, test), cfg)])[0]


SWEEP_BLOCK = 12  # scenarios per block; bounds what a block's stacks hold


class _Rows:
    """Rows idx of a dataset, taken by a plain index gather at each read."""

    def __init__(self, data, idx):
        self.data, self.idx, self.m, self.d = data, idx, idx.size, data.d

    X = property(lambda self: self.data.X[self.idx])
    y = property(lambda self: self.data.y[self.idx])


class _Split:
    """A scenario's rows() -> (train, test), Datasets or `_Rows`; X(side) is
    standardized by the training rows, whose first read fits the standardizer."""

    def __init__(self, rows, cfg):
        self.train, self.test = rows()
        if self.train.d != self.test.d:
            raise DimensionMismatch(f"train has {self.train.d} features, test has {self.test.d}")
        self.std = None if cfg.standardize else False

    def X(self, side):
        X = side.X
        self.std = fit_standardizer(X) if self.std is None else self.std
        return apply_standardizer(self.std, X) if self.std else X

    def fit_rows(self):  # the training rows, as the fit stage reads them
        return self.X(self.train), self.train.y


def _run_block(scenarios):
    """EvalReports of scenarios (rows, cfg), rows() -> (train, test): one fit
    stage for the block, then a pass over the test rows to score. If
    anything raises, the scenarios run as blocks of one, so the error comes
    where the scenario alone raises it."""
    try:
        splits = [_Split(rows, cfg) for rows, cfg in scenarios]
        fitted = _fit([(split.fit_rows, split.test, cfg, None)
                       for split, (_, cfg) in zip(splits, scenarios)])
        return [_score(split, cfg, *fit) for split, (_, cfg), fit in zip(splits, scenarios, fitted)]
    except Exception:
        if len(scenarios) == 1:
            raise
    return [report for one in scenarios for report in _run_block([one])]


def _score(split, cfg, fits, defender, actual):
    """run_scenario's report from the fit stage's result for the scenario."""
    X_te, y_te = split.X(split.test), split.test.y
    est = cfg.actual if cfg.defender_knows_actual else cfg.defender_estimates
    _, est_sigma, est_drawn = defender
    z_test, act_sigma, act_drawn = actual

    results, diagnostics = {}, {}
    for algo in sorted(cfg.algorithms):
        theta, diagnostics[algo] = fits[algo]
        if not results:  # the first model's call checks the game, X_te and z for every model
            params = GameParams(n=cfg.n, beta=1.0, lam=cfg.actual.lam, z=z_test)
        pred_clean, pred_att = _symmetric_predictions(theta, X_te, params, check_X=not results)
        exp, clean, att = expected_rmse(pred_clean, pred_att, y_te, cfg.actual.beta)
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
            "rows_train": split.train.m,
            "rows_test": split.test.m,
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
    number (not a bool or a string) that passes check."""
    try:
        grid = list(values)
        if isinstance(values, str) or any(isinstance(v, (bool, str)) for v in grid):
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
    if isinstance(repeats, bool) or not isinstance(repeats, (int, np.integer)):
        raise ConfigError(f"repeats must be an integer, got {repeats!r}")
    repeats = int(repeats)
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    full = concat_datasets(train, test)

    algos = sorted(cfg.algorithms)
    flat = [(i, j, r) for i in range(len(lambda_grid)) for j in range(len(beta_grid))
            for r in range(repeats)]
    runs = np.empty((len(lambda_grid), len(beta_grid), len(algos), len(_RMSE_KEYS), repeats))
    for start in range(0, len(flat), SWEEP_BLOCK):
        block = []
        for i, j, r in flat[start:start + SWEEP_BLOCK]:
            s = derive_seed(seed, i, j, r)
            cell_cfg = replace(cfg, seed=s, actual=replace(
                cfg.actual, lam=lambda_grid[i], beta=beta_grid[j]))
            if (i, j, r) == (0, 0, 0):
                scenario = cell_cfg.as_dict()
            perm = np.random.default_rng(s).permutation(full.m)  # split_rows's shuffle, once
            sides = _Rows(full, perm[:train.m]), _Rows(full, perm[train.m:])
            block.append((lambda sides=sides: sides, cell_cfg))
        for (i, j, r), report in zip(flat[start:], _run_block(block)):
            runs[i, j, :, :, r] = [[report.results[algo][k] for k in _RMSE_KEYS] for algo in algos]
    means = runs.mean(axis=-1).tolist()  # each cell's repeats are one row, reduced in repeat order
    cells = [[{algo: dict(zip(_RMSE_KEYS, vals)) for algo, vals in zip(algos, cell)}
              for cell in row] for row in means]

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
