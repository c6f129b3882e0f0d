"""Scenario harness: attack simulation on held-out data, expected-RMSE
accounting, per-algorithm comparison, and the sweep grid with its
deterministic parallel reduction."""

import numpy as np
import pytest

from advreg.data import (
    TargetSpec,
    apply_standardizer,
    concat_datasets,
    fit_standardizer,
    label_stats,
    split_train_test,
)
from advreg.baselines import FitConfig
from advreg.evaluate import (
    CSV_HEADER,
    ScenarioConfig,
    GameSetting,
    KNOWN_ALGORITHMS,
    derive_seed,
    expected_rmse,
    fit_model,
    run_scenario,
    run_sweep,
    simulate_attack,
)
from advreg.serialize import to_json
from advreg.synthetic import load_bundled, make_synthetic

SMALL_FIT = FitConfig(cv_folds=3, cv_alpha_grid=[1e-3, 1e-1, 10.0])


def small_data(seed=0, m=60, d=4):
    ds = make_synthetic(m=m, d=d, mu=2.0, sigma=1.0, r2=0.5, seed=seed)
    return split_train_test(ds, 0.5, seed=seed)


def small_config(**overrides):
    base = dict(
        n=3,
        defender_estimates=GameSetting(lam=1.0, beta=0.5, target=TargetSpec(delta_scale=2.0)),
        actual=GameSetting(lam=1.0, beta=0.5, target=TargetSpec(delta_scale=2.0)),
        seed=0,
        fit=SMALL_FIT,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_fits_do_not_depend_on_memory_layout():
    # numpy's column reductions round by memory layout; every fit reads a
    # row-major copy, so the same rows give the same bits in any layout
    ds = load_bundled("wine_like")
    X, y = ds.X[:200], ds.y[:200]
    doubled = np.repeat(np.hstack([X, X]), 2, axis=0)
    layouts = {
        "fortran": (np.asfortranarray(X), y.copy()),
        "strided": (doubled[::2, : X.shape[1]], np.repeat(y, 2)[::2]),
    }
    setting = GameSetting(lam=1.0, beta=0.5, target=TargetSpec(delta_scale=2.0))

    def fits(X, y):
        std = fit_standardizer(X)
        Xs = apply_standardizer(std, X)
        out = [std.means, std.stds]
        for algo in KNOWN_ALGORITHMS:
            theta, _ = fit_model(algo, Xs, y, setting=setting, n=3, theta_radius=None,
                                 fit=SMALL_FIT, seed=7)
            out.append(theta)
        return [a.tobytes() for a in out]

    reference = fits(np.ascontiguousarray(X), y)
    for name, (Xl, yl) in layouts.items():
        assert fits(Xl, yl) == reference, name


# --------------------------------------------------------- simulate_attack

def test_attack_zero_profile_returns_design_unchanged():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 3))
    out = simulate_attack(np.zeros((4, 3)), X, rng.normal(size=6), lam=1.0)
    assert np.allclose(out, X, atol=1e-12)


def test_attack_huge_lambda_barely_moves_design():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2, 7))
        X = rng.uniform(-1, 1, (m, d))
        thetas = rng.uniform(-1, 1, (int(rng.integers(1, 4)), d))
        out = simulate_attack(thetas, X, rng.uniform(-1, 1, m), lam=1e9)
        assert np.linalg.norm(out - X) <= 1e-3 * np.linalg.norm(X)


def test_attack_scalar_oracle():
    out = simulate_attack(np.array([[1.0]]), np.array([[1.0]]), np.array([2.0]), lam=1.0)
    assert np.allclose(out, [[1.5]], atol=1e-12)


# ----------------------------------------------------------- expected_rmse

def test_expected_rmse_beta_extremes():
    theta = np.array([1.0])
    Xc = np.array([[1.0], [2.0]])
    Xa = np.array([[3.0], [5.0]])
    y = np.array([1.0, 2.0])
    exp0, clean, att = expected_rmse(theta, Xc, Xa, y, beta=0.0)
    assert exp0 == clean
    exp1, _, att1 = expected_rmse(theta, Xc, Xa, y, beta=1.0)
    assert exp1 == att1 == att


def test_expected_rmse_hand_value():
    # clean residuals (0,0), attacked residuals (1,1), beta=1/2
    theta = np.array([1.0])
    Xc = np.array([[0.0], [0.0]])
    Xa = np.array([[1.0], [1.0]])
    y = np.zeros(2)
    exp, clean, att = expected_rmse(theta, Xc, Xa, y, beta=0.5)
    assert clean == 0.0 and att == 1.0
    assert exp == pytest.approx(np.sqrt(0.5), abs=1e-12)


# ------------------------------------------------------------ run_scenario

def test_scenario_rmse_mixture_identity():
    train, test = small_data()
    beta = 0.65
    cfg = small_config(actual=GameSetting(lam=0.7, beta=beta, target=TargetSpec(delta_scale=2.0)))
    report = run_scenario(train, test, cfg)
    assert set(report.results) == {"lasso", "mlsg", "ols", "ridge"}
    for vals in report.results.values():
        lhs = vals["rmse_expected"] ** 2
        rhs = beta * vals["rmse_attacked"] ** 2 + (1 - beta) * vals["rmse_clean"] ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_scenario_beta_zero_expected_equals_clean():
    train, test = small_data(seed=1)
    cfg = small_config(actual=GameSetting(lam=1.0, beta=0.0, target=TargetSpec(delta_scale=2.0)))
    report = run_scenario(train, test, cfg)
    for vals in report.results.values():
        assert vals["rmse_expected"] == pytest.approx(vals["rmse_clean"], rel=1e-12)


def test_scenario_defender_expecting_no_attack_reduces_to_ols():
    train, test = small_data(seed=2)
    cfg = small_config(
        defender_estimates=GameSetting(lam=1.0, beta=0.0, target=TargetSpec(delta_scale=0.0)),
    )
    report = run_scenario(train, test, cfg)
    mlsg = np.array(report.results["mlsg"]["theta"])
    ols = np.array(report.results["ols"]["theta"])
    assert np.allclose(mlsg, ols, atol=1e-8)
    for key in ("rmse_expected", "rmse_clean", "rmse_attacked"):
        assert report.results["mlsg"][key] == pytest.approx(report.results["ols"][key], abs=1e-8)


def test_scenario_deterministic_serialization():
    train, test = small_data(seed=3)
    cfg = small_config(seed=11)
    a = run_scenario(train, test, cfg)
    b = run_scenario(train, test, cfg)
    assert to_json(a.as_dict()) == to_json(b.as_dict())


def test_scenario_metadata_resolves_sigma_and_targets():
    train, test = small_data(seed=4)
    report = run_scenario(train, test, small_config())
    resolved = report.metadata["resolved"]
    assert resolved["rows_train"] == train.m and resolved["rows_test"] == test.m
    assert "defender_target" in resolved and "actual_target" in resolved
    # each side's target scales by the spread of the labels it is built on
    assert resolved["defender_target"]["sigma"] == label_stats(train.y)[1]
    assert resolved["actual_target"]["sigma"] == label_stats(test.y)[1]
    assert report.metadata["config"]["fit"]["cv_folds"] == 3


def test_scenario_best_case_benchmark_ordering():
    # raw (unstandardized) features, attacker fully anticipated: the game
    # solution must beat every baseline on expected RMSE
    ds = load_bundled("wine_like")
    train, test = split_train_test(ds, 0.5, seed=5)
    setting = GameSetting(
        lam=1.0, beta=0.8, target=TargetSpec(delta_scale=5.0, clip_max=10.0)
    )
    cfg = ScenarioConfig(
        n=5,
        defender_estimates=setting,
        actual=setting,
        seed=5,
        defender_knows_actual=True,
        standardize=False,
    )
    report = run_scenario(train, test, cfg)
    mlsg = report.results["mlsg"]["rmse_expected"]
    for algo in ("ols", "ridge", "lasso"):
        assert mlsg < report.results[algo]["rmse_expected"]


# --------------------------------------------------------------- run_sweep

def test_sweep_shapes_and_sorted_csv():
    train, test = small_data(seed=6, m=50)
    grid = run_sweep(
        train, test, small_config(), lambda_grid=[1.0, 0.5], beta_grid=[0.2, 0.8],
        repeats=2, seed=7,
    )
    assert len(grid.cells) == 2 and len(grid.cells[0]) == 2
    rows = grid.csv_rows()
    assert len(rows) == 2 * 2 * 4
    keys = [(r[0], r[1], r[2]) for r in rows]
    assert keys == sorted(keys)
    assert CSV_HEADER[0] == "lambda"
    assert grid.metadata["base_seed"] == 7


def test_sweep_parallel_matches_serial_bytes():
    train, test = small_data(seed=7, m=50)
    kw = dict(lambda_grid=[0.5, 1.0], beta_grid=[0.5], repeats=3, seed=3)
    serial = run_sweep(train, test, small_config(), **kw)
    parallel = run_sweep(train, test, small_config(), jobs=2, **kw)
    assert to_json(serial.as_dict()) == to_json(parallel.as_dict())


def test_sweep_single_cell_matches_direct_scenario():
    train, test = small_data(seed=8, m=50)
    cfg = small_config()
    grid = run_sweep(train, test, cfg, lambda_grid=[0.9], beta_grid=[0.4], repeats=1, seed=13)
    # reproduce the harness's internal split and setting for cell (0,0,0)
    full = concat_datasets(train, test)
    s = derive_seed(13, 0, 0, 0)
    tr, te = split_train_test(full, train.m / full.m, s)
    from dataclasses import replace

    cell_cfg = replace(cfg, seed=s, actual=replace(cfg.actual, lam=0.9, beta=0.4))
    direct = run_scenario(tr, te, cell_cfg)
    for algo, vals in grid.cells[0][0].items():
        for key in ("rmse_expected", "rmse_clean", "rmse_attacked"):
            assert vals[key] == direct.results[algo][key]


def test_sweep_rejects_empty_grid_and_bad_repeats():
    train, test = small_data(seed=9, m=50)
    from advreg.exceptions import ConfigError

    with pytest.raises(ConfigError):
        run_sweep(train, test, small_config(), [], [0.5], repeats=1, seed=0)
    with pytest.raises(ConfigError):
        run_sweep(train, test, small_config(), [1.0], [0.5], repeats=0, seed=0)


# ------------------------------------------------------------- derive_seed

def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(0, 1, 2, 3) == derive_seed(0, 1, 2, 3)
    seen = {derive_seed(5, i, j, r) for i in range(4) for j in range(3) for r in range(10)}
    assert len(seen) == 4 * 3 * 10  # no collisions across the whole grid
    assert all(isinstance(s, int) and s >= 0 for s in seen)


def test_derive_seed_order_sensitive():
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
