"""Scenario harness: the attack on held-out data, expected-RMSE
accounting, per-algorithm comparison, and the sweep grid with its
repeat-order reduction."""

import json
from dataclasses import replace

import numpy as np
import pytest

import advreg.evaluate as evaluate_mod
from advreg.data import (
    Dataset,
    TargetSpec,
    apply_standardizer,
    build_target,
    concat_datasets,
    fit_standardizer,
    label_stats,
    split_rows,
    split_train_test,
)
from advreg.baselines import FitConfig
from advreg.exceptions import NoConvergence
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
)
from advreg.game import GameParams, attacker_best_response, symmetric_attacked_predictions
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


# ------------------------------------------- the attack on held-out data

def test_attack_zero_profile_returns_design_unchanged():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 3))
    params = GameParams(n=4, beta=1.0, lam=1.0, z=rng.normal(size=6))
    out = attacker_best_response(np.zeros((4, 3)), X, params)
    assert np.allclose(out, X, atol=1e-12)


def test_attack_huge_lambda_barely_moves_design():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2, 7))
        X = rng.uniform(-1, 1, (m, d))
        thetas = rng.uniform(-1, 1, (int(rng.integers(1, 4)), d))
        params = GameParams(n=len(thetas), beta=1.0, lam=1e9, z=rng.uniform(-1, 1, m))
        out = attacker_best_response(thetas, X, params)
        assert np.linalg.norm(out - X) <= 1e-3 * np.linalg.norm(X)


def test_attack_scalar_oracle():
    params = GameParams(n=1, beta=1.0, lam=1.0, z=[2.0])
    out = attacker_best_response(np.array([[1.0]]), np.array([[1.0]]), params)
    assert np.allclose(out, [[1.5]], atol=1e-12)


# ----------------------------------------------------------- expected_rmse

def test_expected_rmse_beta_extremes():
    pred_clean = np.array([1.0, 2.0])
    pred_att = np.array([3.0, 5.0])
    y = np.array([1.0, 2.0])
    exp0, clean, att = expected_rmse(pred_clean, pred_att, y, beta=0.0)
    assert exp0 == clean
    exp1, _, att1 = expected_rmse(pred_clean, pred_att, y, beta=1.0)
    assert exp1 == att1 == att


def test_expected_rmse_hand_value():
    # clean residuals (0,0), attacked residuals (1,1), beta=1/2
    pred_clean = np.array([0.0, 0.0])
    pred_att = np.array([1.0, 1.0])
    y = np.zeros(2)
    exp, clean, att = expected_rmse(pred_clean, pred_att, y, beta=0.5)
    assert clean == 0.0 and att == 1.0
    assert exp == pytest.approx(np.sqrt(0.5), abs=1e-12)


# ------------------------------------------------------------ run_scenario

def test_scenario_attacked_predictions_match_the_attack_command_path(monkeypatch):
    # the sweep scores X' theta in closed form off X theta; the `attack`
    # command writes the full X' from attacker_best_response; both must give
    # the same predictions
    seen = []
    predictions = evaluate_mod._symmetric_predictions

    def recording(theta, X, params, check_X=True):
        pred_clean, pred_att = predictions(theta, X, params, check_X)
        seen.append(pred_att)
        return pred_clean, pred_att

    monkeypatch.setattr(evaluate_mod, "_symmetric_predictions", recording)
    train, test = small_data(seed=3)
    cfg = small_config(actual=GameSetting(lam=0.7, beta=0.5, target=TargetSpec(delta_scale=2.0)))
    results = run_scenario(train, test, cfg).results
    X_te = apply_standardizer(fit_standardizer(train.X), test.X)
    z = build_target(test.y, cfg.actual.target, label_stats(test.y)[1])
    assert len(seen) == len(results)
    for algo, pred in zip(sorted(results), seen):
        theta = np.array(results[algo]["theta"])
        params = GameParams(n=cfg.n, beta=1.0, lam=0.7, z=z)
        X_att = attacker_best_response(np.tile(theta, (cfg.n, 1)), X_te, params)
        want = X_att @ theta
        assert np.linalg.norm(pred - want) <= 1e-12 * np.linalg.norm(want), algo
        rmse_att = np.sqrt(np.mean((want - test.y) ** 2))
        assert results[algo]["rmse_attacked"] == pytest.approx(rmse_att, rel=1e-12), algo


@pytest.mark.parametrize("sweep", ["sweep-mismatch", "criterion 5, standardized"])
def test_block_predictions_equal_x_theta_and_the_closed_form_for_every_model(monkeypatch, sweep):
    # one block of 12 scenarios: each model's clean predictions are X_te theta
    # and its attacked ones symmetric_attacked_predictions', to the bit; only
    # a scenario's first model checks X_te and z
    from test_acceptance import _criterion_5_sweep, _criterion_6_sweep

    seen = []
    predictions = evaluate_mod._symmetric_predictions

    def recording(theta, X, params, check_X=True):
        seen.append((theta, X, params, check_X, predictions(theta, X, params, check_X)))
        return seen[-1][-1]

    monkeypatch.setattr(evaluate_mod, "_symmetric_predictions", recording)
    if sweep == "sweep-mismatch":  # the benchmark's `advreg sweep` config: criterion 6, raw
        _criterion_6_sweep(1)
    else:
        _criterion_5_sweep("wine_like", 3, standardize=True)
    assert [check_X for *_, check_X, _ in seen] == [True, False, False, False] * 12
    for theta, X, params, _, (clean, attacked) in seen:
        assert clean.tobytes() == (X @ theta).tobytes()
        want = symmetric_attacked_predictions(theta, X, params.z, params.lam, params.n)
        assert attacked.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("repeats", [2.7, 2.0, True, "2"])
def test_sweep_refuses_repeats_that_are_not_integers(repeats):
    # int() would run 2, 2, 1 and 2 repeats of these
    from advreg.exceptions import ConfigError

    train, test = small_data(seed=6, m=50)
    with pytest.raises(ConfigError, match="repeats must be an integer"):
        run_sweep(train, test, small_config(), [1.0], [0.5], repeats=repeats, seed=0)
    grid = run_sweep(train, test, small_config(), [1.0], [0.5], repeats=np.int64(2), seed=0)
    assert grid.repeats == 2 and grid.metadata["repeats"] == 2


def test_sweep_cells_are_repeat_means_of_direct_scenarios():
    train, test = small_data(seed=7, m=50)
    cfg = small_config()
    grid = run_sweep(train, test, cfg, lambda_grid=[0.5, 1.0], beta_grid=[0.3], repeats=3,
                     seed=3)
    full = concat_datasets(train, test)
    for i, lam in enumerate([0.5, 1.0]):
        direct = []
        for r in range(3):
            s = derive_seed(3, i, 0, r)
            cell_cfg = replace(cfg, seed=s, actual=replace(cfg.actual, lam=lam, beta=0.3))
            direct.append(run_scenario(*split_rows(full, train.m, s), cell_cfg))
            if (i, r) == (0, 0):
                assert grid.metadata["scenario"] == cell_cfg.as_dict()
        assert sorted(grid.cells[i][0]) == sorted(cfg.algorithms)
        for algo, vals in grid.cells[i][0].items():
            for key in ("rmse_expected", "rmse_clean", "rmse_attacked"):
                want = float(np.mean([rep.results[algo][key] for rep in direct]))
                assert vals[key] == want


def test_sweep_single_cell_matches_direct_scenario():
    train, test = small_data(seed=8, m=50)
    cfg = small_config()
    grid = run_sweep(train, test, cfg, lambda_grid=[0.9], beta_grid=[0.4], repeats=1, seed=13)
    # reproduce the harness's internal split and setting for cell (0,0,0)
    full = concat_datasets(train, test)
    s = derive_seed(13, 0, 0, 0)
    tr, te = split_rows(full, train.m, s)
    cell_cfg = replace(cfg, seed=s, actual=replace(cfg.actual, lam=0.9, beta=0.4))
    direct = run_scenario(tr, te, cell_cfg)
    for algo, vals in grid.cells[0][0].items():
        for key in ("rmse_expected", "rmse_clean", "rmse_attacked"):
            assert vals[key] == direct.results[algo][key]


@pytest.mark.parametrize("m,n_train", [(22, 15), (39, 31)])
def test_sweep_scenarios_train_on_the_given_rows(monkeypatch, m, n_train):
    # n_train / m * m rounds below n_train here, so a fraction would lose a row
    import advreg.evaluate as ev

    seen = []
    run_block = ev._run_block

    def spy(scenarios):
        reports = run_block(scenarios)
        for (rows, _), report in zip(scenarios, reports):
            seen.append((report.metadata["resolved"]["rows_train"], rows()[1].m))
        return reports

    monkeypatch.setattr(ev, "_run_block", spy)
    ds = make_synthetic(m=m, d=2, mu=2.0, sigma=1.0, r2=0.5, seed=m)
    train, test = split_rows(ds, n_train, seed=1)
    run_sweep(train, test, small_config(), [1.0], [0.5, 0.9], repeats=2, seed=0)
    assert seen == [(n_train, m - n_train)] * 4


@pytest.mark.parametrize("block", [1, 5])
def test_sweep_artifacts_do_not_depend_on_the_block_size(block, monkeypatch, tmp_path):
    # 2 x 3 cells x 2 repeats = 12 scenarios, so blocks of 5 split cells
    from advreg.cli import main
    from advreg.synthetic import dataset_to_csv

    csv_path = tmp_path / "synth.csv"
    dataset_to_csv(make_synthetic(m=60, d=3, mu=2.0, sigma=1.0, r2=0.6, seed=29), csv_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(csv_path), "label": "label", "train_fraction": 0.6, "seed": 4,
        "n": 3, "lambda_grid": [0.5, 1.0], "beta_grid": [0.2, 0.5, 0.8], "repeats": 2,
        "defender_estimates": {"lambda": 1.0, "beta": 0.5,
                               "target": {"kind": "constant", "value_range": [0.0, 3.0]}},
        "actual": {"lambda": 1.0, "beta": 0.5, "target": {"delta_scale": 1.0}},
    }), encoding="utf-8")
    out = tmp_path / "grid.csv"

    def sweep():
        assert main(["sweep", "--config", str(cfg_path), "--quiet", "--out", str(out)]) == 0
        return out.read_bytes(), (tmp_path / "grid.csv.meta.json").read_bytes()

    default = sweep()
    monkeypatch.setattr(evaluate_mod, "SWEEP_BLOCK", block)
    assert sweep() == default


def test_block_raises_the_error_the_first_scenario_raises_alone():
    # the second scenario's lasso CV fails (more folds than rows), but the
    # first fails before it alone: its lasso fits, then mlsg meets a
    # duplicated column
    from advreg.exceptions import SingularDesign

    train, test = small_data(seed=10, m=40)
    train.X[:, 1] = train.X[:, 0]
    too_many_folds = small_config(fit=FitConfig(cv_folds=train.m + 1))
    with pytest.raises(SingularDesign):
        run_scenario(train, test, small_config())
    with pytest.raises(ValueError, match="cv_folds"):
        run_scenario(train, test, too_many_folds)
    rows = lambda: (train, test)  # noqa: E731
    with pytest.raises(SingularDesign):
        evaluate_mod._run_block([(rows, small_config()), (rows, too_many_folds)])


def test_block_raises_the_error_its_third_scenario_raises_alone():
    # the third of 12 scenarios trains on a duplicated column: its lasso
    # fits, then mlsg refuses X^T X; the block raises that scenario's error
    train, test = small_data(seed=11, m=40)
    bad = train.X.copy()
    bad[:, 1] = bad[:, 0]
    dup = replace(train, X=bad)
    cfgs = [small_config(seed=k) for k in range(12)]
    scenarios = [(lambda k=k: (dup if k == 2 else train, test), cfg)
                 for k, cfg in enumerate(cfgs)]
    with pytest.raises(Exception) as alone:
        run_scenario(dup, test, cfgs[2])
    with pytest.raises(type(alone.value)) as block:
        evaluate_mod._run_block(scenarios)
    assert str(block.value) == str(alone.value) == "X^T X is not numerically positive definite"
    del scenarios[2]
    assert [r.results for r in evaluate_mod._run_block(scenarios)] == [
        run_scenario(train, test, cfg).results for cfg in cfgs[:2] + cfgs[3:]]


def test_a_block_whose_stack_raises_runs_as_blocks_of_one(monkeypatch):
    # two finite rows of 1e200 make X^T X hold inf - inf = NaN, so the
    # block's stacked eigendecomposition raises; each scenario then raises,
    # or answers, as it does alone
    train, test = small_data(seed=12, m=40)
    huge = train.X.copy()
    huge[:2] = [[1e200, 1e200, 1e200, 1e200], [1e200, -1e200, 1e200, -1e200]]
    bad = replace(train, X=huge)
    cfg = small_config(algorithms=("ols", "ridge"), standardize=False)
    blocks = []
    run_block = evaluate_mod._run_block
    monkeypatch.setattr(evaluate_mod, "_run_block", lambda sc: blocks.append(len(sc)) or run_block(sc))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NoConvergence) as alone:
            run_scenario(bad, test, cfg)
        blocks.clear()
        with pytest.raises(NoConvergence) as block:
            evaluate_mod._run_block([(lambda: (train, test), cfg), (lambda: (bad, test), cfg)])
    assert str(block.value) == str(alone.value)
    assert blocks == [2, 1, 1]


# ------------------------------------------------------ error precedence

ALGORITHM_SETS = (KNOWN_ALGORITHMS, ("mlsg",), ("ols",), ("ridge",), ("lasso",))


def fault_case(faults, algorithms):
    """(train, test, cfg) of a small scenario fitting algorithms, with faults."""
    train, test = small_data(seed=16, m=40)
    cfg = small_config(algorithms=algorithms)
    for fault in faults:
        if fault == "duplicated column":
            train.X[:, 1] = train.X[:, 0]
        elif fault == "cv_folds > rows":
            cfg = replace(cfg, fit=FitConfig(cv_folds=train.m + 1,
                                             cv_alpha_grid=SMALL_FIT.cv_alpha_grid))
        elif fault == "defender mask out of range":
            cfg = replace(cfg, defender_estimates=GameSetting(
                lam=1.0, beta=0.5, target=TargetSpec(delta_scale=2.0, mask=[0, train.m])))
        elif fault == "actual mask out of range":
            cfg = replace(cfg, actual=GameSetting(
                lam=1.0, beta=0.5, target=TargetSpec(delta_scale=2.0, mask=[test.m])))
        elif fault == "NaN in X":
            train.X[3, 2] = np.nan
        elif fault == "inf in y":
            train.y[4] = np.inf
        elif fault == "n = 0":
            cfg = replace(cfg, n=0)
        elif fault == "two rows of 1e200":
            train.X[:2] = [[1e200, 1e200, 1e200, 1e200], [1e200, -1e200, 1e200, -1e200]]
            cfg = replace(cfg, standardize=False)
        else:
            assert fault == "fewer test columns"
            test = Dataset(X=test.X[:, :-1], y=test.y)
    return train, test, cfg


def raised(fn, *args, **kwargs):
    """(type name, message) of what fn raises, or None if it returns."""
    try:
        with np.errstate(all="ignore"):  # the library's checks, not numpy's warnings
            fn(*args, **kwargs)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


def scenario_errors(faults, algorithms):
    """What run_scenario raises with faults, and a block of two whose second
    scenario has them."""
    train, test, cfg = fault_case(faults, algorithms)
    fine = fault_case((), algorithms)
    block = [(lambda: fine[:2], fine[2]), (lambda: (train, test), cfg)]
    return raised(run_scenario, train, test, cfg), raised(evaluate_mod._run_block, block)


def fit_model_error(faults, algorithm):
    """What fit_model raises on the training rows and defender's view of a
    scenario with faults."""
    train, _, cfg = fault_case(faults, (algorithm,))
    return raised(fit_model, algorithm, train.X, train.y, setting=cfg.defender_estimates,
                  n=cfg.n, theta_radius=cfg.theta_radius, fit=cfg.fit, seed=cfg.seed)


SINGULAR = "SingularDesign", "X^T X is not numerically positive definite"
SINGULAR_0 = "SingularDesign", "X^T X + shift I is singular at shift=0"
FOLDS = "ValueError", "cv_folds must be in 2..20, got 21"
MASK = "MaskOutOfRange", "mask indices must lie in [0, 20)"
X_NAN = "NonFinite", "X contains non-finite entries"
GRAM = "NonFinite", "X^T X is not finite: X has non-finite or huge entries"
Y_INF = "NonFinite", "y contains non-finite entries"
Z_INF = "NonFinite", "z contains non-finite entries"
N_0 = "ValueError", "n must be >= 1, got 0"
EIG = "NoConvergence", "eigendecomposition did not converge: Eigenvalues did not converge"
COLUMNS = "DimensionMismatch", "train has 4 features, test has 3"
# recorded before the fit stage ran every input check ahead of every solve:
# fault -> what run_scenario and a block raise for each of ALGORITHM_SETS,
# then what fit_model raises for mlsg, ols, ridge and lasso
PINNED_ERRORS = {
    "duplicated column": ((SINGULAR, SINGULAR, SINGULAR_0, None, None),
                          (SINGULAR, SINGULAR_0, None, None)),
    "cv_folds > rows": ((FOLDS, None, None, FOLDS, FOLDS), (None, None, FOLDS, FOLDS)),
    "defender mask out of range": ((MASK,) * 5, (MASK, None, None, None)),
    "actual mask out of range": ((MASK,) * 5, (None,) * 4),
    "NaN in X": ((X_NAN, GRAM, X_NAN, X_NAN, X_NAN), (GRAM, X_NAN, X_NAN, X_NAN)),
    "inf in y": ((Y_INF, Z_INF, Y_INF, Y_INF, Y_INF), (Z_INF, Y_INF, Y_INF, Y_INF)),
    "n = 0": ((N_0,) * 5, (N_0, None, None, None)),
    "two rows of 1e200": ((GRAM, GRAM, EIG, EIG, GRAM), (GRAM, EIG, EIG, GRAM)),
    "fewer test columns": ((COLUMNS,) * 5, (None,) * 4),
}


@pytest.mark.parametrize("fault", PINNED_ERRORS)
def test_a_single_fault_raises_the_recorded_error_by_every_route(fault):
    scenario, fits = PINNED_ERRORS[fault]
    for algorithms, want in zip(ALGORITHM_SETS, scenario):
        assert scenario_errors((fault,), algorithms) == (want, want), algorithms
    for (algorithm,), want in zip(ALGORITHM_SETS[1:], fits):
        assert fit_model_error((fault,), algorithm) == want, algorithm


def test_every_input_check_of_a_scenario_runs_before_any_of_its_solves():
    # mlsg sorts before ridge and its solve refuses the duplicated column,
    # but ridge's fold check runs first
    faults = ("duplicated column", "cv_folds > rows")
    assert scenario_errors(faults, ("mlsg", "ridge")) == (FOLDS, FOLDS)


def test_sweep_draws_each_split_and_defender_target_once(monkeypatch):
    # each scenario's seeded shuffle, its ranged targets and its two CV
    # permutations are drawn once; its training rows are gathered in the fit
    # stage's first pass and for its mlsg solve, its test features once, to
    # score, and its test labels in the first fit pass (the actual target's
    # draw) and to score; its standardizer is fit once
    from collections import Counter

    from advreg.data import ConstantTarget
    from advreg.evaluate import (STREAM_ACTUAL_TARGET, STREAM_CV_LASSO, STREAM_CV_RIDGE,
                                 STREAM_DEFENDER_TARGET)

    seeds, reads, fitted = [], Counter(), []
    rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: seeds.append(seed) or rng(seed))

    class Rows(evaluate_mod._Rows):
        X = property(lambda self: reads.update([("X", self.idx.tobytes())]) or super().X)
        y = property(lambda self: reads.update([("y", self.idx.tobytes())]) or super().y)

    monkeypatch.setattr(evaluate_mod, "_Rows", Rows)
    monkeypatch.setattr(evaluate_mod, "fit_standardizer",
                        lambda X: fitted.append(X.tobytes()) or fit_standardizer(X))
    train, test = small_data(seed=14, m=50)
    ranged = GameSetting(lam=1.0, beta=0.5, target=ConstantTarget(value_range=(0.0, 3.0)))
    run_sweep(train, test, small_config(defender_estimates=ranged, actual=ranged),
              [0.5, 1.0], [0.2, 0.8], repeats=2, seed=7)
    for i in range(2):
        for j in range(2):
            for r in range(2):
                s = derive_seed(7, i, j, r)
                assert seeds.count(s) == 1
                for stream in (STREAM_DEFENDER_TARGET, STREAM_ACTUAL_TARGET, STREAM_CV_RIDGE,
                               STREAM_CV_LASSO):
                    assert seeds.count(derive_seed(s, stream)) == 1, stream
                perm = rng(s).permutation(train.m + test.m)
                tr, te = perm[:train.m].tobytes(), perm[train.m:].tobytes()
                assert [reads.pop((k, idx)) for k, idx in
                        (("X", tr), ("y", tr), ("X", te), ("y", te))] == [2, 2, 1, 2]
    assert not reads and len(fitted) == len(set(fitted)) == 8


def test_sweep_decomposes_each_block_in_one_call(monkeypatch):
    # 2 x 2 cells x 5 repeats = 20 scenarios: blocks of 12 and 8, each one
    # sym_eig call on 3 ridge CV folds and the training X^T X per scenario
    import advreg.linalg as linalg

    train, test = small_data(seed=15, m=50)
    stacks = []
    sym_eig = linalg.sym_eig
    monkeypatch.setattr(linalg, "sym_eig", lambda G: stacks.append(G.shape) or sym_eig(G))
    run_sweep(train, test, small_config(), [0.5, 1.0], [0.2, 0.8], repeats=5, seed=2)
    assert stacks == [(48, 4, 4), (32, 4, 4)]


def test_a_block_and_fit_model_make_one_lasso_paths_call(monkeypatch):
    # every lasso CV fold and deployed lasso path of a block runs in one
    # stack, and so does fit_model's lasso, with or without alpha
    import advreg.baselines as baselines

    stacks = []
    lasso_paths = baselines.lasso_paths
    spy = lambda G, b, alphas: stacks.append(alphas.shape) or lasso_paths(G, b, alphas)
    monkeypatch.setattr(baselines, "lasso_paths", spy)
    monkeypatch.setattr(evaluate_mod, "lasso_paths", spy)
    train, test = small_data(seed=15, m=50)
    # 20 scenarios in blocks of 12 and 8: 3 CV folds and the deployed path each
    run_sweep(train, test, small_config(), [0.5, 1.0], [0.2, 0.8], repeats=5, seed=2)
    assert stacks == [(48, 3), (32, 3)]
    stacks.clear()
    for alpha in (None, 0.5):
        fit_model("lasso", train.X, train.y, setting=GameSetting(lam=1.0, beta=0.5), n=1,
                  theta_radius=None, fit=SMALL_FIT, seed=0, alpha=alpha)
    assert stacks == [(4, 3), (1, 3)]


def test_block_fits_equal_the_library_fits_to_the_bit():
    # criterion 6's scenarios: ridge, OLS and mlsg read off one stacked
    # decomposition, and the lassos off one stacked homotopy, equal
    # cross_validate with fit_ridge, fit_ols, solve_equilibrium and
    # fit_lasso, each on its own X^T X
    from advreg.baselines import cross_validate, fit_lasso, fit_ols, fit_ridge
    from advreg.equilibrium import solve_equilibrium
    from advreg.evaluate import (STREAM_CV_LASSO, STREAM_CV_RIDGE, STREAM_DEFENDER_TARGET,
                                 draw_target)

    train, test = split_train_test(load_bundled("wine_like"), 0.5, 0)
    cfg = small_config(n=5, fit=FitConfig(), standardize=False)
    full = concat_datasets(train, test)
    scenarios = []
    for r in range(12):
        s = derive_seed(0, r % 4, r % 3, r)
        scenarios.append((lambda s=s: split_rows(full, train.m, s), replace(cfg, seed=s)))
    for (rows, c), report in zip(scenarios, evaluate_mod._run_block(scenarios)):
        X, y = rows()[0].X, rows()[0].y
        diag = report.metadata["diagnostics"]
        alpha, errs = cross_validate(X, y, "ridge", c.fit, derive_seed(c.seed, STREAM_CV_RIDGE))
        assert diag["ridge"] == {"cv_errors": list(errs), "alpha": alpha}
        assert report.results["ridge"]["theta"] == list(fit_ridge(X, y, alpha))
        assert report.results["ols"]["theta"] == list(fit_ols(X, y))
        z = draw_target(y, c.defender_estimates.target, c.seed, STREAM_DEFENDER_TARGET)[0]
        sol = solve_equilibrium(X, y, GameParams(n=5, beta=0.5, lam=1.0, z=z))
        assert report.results["mlsg"]["theta"] == list(sol.theta_star)
        assert (diag["mlsg"]["grad_norm"], diag["mlsg"]["iterations"]) == (
            sol.grad_norm, sol.iterations)
        alpha, errs = cross_validate(X, y, "lasso", c.fit, derive_seed(c.seed, STREAM_CV_LASSO))
        theta, info = fit_lasso(X, y, alpha, return_info=True)
        assert diag["lasso"] == {"cv_errors": list(errs), "alpha": alpha, **info}
        assert report.results["lasso"]["theta"] == list(theta)


def test_fit_model_lasso_equals_cross_validate_then_fit_lasso():
    # mixed fold counts and column scales; a non-finite design is refused
    from advreg.baselines import cross_validate, fit_lasso
    from advreg.evaluate import STREAM_CV_LASSO
    from advreg.exceptions import NonFinite

    rng = np.random.default_rng(28)
    setting = GameSetting(lam=1.0, beta=0.5)
    for n in range(6):
        X = rng.normal(size=(30 + n, 4)) * 10.0 ** rng.uniform(-1, 1, 4)
        y = X @ rng.normal(size=4) + rng.normal(size=X.shape[0])
        fit = FitConfig(cv_folds=3 + n % 3)
        theta, diag = fit_model("lasso", X, y, setting=setting, n=1, theta_radius=None, fit=fit,
                                seed=n)
        alpha, errors = cross_validate(X, y, "lasso", fit, derive_seed(n, STREAM_CV_LASSO))
        assert (diag["alpha"], diag["cv_errors"]) == (alpha, list(errors))
        ref, info = fit_lasso(X, y, alpha, return_info=True)
        assert (theta.tobytes(), diag["path_knots"]) == (ref.tobytes(), info["path_knots"])
    X = np.ones((6, 4))
    X[1, 1] = np.nan
    with pytest.raises(NonFinite):
        fit_model("lasso", X, np.ones(6), setting=setting, n=1, theta_radius=None,
                  fit=FitConfig(), seed=0)


def test_sweep_rejects_empty_grid_and_bad_repeats():
    train, test = small_data(seed=9, m=50)
    from advreg.exceptions import ConfigError

    with pytest.raises(ConfigError):
        run_sweep(train, test, small_config(), [], [0.5], repeats=1, seed=0)
    with pytest.raises(ConfigError):
        run_sweep(train, test, small_config(), [1.0], [0.5], repeats=0, seed=0)
    with pytest.raises(ConfigError, match="beta_grid"):
        run_sweep(train, test, small_config(), [1.0], "0.5", repeats=1, seed=0)
    with pytest.raises(ConfigError, match="lambda_grid: lam must be finite"):
        run_sweep(train, test, small_config(), [1.0, float("inf")], [0.5], repeats=1, seed=0)


# ------------------------------------------------------------- derive_seed

def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(0, 1, 2, 3) == derive_seed(0, 1, 2, 3)
    seen = {derive_seed(5, i, j, r) for i in range(4) for j in range(3) for r in range(10)}
    assert len(seen) == 4 * 3 * 10  # no collisions across the whole grid
    assert all(isinstance(s, int) and s >= 0 for s in seen)


def test_derive_seed_order_sensitive():
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
