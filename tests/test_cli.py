"""End-to-end command-line tests, driven in-process through main(argv)."""

import json
import shutil
import subprocess

import numpy as np
import pytest

import advreg.cli as cli_mod
import advreg.verify as verify_mod
from advreg.cli import main
from advreg.data import (
    ConstantTarget,
    Standardizer,
    TargetSpec,
    apply_standardizer,
    fit_standardizer,
    invert_standardizer,
    load_csv,
    split_train_test,
)
from advreg.evaluate import (
    STREAM_ACTUAL_TARGET,
    GameSetting,
    ScenarioConfig,
    draw_target,
    run_scenario,
    simulate_attack,
)
from advreg.serialize import write_csv
from advreg.synthetic import bundled_path, dataset_to_csv, make_synthetic
from advreg.verify import CheckReport


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    # keep the "no seed anywhere -> 0" default reachable in every test
    monkeypatch.delenv("ADVREG_SEED", raising=False)


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    ds = make_synthetic(m=80, d=3, mu=2.0, sigma=1.0, r2=0.6, seed=11)
    dataset_to_csv(ds, path)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def write_tiny_csv(path):
    path.write_text("x,y\n1,2\n2,4\n3,5\n", encoding="utf-8")
    return str(path)


def write_model(path, theta, feature_names, algorithm="ols", standardize=False):
    model = {
        "algorithm": algorithm,
        "theta": list(theta),
        "preprocessing": {
            "standardize": standardize,
            "means": [0.0] * len(feature_names) if standardize else None,
            "stds": [1.0] * len(feature_names) if standardize else None,
            "feature_names": list(feature_names),
            "label_name": "y",
        },
    }
    path.write_text(json.dumps(model), encoding="utf-8")
    return str(path)


# ------------------------------------------------------------------ train


def test_train_ols_matches_hand_solution(tmp_path):
    csv = write_tiny_csv(tmp_path / "tiny.csv")
    out = str(tmp_path / "model.json")
    rc = run_cli("train", "--dataset", csv, "--label", "y", "--algorithm", "ols",
                 "--no-standardize", "--quiet", "--out", out)
    assert rc == 0
    model = read_json(out)
    # single regressor, no intercept: theta = sum(x*y) / sum(x^2) = 25/14
    assert model["theta"] == pytest.approx([25.0 / 14.0], abs=1e-12)
    assert model["algorithm"] == "ols"
    assert model["preprocessing"]["standardize"] is False
    assert model["preprocessing"]["feature_names"] == ["x"]
    assert model["preprocessing"]["label_name"] == "y"
    assert model["config"]["command"] == "train"


def test_train_accepts_label_column_index(tmp_path):
    csv = write_tiny_csv(tmp_path / "tiny.csv")
    out = str(tmp_path / "model.json")
    rc = run_cli("train", "--dataset", csv, "--label", "1", "--algorithm", "ols",
                 "--no-standardize", "--quiet", "--out", out)
    assert rc == 0
    assert read_json(out)["theta"] == pytest.approx([25.0 / 14.0], abs=1e-12)


def test_train_mlsg_with_beta_zero_matches_ols(synth_csv, tmp_path):
    args = ["--dataset", synth_csv, "--label", "label", "--quiet"]
    ols_out = str(tmp_path / "ols.json")
    mlsg_out = str(tmp_path / "mlsg.json")
    assert run_cli("train", *args, "--algorithm", "ols", "--out", ols_out) == 0
    assert run_cli("train", *args, "--algorithm", "mlsg", "--beta", "0",
                   "--lambda", "1", "--n", "3", "--out", mlsg_out) == 0
    theta_ols = np.array(read_json(ols_out)["theta"])
    theta_mlsg = np.array(read_json(mlsg_out)["theta"])
    assert np.max(np.abs(theta_ols - theta_mlsg)) <= 1e-8


def test_train_ridge_with_explicit_alpha_skips_cv(synth_csv, tmp_path):
    out = str(tmp_path / "ridge.json")
    rc = run_cli("train", "--dataset", synth_csv, "--label", "label",
                 "--algorithm", "ridge", "--alpha", "0.5", "--quiet", "--out", out)
    assert rc == 0
    model = read_json(out)
    assert model["diagnostics"]["alpha"] == 0.5
    assert "cv_errors" not in model["diagnostics"]


def test_train_mlsg_replay_pins_the_drawn_target(synth_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": synth_csv, "label": "label", "algorithm": "mlsg",
        "seed": 4, "n": 2, "lambda": 1.0, "beta": 0.6,
        "target": {"kind": "constant", "value_range": [0.0, 4.0]},
    }), encoding="utf-8")
    first = str(tmp_path / "m1.json")
    again = str(tmp_path / "m2.json")
    assert run_cli("train", "--config", str(cfg_path), "--quiet", "--out", first) == 0
    model = read_json(first)
    drawn = model["config"]["target"]["value"]
    assert drawn is not None and 0.0 <= drawn <= 4.0
    # the artifact's embedded config replays the exact same fit
    assert run_cli("train", "--config", first, "--quiet", "--out", again) == 0
    assert read_json(again)["theta"] == model["theta"]


@pytest.mark.parametrize("target", [
    {"kind": "offset", "delta_scale": 1.5, "clip_max": 6.0},
    {"kind": "constant", "value_range": [0.0, 4.0]},
], ids=["offset", "constant-range"])
@pytest.mark.parametrize("algorithm", ["lasso", "mlsg", "ols", "ridge"])
def test_train_fits_the_model_the_scenario_deploys(algorithm, target, tmp_path):
    # same training rows, seed and defender setting -> the same coefficients;
    # at seed 14 the raw seed and the CV streams pick different penalties
    ds = make_synthetic(m=80, d=3, mu=2.0, sigma=1.0, r2=0.6, seed=11)
    train, test = split_train_test(ds, 0.5, seed=2)
    spec = (TargetSpec(delta_scale=1.5, clip_max=6.0) if target["kind"] == "offset"
            else ConstantTarget(value_range=(0.0, 4.0)))
    scen = ScenarioConfig(
        n=3, defender_estimates=GameSetting(lam=0.7, beta=0.6, target=spec),
        actual=GameSetting(lam=1.0, beta=0.5), algorithms=(algorithm,), seed=14,
    )
    deployed = run_scenario(train, test, scen).results[algorithm]["theta"]

    csv_path = str(tmp_path / "train.csv")
    write_csv(csv_path, train.feature_names + [train.label_name],
              np.column_stack([train.X, train.y]).tolist())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": csv_path, "label": train.label_name, "algorithm": algorithm,
        "n": 3, "lambda": 0.7, "beta": 0.6, "target": target,
    }), encoding="utf-8")
    out = str(tmp_path / "model.json")
    assert run_cli("train", "--config", str(cfg_path), "--seed", "14",
                   "--quiet", "--out", out) == 0
    assert read_json(out)["theta"] == deployed


def test_train_and_scenario_record_the_lasso_solver(synth_csv, tmp_path):
    out = str(tmp_path / "lasso.json")
    assert run_cli("train", "--dataset", synth_csv, "--label", "label",
                   "--algorithm", "lasso", "--alpha", "0.0001", "--quiet", "--out", out) == 0
    diag = read_json(out)["diagnostics"]
    assert diag["solver"] == "path"
    assert diag["path_knots"] == 2  # all three columns join before alpha/2 = 5e-5

    ds = load_csv(synth_csv, "label")
    train, test = split_train_test(ds, 0.5, seed=2)
    scen = ScenarioConfig(
        n=2, defender_estimates=GameSetting(lam=1.0, beta=0.5),
        actual=GameSetting(lam=1.0, beta=0.5), algorithms=("lasso",), seed=5,
    )
    lasso = run_scenario(train, test, scen).metadata["diagnostics"]["lasso"]
    assert lasso["solver"] == "path"
    assert isinstance(lasso["path_knots"], int) and lasso["path_knots"] >= 0


@pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
@pytest.mark.parametrize("algorithm", ["lasso", "ridge"])
def test_train_rejects_a_bad_penalty_as_a_config_error(algorithm, alpha, synth_csv, tmp_path):
    out = str(tmp_path / "model.json")
    assert run_cli("train", "--dataset", synth_csv, "--label", "label",
                   "--algorithm", algorithm, f"--alpha={alpha}", "--quiet", "--out", out) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": synth_csv, "label": "label", "algorithm": algorithm,
        "fit": {"cv_alpha_grid": [0.1, float(alpha)]},
    }), encoding="utf-8")
    assert run_cli("train", "--config", str(cfg), "--quiet", "--out", out) == 2


def test_train_replays_artifacts_with_the_removed_cd_settings(synth_csv, tmp_path):
    # artifacts written before the lasso lost its coordinate-descent
    # fallback carry fit.cd_tol and fit.cd_max_sweeps; a replay ignores them
    base = {"dataset": synth_csv, "label": "label", "algorithm": "lasso", "seed": 3}
    models = []
    for name, fit in (("old", {"cd_tol": 1e-9, "cd_max_sweeps": 10000, "cv_folds": 4}),
                      ("new", {"cv_folds": 4})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(dict(base, fit=fit)), encoding="utf-8")
        out = str(tmp_path / f"{name}_model.json")
        assert run_cli("train", "--config", str(cfg), "--quiet", "--out", out) == 0
        models.append(read_json(out))
    assert models[0]["theta"] == models[1]["theta"]
    assert sorted(models[0]["config"]["fit"]) == ["cv_alpha_grid", "cv_folds"]


def test_train_error_exit_codes(tmp_path):
    csv = write_tiny_csv(tmp_path / "tiny.csv")
    out = str(tmp_path / "model.json")
    # no dataset anywhere -> config error
    assert run_cli("train", "--label", "y", "--algorithm", "ols",
                   "--quiet", "--out", out) == 2
    # unknown algorithm via config (flags are argparse-validated)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dataset": csv, "label": "y", "algorithm": "huh"}),
                   encoding="utf-8")
    assert run_cli("train", "--config", str(cfg), "--quiet", "--out", out) == 2
    # missing input file -> data error
    assert run_cli("train", "--dataset", str(tmp_path / "nope.csv"), "--label", "y",
                   "--algorithm", "ols", "--quiet", "--out", out) == 3
    # missing output directory surfaces as the file-not-found data error
    assert run_cli("train", "--dataset", csv, "--label", "y", "--algorithm", "ols",
                   "--quiet", "--out", str(tmp_path / "no_dir" / "model.json")) == 3
    # writing onto a directory -> OS error
    assert run_cli("train", "--dataset", csv, "--label", "y", "--algorithm", "ols",
                   "--quiet", "--out", str(tmp_path)) == 1
    # last feature column repeats the first -> singular design, a solver error;
    # the lasso path keeps the repeated column out and still ends exactly
    rows = "".join(f"{a},{b},{a},{a + 2 * b + (a * b) % 3}\n"
                   for a in range(1, 5) for b in range(1, 5))
    dup = tmp_path / "dup.csv"
    dup.write_text("a,b,c,y\n" + rows, encoding="utf-8")
    for extra, code in ((["--algorithm", "ols"], 4), (["--algorithm", "mlsg"], 4),
                        (["--algorithm", "ridge", "--alpha", "0"], 4),
                        (["--algorithm", "lasso"], 0)):
        assert run_cli("train", "--dataset", str(dup), "--label", "y", *extra,
                       "--quiet", "--out", out) == code


def test_train_refuses_a_near_singular_design_for_ols_and_mlsg(tmp_path):
    # lam_min / lam_max of X^T X is 5.6e-13, under PIVOT_RTOL: both refuse
    csv = tmp_path / "near.csv"
    csv.write_text("a,b,y\n1,1,1\n1,1.000003,2\n0,0,3\n", encoding="utf-8")
    for algorithm in ("ols", "mlsg"):
        assert run_cli("train", "--dataset", str(csv), "--label", "y", "--no-standardize",
                       "--algorithm", algorithm, "--quiet",
                       "--out", str(tmp_path / "model.json")) == 4


# ----------------------------------------------------------------- attack


def test_attack_on_zero_models_returns_data_unchanged(tmp_path):
    test_csv = tmp_path / "test.csv"
    test_csv.write_text("a,b,y\n1,2,10\n3,4,20\n5,6,30\n", encoding="utf-8")
    m1 = write_model(tmp_path / "m1.json", [0.0, 0.0], ["a", "b"])
    m2 = write_model(tmp_path / "m2.json", [0.0, 0.0], ["a", "b"], algorithm="ridge")
    out = str(tmp_path / "attacked.csv")
    rc = run_cli("attack", "--model", m1, "--model", m2, "--test", str(test_csv),
                 "--lambda", "1", "--delta-scale", "1.0", "--quiet", "--out", out)
    assert rc == 0
    original = load_csv(str(test_csv), "y")
    attacked = load_csv(out, "y")
    assert np.array_equal(attacked.X, original.X)
    assert np.array_equal(attacked.y, original.y)
    with open(out, "r", encoding="utf-8") as f:
        assert f.readline().strip() == "a,b,y"
    summary = read_json(out + ".summary.json")
    assert summary["summary"]["frobenius_shift"] == 0.0
    assert summary["summary"]["n_models"] == 2
    assert summary["summary"]["rows"] == 3
    assert summary["summary"]["shift_space"] == "original"
    assert summary["summary"]["algorithms"] == ["ols", "ridge"]


def test_attack_scalar_hand_value(tmp_path):
    # one feature, theta=1, z=2, lambda=1: X* = (x + 2) / (1 + 1) = 1.5
    test_csv = tmp_path / "test.csv"
    test_csv.write_text("x,y\n1,0\n1,0\n", encoding="utf-8")
    m = write_model(tmp_path / "m.json", [1.0], ["x"])
    out = str(tmp_path / "attacked.csv")
    rc = run_cli("attack", "--model", m, "--test", str(test_csv), "--lambda", "1",
                 "--constant-value", "2", "--quiet", "--out", out)
    assert rc == 0
    attacked = load_csv(out, "y")
    assert attacked.X[:, 0] == pytest.approx([1.5, 1.5], abs=1e-12)
    assert np.array_equal(attacked.y, np.array([0.0, 0.0]))


def test_attack_with_huge_effort_price_barely_moves_anything(synth_csv, tmp_path):
    model_out = str(tmp_path / "model.json")
    assert run_cli("train", "--dataset", synth_csv, "--label", "label",
                   "--algorithm", "ols", "--quiet", "--out", model_out) == 0
    out = str(tmp_path / "attacked.csv")
    rc = run_cli("attack", "--model", model_out, "--test", synth_csv,
                 "--lambda", "1e9", "--delta-scale", "2.0", "--quiet",
                 "--summary-out", str(tmp_path / "s.json"), "--out", out)
    assert rc == 0
    summary = read_json(str(tmp_path / "s.json"))
    # shift is reported in the model's standardized feature space
    assert summary["summary"]["shift_space"] == "standardized"
    ds = load_csv(synth_csv, "label")
    X_std = apply_standardizer(fit_standardizer(ds.X), ds.X)
    frob = float(np.sqrt(np.sum(X_std**2)))
    assert summary["summary"]["frobenius_shift"] <= 1e-3 * frob


def test_attack_rejects_mismatched_preprocessing(tmp_path):
    test_csv = tmp_path / "test.csv"
    test_csv.write_text("a,b,y\n1,2,10\n3,4,20\n", encoding="utf-8")
    m1 = write_model(tmp_path / "m1.json", [0.0, 0.0], ["a", "b"])
    m2 = write_model(tmp_path / "m2.json", [0.0, 0.0], ["a", "b"], standardize=True)
    rc = run_cli("attack", "--model", m1, "--model", m2, "--test", str(test_csv),
                 "--quiet", "--out", str(tmp_path / "attacked.csv"))
    assert rc == 2


def test_attack_model_file_not_an_object_exits_two(tmp_path):
    test_csv = tmp_path / "test.csv"
    test_csv.write_text("x,y\n1,0\n2,1\n", encoding="utf-8")
    model = tmp_path / "m.json"
    model.write_text("5\n", encoding="utf-8")
    rc = run_cli("attack", "--model", str(model), "--test", str(test_csv),
                 "--quiet", "--out", str(tmp_path / "attacked.csv"))
    assert rc == 2


MALFORMED_PREPROCESSING = {
    "not an object": 5,
    "null means": {"standardize": True, "means": None, "stds": [1.0, 1.0],
                   "feature_names": ["a", "b"], "label_name": "y"},
    "names not a list": {"standardize": False, "feature_names": 5, "label_name": "y"},
    "a name not a string": {"standardize": False, "feature_names": ["a", 2],
                            "label_name": "y"},
    "short stds": {"standardize": True, "means": [0.0, 0.0], "stds": [1.0],
                   "feature_names": ["a", "b"], "label_name": "y"},
    "non-finite mean": {"standardize": True, "means": [0.0, float("nan")],
                        "stds": [1.0, 1.0], "feature_names": ["a", "b"], "label_name": "y"},
    "text std": {"standardize": True, "means": [0.0, 0.0], "stds": [1.0, "1"],
                 "feature_names": ["a", "b"], "label_name": "y"},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PREPROCESSING))
def test_attack_malformed_model_preprocessing_exits_two(case, tmp_path, capsys):
    test_csv = tmp_path / "test.csv"
    test_csv.write_text("a,b,y\n1,2,10\n3,4,20\n", encoding="utf-8")
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"algorithm": "ols", "theta": [0.0, 0.0],
                                 "preprocessing": MALFORMED_PREPROCESSING[case]}),
                     encoding="utf-8")
    rc = run_cli("attack", "--model", str(model), "--test", str(test_csv),
                 "--quiet", "--out", str(tmp_path / "attacked.csv"))
    assert rc == 2
    assert "preprocessing" in capsys.readouterr().err


@pytest.mark.parametrize("theta", [{"a": 1.0}, [0.0], [0.0, None], [0.0, True], [0.0, 10**400]])
def test_attack_theta_must_be_d_finite_numbers(theta, tmp_path, capsys):
    test_csv = tmp_path / "test.csv"
    test_csv.write_text("a,b,y\n1,2,10\n3,4,20\n", encoding="utf-8")
    model = tmp_path / "m.json"
    write_model(model, [0.0, 0.0], ["a", "b"])
    doc = read_json(model)
    doc["theta"] = theta
    model.write_text(json.dumps(doc), encoding="utf-8")
    rc = run_cli("attack", "--model", str(model), "--test", str(test_csv),
                 "--quiet", "--out", str(tmp_path / "attacked.csv"))
    assert rc == 2
    assert "theta must be 2 finite numbers" in capsys.readouterr().err


def test_attack_writes_the_bytes_of_a_per_cell_reference_writer(tmp_path):
    csv_path = str(bundled_path("housing_like"))
    model_out = tmp_path / "model.json"
    assert run_cli("train", "--dataset", csv_path, "--label", "value", "--algorithm",
                   "ridge", "--alpha", "1", "--quiet", "--out", str(model_out)) == 0
    out = tmp_path / "attacked.csv"
    assert run_cli("attack", "--model", str(model_out), "--test", csv_path,
                   "--delta-scale", "2", "--quiet", "--out", str(out)) == 0

    model = read_json(model_out)
    prep = model["preprocessing"]
    std = Standardizer(means=np.array(prep["means"]), stds=np.array(prep["stds"]))
    ds = load_csv(csv_path, "value")
    X = apply_standardizer(std, ds.X)
    z, _, _ = draw_target(ds.y, TargetSpec(delta_scale=2.0), 0, STREAM_ACTUAL_TARGET)
    X_out = invert_standardizer(std, simulate_attack(np.array([model["theta"]]), X, z, 1.0))
    columns = {name: X_out[:, j] for j, name in enumerate(ds.feature_names)}
    columns[ds.label_name] = ds.y
    with open(csv_path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
    lines = [",".join(header)]
    for i in range(ds.m):
        lines.append(",".join(repr(float(columns[name][i])) for name in header))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_attack_rejects_wrong_test_columns(tmp_path):
    test_csv = tmp_path / "test.csv"
    test_csv.write_text("a,c,y\n1,2,10\n3,4,20\n", encoding="utf-8")
    m = write_model(tmp_path / "m.json", [0.0, 0.0], ["a", "b"])
    rc = run_cli("attack", "--model", m, "--test", str(test_csv),
                 "--quiet", "--out", str(tmp_path / "attacked.csv"))
    assert rc == 2


# --------------------------------------------------------------- evaluate


def eval_config(synth_csv, **overrides):
    cfg = {
        "dataset": synth_csv,
        "label": "label",
        "train_fraction": 0.5,
        "seed": 5,
        "n": 2,
        "algorithms": ["ols", "mlsg"],
        "defender_estimates": {"lambda": 1.0, "beta": 0.5,
                               "target": {"delta_scale": 1.0}},
        "actual": {"lambda": 1.0, "beta": 0.5, "target": {"delta_scale": 1.0}},
    }
    cfg.update(overrides)
    return cfg


def test_evaluate_beta_zero_expected_equals_clean(synth_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(eval_config(
        synth_csv,
        defender_estimates={"lambda": 1.0, "beta": 0.0,
                            "target": {"delta_scale": 1.0}},
        actual={"lambda": 1.0, "beta": 0.0, "target": {"delta_scale": 1.0}},
    )), encoding="utf-8")
    out = str(tmp_path / "report.json")
    assert run_cli("evaluate", "--config", str(cfg_path), "--quiet", "--out", out) == 0
    report = read_json(out)
    for algo in ("ols", "mlsg"):
        row = report["results"][algo]
        assert row["rmse_expected"] == pytest.approx(row["rmse_clean"], rel=1e-12)
    assert report["config"]["command"] == "evaluate"
    assert report["config"]["seed"] == 5


def test_evaluate_without_out_prints_the_report(synth_csv, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(eval_config(synth_csv)), encoding="utf-8")
    assert run_cli("evaluate", "--config", str(cfg_path), "--quiet") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"config", "results", "metadata"}
    assert set(doc["results"]) == {"ols", "mlsg"}


def test_evaluate_replay_from_emitted_report_is_byte_identical(synth_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(eval_config(synth_csv)), encoding="utf-8")
    first = tmp_path / "r1.json"
    again = tmp_path / "r2.json"
    assert run_cli("evaluate", "--config", str(cfg_path), "--quiet",
                   "--out", str(first)) == 0
    assert run_cli("evaluate", "--config", str(first), "--quiet",
                   "--out", str(again)) == 0
    assert first.read_bytes() == again.read_bytes()


def test_evaluate_rejects_bad_train_fraction(synth_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(eval_config(synth_csv, train_fraction=1.5)),
                        encoding="utf-8")
    assert run_cli("evaluate", "--config", str(cfg_path), "--quiet") == 2


# ------------------------------------------------------------------ sweep


def test_sweep_grid_csv_and_replay(synth_csv, tmp_path):
    cfg = eval_config(synth_csv, lambda_grid=[0.5, 1.0], beta_grid=[0.5], repeats=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    base = ["sweep", "--config", str(cfg_path), "--quiet"]
    one = tmp_path / "s1.csv"
    two = tmp_path / "s2.csv"
    assert run_cli(*base, "--out", str(one)) == 0
    assert run_cli(*base, "--jobs", "2", "--out", str(two)) == 0
    # worker count must never change output bytes
    assert one.read_bytes() == two.read_bytes()
    assert (one.parent / "s1.csv.meta.json").read_bytes().replace(b"s1.csv", b"x") \
        == (two.parent / "s2.csv.meta.json").read_bytes().replace(b"s2.csv", b"x")

    lines = one.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "lambda,beta,algorithm,rmse_expected,rmse_clean,rmse_attacked"
    assert len(lines) == 1 + 2 * 1 * 2  # grid cells x algorithms

    # the sidecar metadata is itself a replayable config
    replay = tmp_path / "s3.csv"
    assert run_cli("sweep", "--config", str(one) + ".meta.json", "--quiet",
                   "--out", str(replay)) == 0
    assert replay.read_bytes() == one.read_bytes()


def test_sweep_requires_both_grids(synth_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(eval_config(synth_csv, lambda_grid=[1.0])),
                        encoding="utf-8")
    assert run_cli("sweep", "--config", str(cfg_path), "--quiet",
                   "--out", str(tmp_path / "s.csv")) == 2


@pytest.mark.parametrize("grids,name", [
    ({"lambda_grid": [1.0, 0.5, -1.0]}, "lambda_grid"),
    ({"beta_grid": 0.5}, "beta_grid"),
    ({"beta_grid": [0.5, float("nan")]}, "beta_grid"),
], ids=["negative-lambda", "grid-not-a-list", "nan-beta"])
def test_sweep_refuses_a_bad_grid_before_any_scenario(
    grids, name, synth_csv, tmp_path, capsys, monkeypatch
):
    import advreg.evaluate as ev

    calls = []
    monkeypatch.setattr(ev, "run_scenario", lambda *args: calls.append(args))
    cfg = eval_config(synth_csv, **{"lambda_grid": [1.0], "beta_grid": [0.5], **grids})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert run_cli("sweep", "--config", str(cfg_path), "--quiet", "--out", str(out)) == 2
    assert name in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


# ----------------------------------------------------------------- verify


def test_verify_runs_selected_checks_and_reports(tmp_path):
    out = str(tmp_path / "verify.json")
    rc = run_cli("verify", "--checks", "rosen_pd,equilibrium_fixed_point",
                 "--trials", "3", "--quiet", "--out", out)
    assert rc == 0
    doc = read_json(out)
    names = [rep["check_name"] for rep in doc["reports"]]
    assert names == ["rosen_pd", "equilibrium_fixed_point"]
    assert all(rep["failures"] == 0 for rep in doc["reports"])
    assert doc["config"]["trials"] == 3


def test_verify_unknown_check_is_a_config_error():
    assert run_cli("verify", "--checks", "nope", "--trials", "2", "--quiet") == 2


@pytest.mark.parametrize("argv", [("--trials", "0"), ("--trials", "-3"), ("--checks", "")],
                         ids=["zero-trials", "negative-trials", "no-checks"])
def test_verify_refuses_to_verify_nothing(tmp_path, capsys, argv):
    out = tmp_path / "verify.json"
    argv = ("--checks", "core", "--trials", "2") + argv  # later flags win
    assert run_cli("verify", *argv, "--out", str(out)) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_verify_failure_exits_five(monkeypatch):
    def failing_stub(trials=1000, seed=0):
        return CheckReport(check_name="rosen_pd", trials=trials, failures=1,
                           worst_violation=1.0, sample_of_failures=[{"trial": 0}],
                           notes="injected failure for the exit-code path")

    monkeypatch.setitem(verify_mod.ALL_CHECKS, "rosen_pd", failing_stub)
    assert run_cli("verify", "--checks", "rosen_pd", "--trials", "4", "--quiet") == 5


def test_verify_reports_a_non_finite_cost_gap_and_exits_five(tmp_path, monkeypatch):
    monkeypatch.setattr(verify_mod, "approx_cost", lambda *args: float("nan"))
    out = tmp_path / "verify.json"
    assert run_cli("verify", "--checks", "theorem2_bound", "--trials", "3", "--quiet",
                   "--out", str(out)) == 5
    (report,) = json.loads(out.read_text(encoding="utf-8"))["reports"]
    assert report["failures"] == 3
    assert report["worst_violation"] == verify_mod.NON_FINITE_GAP
    for sample in report["sample_of_failures"]:
        assert sample["violation"] == verify_mod.NON_FINITE_GAP
        assert "realized" in sample["detail"] and "surrogate nan" in sample["detail"]


# ------------------------------------------------- non-finite settings

NON_FINITE_SETTINGS = {
    "train-delta-scale-nan": (["train", "--algorithm", "mlsg", "--delta-scale", "nan"],
                              "delta_scale"),
    "train-clip-max-nan": (["train", "--algorithm", "mlsg", "--clip-max", "nan"], "clip_max"),
    "train-constant-value-inf": (["train", "--algorithm", "mlsg", "--constant-value", "inf"],
                                 "value"),
    "train-lambda-inf": (["train", "--algorithm", "mlsg", "--lambda", "inf"], "lam"),
    "train-radius-inf": (["train", "--algorithm", "mlsg", "--radius", "inf"], "theta_radius"),
    "attack-delta-scale-inf": (["attack", "--delta-scale", "inf"], "delta_scale"),
    "attack-lambda-inf": (["attack", "--lambda", "inf"], "lam"),
    "evaluate-delta-scale-nan": (["evaluate"], "delta_scale"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_SETTINGS))
def test_non_finite_setting_is_a_config_error(case, synth_csv, tmp_path, capsys):
    argv, field_name = NON_FINITE_SETTINGS[case]
    out = tmp_path / "out"
    if argv[0] == "train":
        argv = argv + ["--dataset", synth_csv, "--label", "label"]
    elif argv[0] == "attack":
        model = str(tmp_path / "model.json")
        assert run_cli("train", "--dataset", synth_csv, "--label", "label", "--algorithm",
                       "ols", "--quiet", "--out", model) == 0
        argv = argv + ["--model", model, "--test", synth_csv]
    else:
        cfg = eval_config(synth_csv, actual={"lambda": 1.0, "beta": 0.5,
                                             "target": {"delta_scale": float("nan")}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")  # json writes NaN
        argv = argv + ["--config", str(cfg_path)]
    capsys.readouterr()
    assert run_cli(*argv, "--quiet", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert field_name in err and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("algorithm,flag,value,message", [
    ("ridge", "--beta", "nan", "beta must be in [0, 1]"),
    ("ols", "--lambda", "inf", "lam must be finite and > 0"),
])
def test_train_refuses_a_bad_game_setting_before_any_fit(
    algorithm, flag, value, message, synth_csv, tmp_path, capsys, monkeypatch
):
    # ols and ridge never play the game, yet the model file echoes the setting
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_model ran")

    monkeypatch.setattr(cli_mod, "fit_model", no_fit)
    out = tmp_path / "model.json"
    capsys.readouterr()
    assert run_cli("train", "--dataset", synth_csv, "--label", "label", "--algorithm",
                   algorithm, flag, value, "--quiet", "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


WRONG_TYPED_VALUES = {
    "verify-checks": ("verify", {"checks": 5}, "checks"),
    "verify-trials": ("verify", {"checks": "core", "trials": [2]}, "trials"),
    "sweep-repeats": ("sweep", {"repeats": [1]}, "repeats"),
    "sweep-algorithms": ("sweep", {"algorithms": 5}, "algorithms"),
    "evaluate-seed": ("evaluate", {"seed": [5]}, "seed"),
    "train-lambda": ("train", {"algorithm": "ols", "lambda": [1.0]}, "lambda"),
    # a JSON string is not a boolean, and int() may not change a number
    "train-standardize": ("train", {"algorithm": "ols", "standardize": "false"},
                          "standardize"),
    "evaluate-standardize": ("evaluate", {"standardize": "false"}, "standardize"),
    "evaluate-defender_knows_actual": ("evaluate", {"defender_knows_actual": "no"},
                                       "defender_knows_actual"),
    "sweep-standardize": ("sweep", {"standardize": 0}, "standardize"),
    "sweep-defender_knows_actual": ("sweep", {"defender_knows_actual": "true"},
                                    "defender_knows_actual"),
    "sweep-repeats-fraction": ("sweep", {"repeats": 1.7}, "repeats"),
    "evaluate-n-fraction": ("evaluate", {"n": 2.5}, "n"),
    "train-n-fraction": ("train", {"algorithm": "ols", "n": 2.5}, "n"),
    "verify-trials-boolean": ("verify", {"checks": "core", "trials": True}, "trials"),
    # a JSON boolean is not a number either
    "evaluate-defender_estimates-lambda": (
        "evaluate", {"defender_estimates": {"lambda": True, "beta": 0.5}}, "lambda"),
    "evaluate-theta_radius": ("evaluate", {"theta_radius": True}, "theta_radius"),
    "evaluate-target-delta_scale": (
        "evaluate", {"actual": {"lambda": 1.0, "beta": 0.5, "target": {"delta_scale": True}}},
        "delta_scale"),
    "sweep-lambda_grid": ("sweep", {"lambda_grid": [True]}, "lambda_grid"),
    "train-beta": ("train", {"algorithm": "mlsg", "beta": True}, "beta"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPED_VALUES))
def test_wrong_typed_config_value_is_a_config_error(case, synth_csv, tmp_path, capsys):
    command, values, key = WRONG_TYPED_VALUES[case]
    cfg = eval_config(synth_csv, **{"lambda_grid": [1.0], "beta_grid": [0.5], **values})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(command, "--config", str(cfg_path), "--quiet", "--out", str(out)) == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_integral_numbers_and_booleans_in_a_config_pass(synth_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(eval_config(
        synth_csv, n=2.0, seed=5.0, standardize=False, defender_knows_actual=True,
    )), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run_cli("evaluate", "--config", str(cfg_path), "--quiet", "--out", str(out)) == 0
    echo = read_json(out)["config"]
    assert (echo["n"], echo["seed"]) == (2, 5)
    assert (echo["standardize"], echo["defender_knows_actual"]) == (False, True)


# ------------------------------------------------------------------ main


def test_main_parses_one_call_after_another(synth_csv, tmp_path, capsys, monkeypatch):
    model = tmp_path / "model.json"
    assert run_cli("train", "--dataset", synth_csv, "--label", "label", "--algorithm", "ols",
                   "--quiet", "--out", str(model)) == 0
    assert run_cli("verify", "--checks", "sherman_morrison", "--trials", "2", "--quiet") == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--out", str(model), "--no-such-flag")
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    # the command is looked up when main runs, so a rebound cmd_* is the one called
    seen = []
    monkeypatch.setattr(cli_mod, "cmd_verify", lambda args: seen.append(args.trials) or 7)
    assert run_cli("verify", "--trials", "3") == 7
    assert seen == [3]


# ------------------------------------------------------------- seed rules


def test_seed_precedence_flag_config_env(tmp_path, monkeypatch):
    def seed_of(*argv):
        out = str(tmp_path / "v.json")
        assert run_cli("verify", "--checks", "rosen_pd", "--trials", "2",
                       "--quiet", "--out", out, *argv) == 0
        return read_json(out)["config"]["seed"]

    assert seed_of() == 0
    monkeypatch.setenv("ADVREG_SEED", "7")
    assert seed_of() == 7
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9}), encoding="utf-8")
    assert seed_of("--config", str(cfg)) == 9
    assert seed_of("--config", str(cfg), "--seed", "3") == 3
    monkeypatch.setenv("ADVREG_SEED", "not-a-number")
    assert run_cli("verify", "--checks", "rosen_pd", "--trials", "2", "--quiet") == 2


# ---------------------------------------------------------- installed tool


def test_installed_entry_point_runs():
    exe = shutil.which("advreg")
    assert exe, "the advreg console script should be on PATH after installation"
    proc = subprocess.run([exe, "verify", "--checks", "rosen_pd", "--trials", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
