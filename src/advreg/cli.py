"""Command-line front end: train, attack, evaluate, sweep, verify.

Every command is seeded and every artifact is written with deterministic
serialization (sorted JSON keys; each float as its shortest repr, which
reads back to the same double), so a rerun with the same inputs reproduces
the same bytes. Each JSON artifact embeds the resolved settings under a
"config" key; feeding that file back through --config replays the run.

Seed precedence: --seed flag, then the config file, then the ADVREG_SEED
environment variable, then 0.

Exit codes: 0 success, 1 OS errors, 2 bad flags or configuration, 3 data
errors, 4 solver failures, 5 verification check failures.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .baselines import FitConfig
from .data import (
    ConstantTarget,
    Standardizer,
    TargetSpec,
    apply_standardizer,
    fit_standardizer,
    invert_standardizer,
    load_csv,
    split_train_test,
)
from .evaluate import (
    CSV_HEADER,
    KNOWN_ALGORITHMS,
    STREAM_ACTUAL_TARGET,
    GameSetting,
    ScenarioConfig,
    draw_target,
    fit_model,
    run_scenario,
    run_sweep,
    simulate_attack,
)
from .exceptions import (
    ConfigError,
    DimensionMismatch,
    EmptyFile,
    MaskOutOfRange,
    MissingLabelColumn,
    NoConvergence,
    NonFinite,
    NotPositiveDefinite,
    ParseError,
    SingularDesign,
    TooFewRows,
)
from .game import GameParams, ThetaProfile, attacker_cost
from .serialize import to_json, write_csv, write_json
from .verify import ALL_CHECKS, CORE_CHECKS, run_checks


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _read_json(path, what):
    """The JSON object in a file; ConfigError if unreadable, invalid or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return doc


def _load_config(path):
    """Read a JSON config; an emitted artifact's embedded config replays it."""
    if path is None:
        return {}
    cfg = _read_json(path, "config")
    if isinstance(cfg.get("config"), dict):
        cfg = cfg["config"]
    return cfg


def _cast(kind, val):
    """val as a kind (bool, int or float); ValueError if it is not one.

    A bool must be a JSON true or false, an int a number that int() keeps
    as it is (3 or 3.0, not 1.7, "3" or true), and a float not a bool.
    """
    if kind is float and not isinstance(val, bool):
        return float(val)
    if kind is bool and isinstance(val, bool):
        return val
    if kind is int and not isinstance(val, bool) and int(val) == val:
        return int(val)
    raise ValueError(val)


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number"}


def _pick(flag, cfg, key, default, kind=None):
    """The flag, else cfg[key], else default; a given value is cast by kind.

    A value kind cannot take is a ConfigError naming key.
    """
    val = flag if flag is not None else cfg.get(key)
    if val is None:
        return default
    if kind is None:
        return val
    try:
        return _cast(kind, val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {val!r}") from None


def _resolve_seed(flag_seed, cfg):
    seed = _pick(flag_seed, cfg, "seed", None, int)
    if seed is not None:
        return seed
    env = os.environ.get("ADVREG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"ADVREG_SEED must be an integer, got {env!r}") from exc
    return 0


def _parse_label(label):
    """Column index if the label looks like an integer, else column name."""
    if label is None or isinstance(label, int):
        return label
    try:
        return int(str(label))
    except ValueError:
        return str(label)


def _target_from_dict(d):
    if d is None:
        return TargetSpec()
    if not isinstance(d, dict):
        raise ConfigError(f"target must be a JSON object, got {d!r}")
    kind = d.get("kind", "offset")
    try:
        if kind == "constant":
            value = _pick(None, d, "value", None, float)
            if value is not None:
                return ConstantTarget(value=value, mask=d.get("mask"))
            vr = d.get("value_range")
            if vr is None:
                raise ConfigError("constant target needs value or value_range")
            return ConstantTarget(
                value_range=(_cast(float, vr[0]), _cast(float, vr[1])), mask=d.get("mask")
            )
        if kind != "offset":
            raise ConfigError(f"unknown target kind {kind!r}")
        return TargetSpec(
            delta_scale=_pick(None, d, "delta_scale", 0.0, float),
            mask=d.get("mask"),
            clip_min=_pick(None, d, "clip_min", None, float),
            clip_max=_pick(None, d, "clip_max", None, float),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad target spec {d!r}: {exc}") from exc


def _target_dict_from_flags(args, cfg):
    """Flags override the config's target wholesale; masks are config-only."""
    if getattr(args, "constant_value", None) is not None:
        return {"kind": "constant", "value": args.constant_value}
    offset_flags = (args.delta_scale, args.clip_min, args.clip_max)
    if any(v is not None for v in offset_flags):
        return {
            "kind": "offset",
            "delta_scale": 0.0 if args.delta_scale is None else args.delta_scale,
            "clip_min": args.clip_min,
            "clip_max": args.clip_max,
        }
    return cfg.get("target")


def _fit_from_dict(d):
    if d is None:
        return FitConfig()
    if not isinstance(d, dict):
        raise ConfigError(f"fit config must be a JSON object, got {d!r}")
    try:
        kwargs = {}
        for key in ("cv_folds", "cv_alpha_grid"):
            if d.get(key) is not None:
                kwargs[key] = d[key]
        return FitConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad fit config {d!r}: {exc}") from exc


def _target_echo(target, drawn):
    """The target as given, with a drawn value pinned so a replay matches."""
    echo = target.as_dict()
    if drawn is not None:
        echo["value"] = drawn
    return echo


def _emit_json(args, doc):
    if args.out:
        write_json(args.out, doc)
        _say(args, f"wrote {args.out}")
    else:
        sys.stdout.write(to_json(doc))


# ---------------------------------------------------------------- train


def cmd_train(args):
    cfg = _load_config(args.config)
    dataset = _pick(args.dataset, cfg, "dataset", None)
    if dataset is None:
        raise ConfigError("train needs a dataset (--dataset or config)")
    label = _parse_label(_pick(args.label, cfg, "label", None))
    if label is None:
        raise ConfigError("train needs a label column (--label or config)")
    algorithm = _pick(args.algorithm, cfg, "algorithm", None)
    seed = _resolve_seed(args.seed, cfg)
    no_std = False if args.no_standardize else None
    standardize = _pick(no_std, cfg, "standardize", True, bool)
    n = _pick(args.n, cfg, "n", 5, int)
    lam = _pick(args.lam, cfg, "lambda", 1.0, float)
    beta = _pick(args.beta, cfg, "beta", 0.8, float)
    radius = _pick(args.radius, cfg, "theta_radius", None, float)
    alpha = _pick(args.alpha, cfg, "alpha", None, float)
    fit = _fit_from_dict(cfg.get("fit"))
    target = _target_from_dict(_target_dict_from_flags(args, cfg))
    setting = GameSetting(lam=lam, beta=beta, target=target)

    ds = load_csv(dataset, label)
    if standardize:
        std = fit_standardizer(ds.X)
        X = apply_standardizer(std, ds.X)
    else:
        std, X = None, ds.X

    # the scenario harness's fit path: same rows, seed and setting, same model
    theta, diagnostics = fit_model(
        algorithm, X, ds.y, setting=setting, n=n, theta_radius=radius, fit=fit, seed=seed,
        alpha=alpha,
    )

    resolved = {
        "command": "train",
        "dataset": str(dataset),
        "label": label,
        "algorithm": algorithm,
        "seed": seed,
        "standardize": standardize,
        "n": n,
        "lambda": lam,
        "beta": beta,
        "theta_radius": radius,
        "alpha": alpha,
        "target": _target_echo(target, diagnostics.get("drawn_value")),
        "fit": fit.as_dict(),
    }
    model = {
        "algorithm": algorithm,
        "theta": [float(t) for t in theta],
        "preprocessing": {
            "standardize": standardize,
            "means": None if std is None else [float(v) for v in std.means],
            "stds": None if std is None else [float(v) for v in std.stds],
            "feature_names": list(ds.feature_names),
            "label_name": ds.label_name,
        },
        "config": resolved,
        "diagnostics": diagnostics,
    }
    write_json(args.out, model)
    _say(args, f"wrote {args.out}")
    return 0


# --------------------------------------------------------------- attack


def _finite(values, d):
    """Whether values is a list of d finite JSON numbers."""
    try:
        return (isinstance(values, list) and len(values) == d
                and all(type(v) in (int, float) and math.isfinite(v) for v in values))
    except OverflowError:  # an int too large for a double
        return False


def _load_model(path):
    """A model file; ConfigError unless attack can use its shape."""
    model = _read_json(path, "model")
    for key in ("algorithm", "theta", "preprocessing"):
        if key not in model:
            raise ConfigError(f"model {path} is missing {key!r}")
    prep = model["preprocessing"]
    names = prep.get("feature_names") if isinstance(prep, dict) else None
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"model {path}: preprocessing must be an object "
                          "with a list of strings as feature_names")
    d = len(names)
    for key in ("means", "stds") if prep.get("standardize") else ():
        if not _finite(prep.get(key), d):
            raise ConfigError(f"model {path}: preprocessing {key} must be {d} finite numbers")
    if not _finite(model["theta"], d):
        raise ConfigError(f"model {path}: theta must be {d} finite numbers")
    return model


def _same_preprocessing(a, b):
    keys = ["feature_names", "label_name"] + (["means", "stds"] if a.get("standardize") else [])
    return (bool(a.get("standardize")) == bool(b.get("standardize"))
            and all(a.get(k) == b.get(k) for k in keys))


def _attacked_rows(path, ds, X_out):
    """The test file's header, and its rows as one float table with the
    manipulated feature values."""
    with open(path, newline="", encoding="utf-8") as f:
        header = [c.strip() for c in next(csv.reader(f))]
    col = {name: X_out[:, j] for j, name in enumerate(ds.feature_names)}
    col[ds.label_name] = ds.y
    return header, np.column_stack([col[name] for name in header])


def cmd_attack(args):
    cfg = _load_config(args.config)
    model_paths = args.model if args.model else cfg.get("models")
    if not model_paths:
        raise ConfigError("attack needs at least one --model (or models in config)")
    models = [_load_model(p) for p in model_paths]
    prep = models[0]["preprocessing"]
    for path, model in zip(model_paths[1:], models[1:]):
        if not _same_preprocessing(prep, model["preprocessing"]):
            raise ConfigError(f"model {path} was trained with different preprocessing")

    test_path = _pick(args.test, cfg, "test", None)
    if test_path is None:
        raise ConfigError("attack needs a test CSV (--test or config)")
    label = _parse_label(_pick(args.label, cfg, "label", prep.get("label_name")))
    lam = _pick(args.lam, cfg, "lambda", 1.0, float)
    seed = _resolve_seed(args.seed, cfg)
    target = _target_from_dict(_target_dict_from_flags(args, cfg))

    ds = load_csv(test_path, label)
    if list(ds.feature_names) != prep["feature_names"]:
        raise ConfigError("test feature columns do not match the model's training columns")
    thetas = np.array([m["theta"] for m in models], dtype=float)

    if prep.get("standardize"):
        std = Standardizer(
            means=np.asarray(prep["means"], dtype=float),
            stds=np.asarray(prep["stds"], dtype=float),
        )
        X = apply_standardizer(std, ds.X)
    else:
        std, X = None, ds.X

    z, sigma, drawn = draw_target(ds.y, target, seed, STREAM_ACTUAL_TARGET)
    profile = ThetaProfile(thetas)
    X_att = simulate_attack(profile, X, z, lam)
    cost = attacker_cost(profile, X, X_att, GameParams(n=profile.n, beta=1.0, lam=lam, z=z))
    shift = float(np.sqrt(np.sum((X_att - X) ** 2)))
    X_out = invert_standardizer(std, X_att) if std is not None else X_att

    header, rows = _attacked_rows(test_path, ds, X_out)
    write_csv(args.out, header, rows)
    _say(args, f"wrote {args.out}")

    summary = {
        "config": {
            "command": "attack",
            "models": [str(p) for p in model_paths],
            "test": str(test_path),
            "label": label,
            "lambda": lam,
            "seed": seed,
            "target": _target_echo(target, drawn),
        },
        "summary": {
            "attacker_cost": cost,
            "frobenius_shift": shift,
            "shift_space": "standardized" if std is not None else "original",
            "rows": ds.m,
            "n_models": profile.n,
            "algorithms": [m["algorithm"] for m in models],
            "sigma": sigma,
        },
    }
    summary_path = args.summary_out or (args.out + ".summary.json")
    write_json(summary_path, summary)
    _say(args, f"wrote {summary_path}")
    return 0


# ----------------------------------------------------- evaluate / sweep


def _scenario_from_config(cfg, seed):
    def setting(d):
        d = d or {}
        if not isinstance(d, dict):
            raise ConfigError(f"game setting must be a JSON object, got {d!r}")
        return GameSetting(
            lam=_pick(None, d, "lambda", 1.0, float),
            beta=_pick(None, d, "beta", 0.5, float),
            target=_target_from_dict(d.get("target")),
        )

    algorithms = cfg.get("algorithms")
    if algorithms is not None and not isinstance(algorithms, list):
        raise ConfigError(f"algorithms must be a list of names, got {algorithms!r}")
    algorithms = tuple(algorithms) if algorithms else KNOWN_ALGORITHMS
    try:
        scen = ScenarioConfig(
            n=_pick(None, cfg, "n", 5, int),
            defender_estimates=setting(cfg.get("defender_estimates")),
            actual=setting(cfg.get("actual")),
            algorithms=algorithms,
            seed=seed,
            defender_knows_actual=_pick(None, cfg, "defender_knows_actual", False, bool),
            standardize=_pick(None, cfg, "standardize", True, bool),
            theta_radius=_pick(None, cfg, "theta_radius", None, float),
            fit=_fit_from_dict(cfg.get("fit")),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return scen, scen.as_dict()


def _common_eval_inputs(args, cfg):
    dataset = _pick(args.dataset, cfg, "dataset", None)
    if dataset is None:
        raise ConfigError("need a dataset (--dataset or config)")
    label = _parse_label(_pick(args.label, cfg, "label", None))
    if label is None:
        raise ConfigError("need a label column (--label or config)")
    frac = _pick(args.train_fraction, cfg, "train_fraction", 0.5, float)
    if not 0.0 < frac < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {frac}")
    return dataset, label, frac


def cmd_evaluate(args):
    cfg = _load_config(args.config)
    dataset, label, frac = _common_eval_inputs(args, cfg)
    seed = _resolve_seed(args.seed, cfg)
    scen, echo = _scenario_from_config(cfg, seed)

    ds = load_csv(dataset, label)
    train, test = split_train_test(ds, frac, seed)
    report = run_scenario(train, test, scen)

    resolved = {
        "command": "evaluate",
        "dataset": str(dataset),
        "label": label,
        "train_fraction": frac,
        **echo,
    }
    _emit_json(args, {"config": resolved, "results": report.results,
                      "metadata": report.metadata})
    return 0


def cmd_sweep(args):
    cfg = _load_config(args.config)
    dataset, label, frac = _common_eval_inputs(args, cfg)
    seed = _resolve_seed(args.seed, cfg)
    scen, echo = _scenario_from_config(cfg, seed)
    lambda_grid = cfg.get("lambda_grid")
    beta_grid = cfg.get("beta_grid")
    if not lambda_grid or not beta_grid:
        raise ConfigError("sweep needs lambda_grid and beta_grid in the config")
    repeats = _pick(args.repeats, cfg, "repeats", 1, int)

    ds = load_csv(dataset, label)
    train, test = split_train_test(ds, frac, seed)
    grid = run_sweep(train, test, scen, lambda_grid, beta_grid, repeats, seed)

    write_csv(args.out, CSV_HEADER, grid.csv_rows())
    _say(args, f"wrote {args.out}")
    resolved = {
        "command": "sweep",
        "dataset": str(dataset),
        "label": label,
        "train_fraction": frac,
        "lambda_grid": grid.lambda_values,
        "beta_grid": grid.beta_values,
        "repeats": repeats,
        **echo,
    }
    meta_path = args.out + ".meta.json"
    write_json(meta_path, {"config": resolved, "grid": grid.as_dict()})
    _say(args, f"wrote {meta_path}")
    return 0


# --------------------------------------------------------------- verify


def cmd_verify(args):
    cfg = _load_config(args.config)
    names = args.checks if args.checks is not None else cfg.get("checks")
    if names is None or names == "all":
        selected = list(ALL_CHECKS)
    elif names == "core":
        selected = list(CORE_CHECKS)
    elif isinstance(names, str):
        selected = [s.strip() for s in names.split(",") if s.strip()]
    elif isinstance(names, list):
        selected = [str(s) for s in names]
    else:
        raise ConfigError(f"checks must be a string or a list of names, got {names!r}")
    unknown = [s for s in selected if s not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks {unknown}; available: {sorted(ALL_CHECKS)}")
    if not selected:
        raise ConfigError("no checks selected")
    trials = _pick(args.trials, cfg, "trials", 1000, int)
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    seed = _resolve_seed(args.seed, cfg)

    reports = run_checks(selected, trials=trials, seed=seed)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        _say(args, f"{status}  {rep.check_name:<24s} {rep.failures}/{rep.trials} failures"
                   f"  worst violation {rep.worst_violation:.3e}")
    doc = {
        "config": {"command": "verify", "checks": selected, "trials": trials, "seed": seed},
        "reports": [rep.as_dict() for rep in reports],
    }
    if args.out:
        write_json(args.out, doc)
        _say(args, f"wrote {args.out}")
    return 5 if any(not rep.passed for rep in reports) else 0


# ----------------------------------------------------------------- main


def build_parser():
    parser = argparse.ArgumentParser(
        prog="advreg",
        description="Adversarial linear regression: equilibrium models, "
                    "optimal data manipulation, benchmarks, and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required, out_help):
        p.add_argument("--config", metavar="PATH",
                       help="JSON config; an emitted artifact's embedded config replays it")
        p.add_argument("--seed", type=int,
                       help="RNG seed (precedence: flag, config, ADVREG_SEED, 0)")
        p.add_argument("--quiet", action="store_true", help="suppress status lines")
        p.add_argument("--out", metavar="PATH", required=out_required, help=out_help)

    t = sub.add_parser("train", help="fit one model on a CSV and save it as JSON")
    common(t, True, "model JSON output path")
    t.add_argument("--dataset", metavar="CSV")
    t.add_argument("--label", help="label column name or 0-based index")
    t.add_argument("--algorithm", choices=sorted(KNOWN_ALGORITHMS))
    t.add_argument("--n", type=int, help="number of symmetric learners (mlsg)")
    t.add_argument("--lambda", dest="lam", type=float, help="attacker effort price")
    t.add_argument("--beta", type=float, help="attack probability the defender plans for")
    t.add_argument("--radius", type=float, help="coefficient norm bound (mlsg); omit for no bound")
    t.add_argument("--alpha", type=float, help="ridge/lasso penalty; omit to cross-validate")
    t.add_argument("--delta-scale", type=float,
                   help="attack target offset, in label standard deviations")
    t.add_argument("--clip-min", type=float)
    t.add_argument("--clip-max", type=float)
    t.add_argument("--constant-value", type=float, help="constant attack target value")
    t.add_argument("--no-standardize", action="store_true")

    a = sub.add_parser("attack", help="optimally manipulate a test CSV against saved models")
    common(a, True, "attacked CSV output path")
    a.add_argument("--model", action="append", metavar="JSON",
                   help="saved model; repeat to attack several at once")
    a.add_argument("--test", metavar="CSV")
    a.add_argument("--label", help="label column (default: from the model)")
    a.add_argument("--lambda", dest="lam", type=float, help="attacker effort price")
    a.add_argument("--delta-scale", type=float)
    a.add_argument("--clip-min", type=float)
    a.add_argument("--clip-max", type=float)
    a.add_argument("--constant-value", type=float)
    a.add_argument("--summary-out", metavar="PATH",
                   help="summary JSON path (default: <out>.summary.json)")

    e = sub.add_parser("evaluate", help="run one train/attack/score scenario")
    common(e, False, "report JSON path (default: stdout)")
    e.add_argument("--dataset", metavar="CSV")
    e.add_argument("--label")
    e.add_argument("--train-fraction", type=float)

    s = sub.add_parser("sweep", help="scenario grid over lambda and beta, averaged over repeats")
    common(s, True, "grid CSV output path (metadata goes to <out>.meta.json)")
    s.add_argument("--dataset", metavar="CSV")
    s.add_argument("--label")
    s.add_argument("--train-fraction", type=float)
    s.add_argument("--repeats", type=int)
    s.add_argument("--jobs", type=int,
                   help="accepted and ignored: the sweep runs its cells one after another")

    v = sub.add_parser("verify", help="run randomized numerical certificates")
    common(v, False, "report JSON path (optional)")
    v.add_argument("--checks", help='comma-separated names, "core", or "all" (default)')
    v.add_argument("--trials", type=int, help="random instances per check (default 1000)")
    return parser


@functools.cache
def _parser():
    return build_parser()


_DATA_ERRORS = (
    ParseError,
    MissingLabelColumn,
    EmptyFile,
    TooFewRows,
    MaskOutOfRange,
    DimensionMismatch,
    FileNotFoundError,
)
_SOLVER_ERRORS = (SingularDesign, NotPositiveDefinite, NoConvergence, NonFinite)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # looked up per call, so a rebound cmd_* (a tracer, a test stub) takes effect
        return int(globals()[f"cmd_{args.command}"](args) or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _SOLVER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
