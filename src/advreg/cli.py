"""Command-line front end: train, attack, evaluate, sweep, verify.

Every command is seeded and every artifact is written with deterministic
serialization (sorted JSON keys; each float as its shortest repr, which
reads back to the same double), so a rerun with the same inputs reproduces
the same bytes. Each JSON artifact embeds the resolved settings under a
"config" key; feeding that file back through --config replays the run.

Each command declares the keys it reads once, as (key, kind, default) rows
of one table (_TRAIN, _ATTACK, _EVALUATE, _SWEEP, _VERIFY); the target, the
fit settings and each game setting are objects read through tables of their
own. One reader, _read, takes each key from its flag (whose argparse dest is
the key itself), else from the config, else the default, and casts it by its
kind. A value the kind cannot hold exactly (a string or a bool where a
number belongs, 1.7 where an integer belongs, a list where an object
belongs) is a configuration error naming the key; a JSON null counts as
absent. Keys that no table declares are ignored, so artifacts that carry a
setting since removed still replay. The echoed config is the resolved
table, objects included.

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

from .baselines import FitConfig, _default_alpha_grid
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
from .game import GameParams, attacker_best_response, attacker_cost
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


# -------------------------------------------------------- config schema
# A kind casts one given value or raises TypeError or ValueError. A number
# is a JSON number, never a bool or a string; an integer is a number that
# int() keeps as it is (3 or 3.0, not 1.7).


def _instance_of(cls):
    def cast(val):
        if isinstance(val, cls):
            return val
        raise TypeError
    return cast


_bool, _string, _object = _instance_of(bool), _instance_of(str), _instance_of(dict)


def _float(val):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise TypeError
    return float(val)


def _int(val):
    if isinstance(val, bool) or not isinstance(val, (int, float)) or int(val) != val:
        raise TypeError
    return int(val)


def _label(val):
    """A column index if val is an integer or its ASCII digits, else a column name."""
    if not isinstance(val, str):
        return _int(val)
    return int(val) if val.isascii() and val.isdigit() else val


def _list_of(kind):
    def cast(val):
        if not isinstance(val, list):
            raise TypeError
        return [kind(v) for v in val]
    return cast


_ints, _floats, _names = _list_of(_int), _list_of(_float), _list_of(_string)


def _strings(val):
    names = _names(val)
    if not names:
        raise ValueError
    return names


def _pair(val):
    lo, hi = _floats(val)
    return lo, hi


def _checks(val):
    if isinstance(val, list):
        return _names(val)
    named = {"all": ALL_CHECKS, "core": CORE_CHECKS}.get(_string(val))
    if named is not None:
        return list(named)
    return [s.strip() for s in val.split(",") if s.strip()]


_KIND_NAMES = {
    _bool: "true or false",
    _float: "a number",
    _int: "an integer",
    _string: "a string",
    _label: "a column name or 0-based index",
    _ints: "a list of integers",
    _floats: "a list of numbers",
    _strings: "a non-empty list of strings",
    _pair: "a pair of numbers",
    _checks: 'a list of check names, "core", "all" or comma-separated names',
    _object: "a JSON object",
}
_REQUIRED = object()


def _typed(key, kind, val):
    """val cast by kind; ConfigError naming key if the kind cannot hold it."""
    try:
        return kind(val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {val!r}") from None


def _read(args, cfg, spec):
    """The settings a table declares, as {key: value}.

    For each (key, kind, default) row: the flag whose dest is key, else
    cfg[key], else the default (a callable one is called), a given value
    cast by kind. An object kind is a builder: it reads the key's JSON
    object, or the default {} when absent, through its own table and
    returns the library object.
    """
    out = {}
    for key, kind, default in spec:
        val = getattr(args, key, None)
        if val is None:
            val = cfg.get(key)
        if kind in _OBJECTS:
            out[key] = kind(args, default if val is None else _typed(key, _object, val))
        elif val is not None:
            out[key] = _typed(key, kind, val)
        elif default is _REQUIRED:
            raise ConfigError(f"{key} is required (by its flag or in the config)")
        else:
            out[key] = default() if callable(default) else default
    return out


def _env_seed():
    env = os.environ.get("ADVREG_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"ADVREG_SEED must be an integer, got {env!r}") from exc


_OFFSET = (
    ("delta_scale", _float, 0.0),
    ("mask", _ints, None),
    ("clip_min", _float, None),
    ("clip_max", _float, None),
)
_CONSTANT = (
    ("value", _float, None),
    ("value_range", _pair, None),
    ("mask", _ints, None),
)
_TARGET_FLAGS = ("value", "delta_scale", "clip_min", "clip_max")


def _target(args, d):
    """The attack target. Target flags replace the config's target wholesale:
    --constant-value makes it constant, any other makes it an offset."""
    if any(getattr(args, key, None) is not None for key in _TARGET_FLAGS):
        d = {"kind": "constant" if args.value is not None else "offset"}
    kind = d.get("kind", "offset")
    if kind == "offset":
        return TargetSpec(**_read(args, d, _OFFSET))
    if kind == "constant":
        r = _read(args, d, _CONSTANT)
        if r["value_range"] is not None:  # a range redraws the value its echo pinned
            r["value"] = None
        return ConstantTarget(**r)
    raise ConfigError(f'target kind must be "offset" or "constant", got {kind!r}')


_FIT = (
    ("cv_folds", _int, 5),
    ("cv_alpha_grid", _floats, _default_alpha_grid),
)


def _fit(args, d):
    return FitConfig(**_read(args, d, _FIT))


_SETTING = (
    ("lambda", _float, 1.0),
    ("beta", _float, 0.5),
    ("target", _target, {}),
)


def _setting(args, d):
    r = _read(args, d, _SETTING)
    return GameSetting(lam=r["lambda"], beta=r["beta"], target=r["target"])


_OBJECTS = (_target, _fit, _setting)
_SEED = ("seed", _int, _env_seed)

_TRAIN = (
    ("dataset", _string, _REQUIRED),
    ("label", _label, _REQUIRED),
    ("algorithm", _string, _REQUIRED),
    _SEED,
    ("standardize", _bool, True),
    ("n", _int, 5),
    ("lambda", _float, 1.0),
    ("beta", _float, 0.8),
    ("theta_radius", _float, None),
    ("alpha", _float, None),
    ("target", _target, {}),
    ("fit", _fit, {}),
)
_ATTACK = (
    ("models", _strings, _REQUIRED),
    ("test", _string, _REQUIRED),
    ("label", _label, None),  # None: the models' label column
    ("lambda", _float, 1.0),
    _SEED,
    ("target", _target, {}),
)
# the keys of a ScenarioConfig, each under its field name
_SCENARIO = (
    ("n", _int, 5),
    ("defender_estimates", _setting, {}),
    ("actual", _setting, {}),
    ("algorithms", _strings, KNOWN_ALGORITHMS),
    _SEED,
    ("defender_knows_actual", _bool, False),
    ("standardize", _bool, True),
    ("theta_radius", _float, None),
    ("fit", _fit, {}),
)
_EVALUATE = (
    ("dataset", _string, _REQUIRED),
    ("label", _label, _REQUIRED),
    ("train_fraction", _float, 0.5),
) + _SCENARIO
_SWEEP = _EVALUATE + (
    ("lambda_grid", _floats, _REQUIRED),
    ("beta_grid", _floats, _REQUIRED),
    ("repeats", _int, 1),
)
_VERIFY = (
    ("checks", _checks, tuple(ALL_CHECKS)),
    ("trials", _int, 1000),
    _SEED,
)


def _echo(command, resolved, drawn=None):
    """The config an artifact embeds: the resolved settings, objects by their
    as_dict(), and a drawn target value pinned so that a replay matches."""
    echo = {"command": command}
    for key, val in resolved.items():
        echo[key] = val.as_dict() if hasattr(val, "as_dict") else val
    if drawn is not None:
        echo["target"]["value"] = drawn
    return echo


def _emit_json(args, doc):
    if args.out:
        write_json(args.out, doc)
        _say(args, f"wrote {args.out}")
    else:
        sys.stdout.write(to_json(doc))


# ---------------------------------------------------------------- train


def cmd_train(args):
    r = _read(args, _load_config(args.config), _TRAIN)
    setting = GameSetting(lam=r["lambda"], beta=r["beta"], target=r["target"])

    ds = load_csv(r["dataset"], r["label"])
    if isinstance(r["label"], int) and ds.label_name in ds.feature_names[:r["label"]]:
        raise ConfigError(f"label column {r['label']} is named {ds.label_name!r}, as column "
                          f"{ds.feature_names.index(ds.label_name)} is: a model could not name it")
    if r["standardize"]:
        std = fit_standardizer(ds.X)
        X = apply_standardizer(std, ds.X)
    else:
        std, X = None, ds.X

    # the scenario harness's fit path: same rows, seed and setting, same model
    theta, diagnostics = fit_model(
        r["algorithm"], X, ds.y, setting=setting, n=r["n"], theta_radius=r["theta_radius"],
        fit=r["fit"], seed=r["seed"], alpha=r["alpha"],
    )

    model = {
        "algorithm": r["algorithm"],
        "theta": [float(t) for t in theta],
        "preprocessing": {
            "standardize": r["standardize"],
            "means": None if std is None else [float(v) for v in std.means],
            "stds": None if std is None else [float(v) for v in std.stds],
            "feature_names": list(ds.feature_names),
            "label_name": ds.label_name,
        },
        "config": _echo("train", r, diagnostics.get("drawn_value")),
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


def _attacked_rows(path, ds, X_out, label):
    """The test file's header, and its rows as one float table with the
    manipulated feature values; the labels sit in the column `load_csv`
    read them from."""
    with open(path, newline="", encoding="utf-8") as f:
        header = [c.strip() for c in next(csv.reader(f))]
    at = label if isinstance(label, int) else header.index(label)
    return header, np.insert(X_out, at, ds.y, axis=1)


def cmd_attack(args):
    r = _read(args, _load_config(args.config), _ATTACK)
    models = [_load_model(p) for p in r["models"]]
    prep = models[0]["preprocessing"]
    for path, model in zip(r["models"][1:], models[1:]):
        if not _same_preprocessing(prep, model["preprocessing"]):
            raise ConfigError(f"model {path} was trained with different preprocessing")
    if r["label"] is None:
        # a model names its label column; a name of digits is still a name
        r["label"] = _typed("label", _string, prep.get("label_name"))

    ds = load_csv(r["test"], r["label"])
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

    z, sigma, drawn = draw_target(ds.y, r["target"], r["seed"], STREAM_ACTUAL_TARGET)
    params = GameParams(n=len(models), beta=1.0, lam=r["lambda"], z=z)
    X_att = attacker_best_response(thetas, X, params)
    cost = attacker_cost(thetas, X, X_att, params)
    shift = float(np.sqrt(np.sum((X_att - X) ** 2)))
    X_out = invert_standardizer(std, X_att) if std is not None else X_att

    header, rows = _attacked_rows(r["test"], ds, X_out, r["label"])
    write_csv(args.out, header, rows)
    _say(args, f"wrote {args.out}")

    summary = {
        "config": _echo("attack", r, drawn),
        "summary": {
            "attacker_cost": cost,
            "frobenius_shift": shift,
            "shift_space": "standardized" if std is not None else "original",
            "rows": ds.m,
            "n_models": params.n,
            "algorithms": [m["algorithm"] for m in models],
            "sigma": sigma,
        },
    }
    summary_path = args.summary_out or (args.out + ".summary.json")
    write_json(summary_path, summary)
    _say(args, f"wrote {summary_path}")
    return 0


# ----------------------------------------------------- evaluate / sweep


def _scenario_and_split(r):
    """The scenario the settings declare, then the dataset's seeded split."""
    scen = ScenarioConfig(**{key: r[key] for key, _, _ in _SCENARIO})
    ds = load_csv(r["dataset"], r["label"])
    return scen, *split_train_test(ds, r["train_fraction"], r["seed"])


def cmd_evaluate(args):
    r = _read(args, _load_config(args.config), _EVALUATE)
    scen, train, test = _scenario_and_split(r)
    report = run_scenario(train, test, scen)
    _emit_json(args, {"config": _echo("evaluate", r), "results": report.results,
                      "metadata": report.metadata})
    return 0


def cmd_sweep(args):
    r = _read(args, _load_config(args.config), _SWEEP)
    scen, train, test = _scenario_and_split(r)
    grid = run_sweep(train, test, scen, r["lambda_grid"], r["beta_grid"], r["repeats"],
                     r["seed"])

    write_csv(args.out, CSV_HEADER, grid.csv_rows())
    _say(args, f"wrote {args.out}")
    meta_path = args.out + ".meta.json"
    write_json(meta_path, {"config": _echo("sweep", r), "grid": grid.as_dict()})
    _say(args, f"wrote {meta_path}")
    return 0


# --------------------------------------------------------------- verify


def cmd_verify(args):
    r = _read(args, _load_config(args.config), _VERIFY)
    unknown = [s for s in r["checks"] if s not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks {unknown}; available: {sorted(ALL_CHECKS)}")
    if not r["checks"]:
        raise ConfigError("no checks selected")
    if r["trials"] < 1:
        raise ConfigError(f"trials must be >= 1, got {r['trials']}")

    reports = run_checks(r["checks"], trials=r["trials"], seed=r["seed"])
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        _say(args, f"{status}  {rep.check_name:<24s} {rep.failures}/{rep.trials} failures"
                   f"  worst violation {rep.worst_violation:.3e}")
    doc = {"config": _echo("verify", r), "reports": [rep.as_dict() for rep in reports]}
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

    # each flag's dest is the config key it sets
    t = sub.add_parser("train", help="fit one model on a CSV and save it as JSON")
    common(t, True, "model JSON output path")
    t.add_argument("--dataset", metavar="CSV")
    t.add_argument("--label", help="label column name or 0-based index")
    t.add_argument("--algorithm", choices=sorted(KNOWN_ALGORITHMS))
    t.add_argument("--n", type=int, help="number of symmetric learners (mlsg)")
    t.add_argument("--lambda", type=float, help="attacker effort price")
    t.add_argument("--beta", type=float, help="attack probability the defender plans for")
    t.add_argument("--radius", dest="theta_radius", metavar="RADIUS", type=float,
                   help="coefficient norm bound (mlsg); omit for no bound")
    t.add_argument("--alpha", type=float, help="ridge/lasso penalty; omit to cross-validate")
    t.add_argument("--delta-scale", type=float,
                   help="attack target offset, in label standard deviations")
    t.add_argument("--clip-min", type=float)
    t.add_argument("--clip-max", type=float)
    t.add_argument("--constant-value", dest="value", metavar="CONSTANT_VALUE", type=float,
                   help="constant attack target value")
    t.add_argument("--no-standardize", dest="standardize", action="store_const", const=False)

    a = sub.add_parser("attack", help="optimally manipulate a test CSV against saved models")
    common(a, True, "attacked CSV output path")
    a.add_argument("--model", dest="models", action="append", metavar="JSON",
                   help="saved model; repeat to attack several at once")
    a.add_argument("--test", metavar="CSV")
    a.add_argument("--label", help="label column (default: from the model)")
    a.add_argument("--lambda", type=float, help="attacker effort price")
    a.add_argument("--delta-scale", type=float)
    a.add_argument("--clip-min", type=float)
    a.add_argument("--clip-max", type=float)
    a.add_argument("--constant-value", dest="value", metavar="CONSTANT_VALUE", type=float)
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
