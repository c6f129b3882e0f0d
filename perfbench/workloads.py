"""The four benchmark workloads: closed loop, one client, in-process calls.

Every input the program sees is generated here from the run's seed: the
sweep and CLI ``--seed`` values, the certificate seeds, the train/test
splits and the feasible-ball radii. Round ``r`` of a run uses the seed
`derived` from (seed, stream, r); the warm-up in set-up has a stream of its
own, so it never shares a seed with a round. `run_round` yields one op per
program call, so the runner can time a reference kernel between calls. Each call is timed alone; its
output is then checked by `checks` outside the timed region.

An op ends in one of three states: ``ok``; ``failed`` when the program
reported the failure itself (it raised, exited nonzero or returned
``converged=False``); ``wrong`` when it reported success but the output
failed its independent check.
"""

import json
import os
import time
from collections import namedtuple

import numpy as np

import checks

Op = namedtuple("Op", "kind seconds status reason")


class Workload:
    """What every workload shares; see the subclasses for what an op is."""

    # None: a run repeats rounds until its time is up. A number: a run does
    # round(seconds / seconds_per_round) rounds, the same for every run of a
    # seed, so that ops whose failure depends only on their input fail the
    # same number of times in each of them
    seconds_per_round = None


# seed streams: the measured rounds, and the one warm-up op of set-up
ROUNDS, WARM_UP = 0, 1


def derived(seed, r, stream=ROUNDS):
    """Seed for round `r`: seed mod 2**30, stream and round in disjoint bits.

    No two (seed, stream, round) triples share a seed for rounds below 2**32,
    and the result is a non-negative 63-bit integer, as numpy and the CLI's
    64-bit seed mixing need.
    """
    if not 0 <= r < 2**32:
        raise ValueError(f"round {r} out of range")
    return ((seed % 2**30) << 1 | stream) << 32 | r


def timed_call(kind, fn, *args):
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a failed op is recorded, the run goes on
        return Op(kind, time.perf_counter() - t0, "failed", f"{type(exc).__name__}: {exc}"), None
    return Op(kind, time.perf_counter() - t0, "ok", None), result


def judged(op, reason):
    return op if reason is None else op._replace(status="wrong", reason=reason)


def cli_call(cli, kind, argv):
    """One in-process `advreg` command; a nonzero exit code is a failed op."""
    op, rc = timed_call(kind, cli.main, argv)
    if op.status == "ok" and rc != 0:
        op = op._replace(status="failed", reason=f"exit code {rc}")
    return op


class SweepMismatch(Workload):
    """`advreg sweep --jobs 2` on wine_like with criterion 6's mismatched defender."""

    name = "sweep-mismatch"
    rounds_per_block = 1
    jobs = 2
    lambda_grid = [0.1, 0.5, 1.0, 2.0]
    beta_grid = [0.2, 0.5, 0.8]

    def __init__(self, advreg, workdir, seed):
        self.seed = seed
        self.cli = advreg.cli
        path = advreg.synthetic.bundled_path("wine_like")
        config = {
            "dataset": str(path),
            "label": "quality",
            "train_fraction": 0.5,
            "n": 5,
            "standardize": False,
            "repeats": 1,
            "lambda_grid": self.lambda_grid,
            "beta_grid": self.beta_grid,
            "defender_estimates": {"lambda": 0.5, "beta": 0.8,
                                   "target": {"kind": "constant", "value_range": [0.0, 4.05]}},
            "actual": {"lambda": 1.0, "beta": 0.5,
                       "target": {"kind": "offset", "delta_scale": 5.0, "clip_max": 10.0}},
        }
        self.config_path = os.path.join(workdir, "sweep.json")
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump(config, f)
        self.out = os.path.join(workdir, "grid.csv")
        X = np.loadtxt(path, delimiter=",", skiprows=1)
        self.input_bytes = X.shape[0] * (X.shape[1] - 1) * 8
        list(self.run_round(0, WARM_UP))

    def run_round(self, r, stream=ROUNDS):
        argv = ["sweep", "--config", self.config_path, "--seed",
                str(derived(self.seed, r, stream)),
                "--jobs", str(self.jobs), "--quiet", "--out", self.out]
        op = cli_call(self.cli, "sweep", argv)
        if op.status == "ok":
            op = judged(op, checks.check_sweep_csv(self.out, self.lambda_grid, self.beta_grid))
        yield op


class CliOps(Workload):
    """Alternating `advreg train` / `advreg attack` pairs on housing_like."""

    name = "cli-ops"
    rounds_per_block = 4
    algorithms = ("ols", "ridge", "lasso", "mlsg")
    delta_scale = 2.0

    def __init__(self, advreg, workdir, seed):
        self.seed = seed
        self.cli = advreg.cli
        self.csv = str(advreg.synthetic.bundled_path("housing_like"))
        with open(self.csv, encoding="utf-8") as f:
            self.header = [h.strip() for h in f.readline().split(",")]
        table = np.loadtxt(self.csv, delimiter=",", skiprows=1)
        label = self.header.index("value")
        self.X = np.delete(table, label, axis=1)
        self.y = table[:, label]
        self.input_bytes = self.X.size * 8
        self.model = os.path.join(workdir, "model.json")
        self.attacked = os.path.join(workdir, "attacked.csv")
        list(self.run_round(0, WARM_UP))

    def run_round(self, r, stream=ROUNDS):
        algo = self.algorithms[r % len(self.algorithms)]
        seed = str(derived(self.seed, r, stream))
        delta = str(self.delta_scale)
        train = cli_call(self.cli, "train", ["train", "--dataset", self.csv, "--label", "value",
                                   "--algorithm", algo, "--seed", seed, "--delta-scale", delta,
                                   "--quiet", "--out", self.model])
        if train.status != "ok":
            yield train
            return
        with open(self.model, encoding="utf-8") as f:
            model = json.load(f)
        yield judged(train, checks.check_model(model, self.X, self.y, self.delta_scale))
        attack = cli_call(self.cli, "attack", ["attack", "--model", self.model, "--test", self.csv,
                                     "--seed", seed, "--delta-scale", delta,
                                     "--quiet", "--out", self.attacked])
        if attack.status == "ok":
            attack = judged(attack, checks.check_attacked_csv(
                self.attacked, self.header, model, self.X, self.y, 1.0, self.delta_scale))
        yield attack


class Certify(Workload):
    """One op is a round of `run_checks([name])` over every core certificate."""

    name = "certify"
    rounds_per_block = 1
    trials = 50

    def __init__(self, advreg, workdir, seed):
        self.seed = seed
        self.verify = advreg.verify
        self.names = list(advreg.verify.CORE_CHECKS)
        # the largest instance the envelope allows, per trial
        env = advreg.verify.ENVELOPE
        self.input_bytes = env["m_max"] * env["d_max"] * 8
        list(self.run_round(0, WARM_UP))

    def run_round(self, r, stream=ROUNDS):
        seed = derived(self.seed, r, stream)
        reports = []
        t0 = time.perf_counter()
        for name in self.names:
            op, rep = timed_call("certify", self.verify.run_checks, [name], self.trials, seed)
            if op.status != "ok":
                yield op._replace(seconds=time.perf_counter() - t0)
                return
            reports.extend(rep)
        op = Op("certify", time.perf_counter() - t0, "ok", None)
        yield judged(op, checks.check_reports(reports, self.names, self.trials))


class BallEquilibrium(Workload):
    """`solve_equilibrium` with the feasible ball binding, so PGD runs.

    A round solves the 12 instances of one split index: both bundled
    datasets, raw and standardized, at rho in {0.25, 0.5, 0.75} times the
    unconstrained equilibrium norm. Game: criterion 5's n=5, beta=0.8,
    lam=1 with offset targets (wine delta 5 clipped at 10, housing delta 2).
    """

    name = "ball-equilibrium"
    rounds_per_block = 1
    splits = 6
    # fixed rounds: whether a solve hits the cap depends on its instance only
    seconds_per_round = 4.0
    rhos = (0.25, 0.5, 0.75)
    game = {"n": 5, "beta": 0.8, "lam": 1.0}
    targets = {"wine_like": {"delta_scale": 5.0, "clip_max": 10.0},
               "housing_like": {"delta_scale": 2.0}}

    def __init__(self, advreg, workdir, seed):
        self.seed = seed
        self.advreg = advreg
        data = advreg.data
        self.rounds = []
        self.input_bytes = 0
        datasets = {name: advreg.synthetic.load_bundled(name) for name in self.targets}
        for k in range(self.splits):
            instances = []
            for name, ds in datasets.items():
                train, _ = data.split_train_test(ds, 0.5, derived(seed, k))
                for standardize in (False, True):
                    X = train.X
                    if standardize:
                        X = data.apply_standardizer(data.fit_standardizer(X), X)
                    y = train.y
                    z = data.build_target(y, data.TargetSpec(**self.targets[name]),
                                          data.label_stats(y)[1])
                    free = advreg.equilibrium.solve_equilibrium(X, y, self._params(z, None))
                    norm = float(np.sqrt(free.s_star))
                    for rho in self.rhos:
                        instances.append((X, y, z, rho * norm))
                    if k == 0:
                        self.input_bytes += X.size * 8
            self.rounds.append(instances)
        # warm-up on the cheapest instance only: a capped solve takes seconds
        self._solve(*self.rounds[0][0])

    def _params(self, z, radius):
        return self.advreg.game.GameParams(z=z, theta_radius=radius, **self.game)

    def _solve(self, X, y, z, radius):
        op, sol = timed_call("solve", self.advreg.equilibrium.solve_equilibrium,
                             X, y, self._params(z, radius))
        if op.status != "ok":
            return op
        if not sol.converged:
            return op._replace(status="failed",
                               reason=f"not converged after {sol.iterations} iterations")
        return judged(op, checks.check_equilibrium(
            sol.theta_star, X, y, z, self.game["n"], self.game["beta"], self.game["lam"],
            radius))

    def run_round(self, r):
        for inst in self.rounds[r % self.splits]:
            yield self._solve(*inst)


WORKLOADS = {w.name: w for w in (SweepMismatch, CliOps, Certify, BallEquilibrium)}
