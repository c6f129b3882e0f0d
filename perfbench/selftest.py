"""Self-test of the benchmark itself, from the repository root:

    python3 perfbench/selftest.py

1. Every output checker accepts a real program output and rejects a
   corrupted copy of it (a perturbed coefficient, attacked row, RMSE or
   certificate report), so `correct` and `failed` can be trusted.
2. One traced block of each workload records nonzero calls in every layer
   listed as moving an end-to-end metric on it, and zero calls in the
   layers it never reaches, so a missed rebinding cannot read as zero.
3. BENCHMARK.json lists exactly the metrics the benchmark prints.

Exits nonzero on the first failed assertion.
"""

import csv
import json
import shutil
import sys
import tempfile

sys.dont_write_bytecode = True

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def expect(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def accepts_then_rejects(name, check, good, bad):
    reason = check(good)
    expect(reason is None, f"{name}: real output accepted" + (f" ({reason})" if reason else ""))
    reason = check(bad)
    expect(reason is not None, f"{name}: corrupted output rejected ({reason})")


def bump_largest(theta, rel):
    theta = np.array(theta, dtype=float)
    j = int(np.argmax(np.abs(theta)))
    theta[j] *= 1.0 + rel
    return theta


def test_cli_checks(advreg, workdir):
    wl = workloads.CliOps(advreg, workdir, seed=0)
    for r, algo in enumerate(wl.algorithms):
        ops = wl.run_round(r)
        expect([op.status for op in ops] == ["ok", "ok"], f"{algo}: train and attack pass")
        with open(wl.model, encoding="utf-8") as f:
            model = json.load(f)
        bad = dict(model, theta=list(bump_largest(model["theta"], 1e-3)))
        accepts_then_rejects(
            f"{algo} model", lambda m: checks.check_model(m, wl.X, wl.y, wl.delta_scale),
            model, bad)

    def attacked_ok(path):
        return checks.check_attacked_csv(path, wl.header, model, wl.X, wl.y, 1.0,
                                         wl.delta_scale)

    with open(wl.attacked, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    rows[3][0] = repr(float(rows[3][0]) * (1.0 + 1e-6))
    corrupted = wl.attacked + ".bad.csv"
    with open(corrupted, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)
    accepts_then_rejects("attacked CSV", attacked_ok, wl.attacked, corrupted)


def test_sweep_checks(advreg, workdir):
    wl = workloads.SweepMismatch(advreg, workdir, seed=0)

    def sweep_ok(path):
        return checks.check_sweep_csv(path, wl.lambda_grid, wl.beta_grid)

    with open(wl.out, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    perturbed = [list(r) for r in rows]
    perturbed[5][5] = repr(float(perturbed[5][5]) * (1.0 + 1e-6))
    for label, bad_rows in (("perturbed RMSE", perturbed), ("missing row", rows[:-1])):
        path = f"{wl.out}.{len(bad_rows)}.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            csv.writer(f).writerows(bad_rows)
        accepts_then_rejects(f"sweep CSV, {label}", sweep_ok, wl.out, path)


def test_certificate_checks(advreg):
    names = ["sherman_morrison", "rosen_pd"]
    reports = advreg.verify.run_checks(names, trials=5, seed=0)

    def reports_ok(reps):
        return checks.check_reports(reps, names, 5)

    failing = [reports[0], advreg.verify.CheckReport("rosen_pd", 5, 1, 0.1)]
    short = [reports[0], advreg.verify.CheckReport("rosen_pd", 4, 0, -0.1)]
    accepts_then_rejects("certificate reports, a failure", reports_ok, reports, failing)
    accepts_then_rejects("certificate reports, too few trials", reports_ok, reports, short)


def test_boundary_check(advreg, workdir):
    wl = workloads.BallEquilibrium(advreg, workdir, seed=0)
    X, y, z, radius = wl.rounds[0][0]
    params = advreg.game.GameParams(z=z, theta_radius=radius, **wl.game)
    sol = advreg.equilibrium.solve_equilibrium(X, y, params)
    expect(sol.converged and sol.on_boundary, "ball instance converges on the boundary")

    def ball_ok(theta):
        return checks.check_equilibrium(theta, X, y, z, wl.game["n"], wl.game["beta"],
                                        wl.game["lam"], radius)

    theta = sol.theta_star
    tilted = theta + 1e-3 * np.linalg.norm(theta) * np.eye(theta.size)[0]
    tilted *= radius / np.linalg.norm(tilted)
    accepts_then_rejects("boundary solution, rotated on the sphere", ball_ok, theta, tilted)
    accepts_then_rejects("boundary solution, outside the ball", ball_ok, theta,
                         theta * (1.0 + 1e-6))


def test_layer_coverage(advreg):
    for name, cls in workloads.WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        try:
            wl = cls(advreg, workdir, seed=0)
            tracer = Tracer(layers.HOOKS)
            tracer.install()
            try:
                run.run_rounds(wl, range(wl.rounds_per_block))
            finally:
                tracer.uninstall()
            m = layers.metrics(tracer.snapshot(), {})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for layer, moved_on in layers.MOVES.items():
            if name in moved_on:
                expect(m[f"{layer}.calls"] > 0, f"{name}: {layer} records calls "
                                                f"({m[f'{layer}.calls']})")
        for layer in layers.NEVER.get(name, ()):
            expect(m[f"{layer}.calls"] == 0, f"{name}: {layer} is never called")
    expect(advreg.linalg.solve_spd is tracer.wrapped["linalg.solve_spd"]
           and advreg.baselines.solve_spd is tracer.wrapped["linalg.solve_spd"],
           "uninstall restores every rebinding")


def test_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    want = {name: (unit, better) for name, (unit, better, _) in layers.SPEC.items()}
    name, unit, better = layers.TRACE_OVERHEAD
    want[name] = (unit, better)
    expect(per_layer == want, "BENCHMARK.json per_layer matches the traced metrics")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(e2e == {k: u for k, (_, u) in run.end_to_end(
        [workloads.Op("x", 1.0, "ok", None)], 1.0).items()},
        "BENCHMARK.json end_to_end matches the printed metrics")
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads match run.py's")


def main():
    advreg = run.load_advreg()
    if advreg is None:
        return 2
    run.WarningCounter([advreg.MaxItersExceeded, advreg.MaxSweepsExceeded])
    run.OUT.mkdir(exist_ok=True)
    test_benchmark_json()
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        test_certificate_checks(advreg)
        test_cli_checks(advreg, workdir)
        test_sweep_checks(advreg, workdir)
        test_boundary_check(advreg, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    test_layer_coverage(advreg)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
