"""Per-layer metrics of a traced block, and the layers each workload should move.

Layers are the advreg modules; `synthetic` runs only in set-up and
`exceptions` does no work, so neither is traced.
"""

import statistics

from tracer import LAYERS

NS = 1e-9


def _solution(tracer, args, kwargs, sol, dur_ns, outermost):
    # only solutions handed to a caller outside the equilibrium module count
    if outermost:
        tracer.count("equilibrium.solutions")
        tracer.count("equilibrium.iterations", sol.iterations)
        tracer.count("equilibrium.unconverged", int(not sol.converged))
        tracer.count("equilibrium.pgd_solutions", int(sol.solver == "pgd"))


def _rows(tracer, args, kwargs, dataset, dur_ns, outermost):
    tracer.count("data.rows_parsed", dataset.m)


def _bytes(tracer, args, kwargs, text, dur_ns, outermost):
    tracer.count("serialize.bytes_written", len(text.encode("utf-8")))


def _reports(tracer, args, kwargs, reports, dur_ns, outermost):
    tracer.count("verify.trials", sum(r.trials for r in reports))
    tracer.count("verify.failures", sum(r.failures for r in reports))


def _sweep(tracer, args, kwargs, grid, dur_ns, outermost):
    jobs = kwargs.get("jobs", args[7] if len(args) > 7 else None)
    tracer.count("evaluate.pool_capacity_ns", max(1, int(jobs or 1)) * dur_ns)


HOOKS = {
    "equilibrium.solve_equilibrium": _solution,
    "equilibrium.solve_equilibrium_bisection": _solution,
    "equilibrium.solve_equilibrium_pgd": _solution,
    "data.load_csv": _rows,
    "serialize.write_json": _bytes,
    "serialize.write_csv": _bytes,
    "verify.run_checks": _reports,
    "evaluate.run_sweep": _sweep,
}

# name -> (unit, better, kind); kind "count" must repeat exactly between runs
SPEC = {}
for _layer in LAYERS:
    SPEC[f"{_layer}.calls"] = ("count", "lower", "count")
    SPEC[f"{_layer}.busy_s"] = ("s", "lower", "time")
    SPEC[f"{_layer}.self_s"] = ("s", "lower", "time")
for _fn in ("baselines.cross_validate", "baselines.fit_lasso", "equilibrium.solve_equilibrium",
            "linalg.solve_spd", "linalg.pd_check", "linalg.sym_eig",
            "game.attacker_best_response", "data.load_csv", "evaluate.run_scenario"):
    SPEC[f"{_fn}.calls"] = ("count", "lower", "count")
    SPEC[f"{_fn}.s"] = ("s", "lower", "time")
for _fn in ("baselines.fit_ridge", "linalg.rank_one_inverse_update", "game.approx_cost",
            "cli.main"):
    SPEC[f"{_fn}.calls"] = ("count", "lower", "count")
SPEC.update({
    "baselines.lasso_cap_hits": ("count", "lower", "count"),
    "equilibrium.iterations": ("count", "lower", "count"),
    "equilibrium.pgd_share": ("ratio", "lower", "count"),
    "equilibrium.unconverged": ("count", "lower", "count"),
    "equilibrium.cap_hits": ("count", "lower", "count"),
    "data.rows_parsed": ("count", "lower", "count"),
    "serialize.write.calls": ("count", "lower", "count"),
    "serialize.write.s": ("s", "lower", "time"),
    "serialize.bytes_written": ("B", "lower", "count"),
    "evaluate.run_sweep.s": ("s", "lower", "time"),
    "evaluate.pool_busy_frac": ("ratio", "higher", "time"),
    "verify.run_checks.s": ("s", "lower", "time"),
    "verify.trials": ("count", "higher", "count"),
    "verify.failures": ("count", "lower", "count"),
})
TRACE_OVERHEAD = ("trace_overhead_frac", "ratio", "lower")

# layer -> workloads on which its metrics should move an end-to-end metric
MOVES = {
    "baselines": ("sweep-mismatch", "cli-ops"),
    "equilibrium": ("ball-equilibrium", "certify"),
    "linalg": ("certify", "ball-equilibrium"),
    "game": ("certify", "cli-ops"),
    "data": ("cli-ops",),
    "serialize": ("cli-ops",),
    "cli": ("cli-ops",),
    "evaluate": ("sweep-mismatch",),
    "verify": ("certify",),
}
# layers a workload never reaches
NEVER = {
    "certify": ("baselines", "data", "serialize", "evaluate", "cli"),
    "ball-equilibrium": ("baselines", "serialize", "evaluate", "cli", "verify"),
}


def metrics(snapshot, caps):
    """Every SPEC metric of one traced block, as name -> value."""
    stats, layers, counters, _, _ = snapshot

    def fn(key):
        return stats.get(key, (0, 0, 0))

    out = {}
    for layer in LAYERS:
        calls, busy, self_ns = layers.get(layer, (0, 0, 0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.busy_s"] = busy * NS
        out[f"{layer}.self_s"] = self_ns * NS
    for name in SPEC:
        base, _, field = name.rpartition(".")
        if "." not in base:
            continue
        if field == "calls":
            out[name] = fn(base)[0]
        elif field == "s":
            out[name] = fn(base)[1] * NS
    writes = [fn("serialize.write_json"), fn("serialize.write_csv")]
    solutions = counters.get("equilibrium.solutions", 0)
    capacity = counters.get("evaluate.pool_capacity_ns", 0)
    out.update({
        "baselines.lasso_cap_hits": caps.get("MaxSweepsExceeded", 0),
        "equilibrium.iterations": counters.get("equilibrium.iterations", 0),
        "equilibrium.pgd_share": (counters.get("equilibrium.pgd_solutions", 0) / solutions
                                  if solutions else 0.0),
        "equilibrium.unconverged": counters.get("equilibrium.unconverged", 0),
        "equilibrium.cap_hits": caps.get("MaxItersExceeded", 0),
        "data.rows_parsed": counters.get("data.rows_parsed", 0),
        "serialize.write.calls": sum(w[0] for w in writes),
        "serialize.write.s": sum(w[1] for w in writes) * NS,
        "serialize.bytes_written": counters.get("serialize.bytes_written", 0),
        "evaluate.run_sweep.s": fn("evaluate.run_sweep")[1] * NS,
        "evaluate.pool_busy_frac": (fn("evaluate.run_scenario")[1] / capacity
                                    if capacity else 0.0),
        "verify.run_checks.s": fn("verify.run_checks")[1] * NS,
        "verify.trials": counters.get("verify.trials", 0),
        "verify.failures": counters.get("verify.failures", 0),
    })
    return out


def count_mismatches(blocks):
    """Names of count metrics that differ between traced blocks."""
    return [name for name, (_, _, kind) in SPEC.items()
            if kind == "count" and len({b[name] for b in blocks}) > 1]


def median_block(blocks):
    """Counts from the first block (they repeat); times as medians over blocks."""
    out = {}
    for name, (unit, _, kind) in SPEC.items():
        values = [b[name] for b in blocks]
        out[name] = (values[0] if kind == "count" else statistics.median(values), unit)
    return out
