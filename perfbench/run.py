"""advreg benchmark: four closed-loop workloads against the package in ``src/``.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-mismatch --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload for ``--seconds`` (ball-equilibrium: for a
fixed number of rounds sized to ``--seconds``) and prints every
end-to-end metric. Times are wall-clock, rescaled to a reference machine
speed measured between operations (see `Speed`); the raw wall-clock values
are printed on the lines above the result. ``--trace 1`` runs a fixed block of the same workload
alternately untraced and traced (wrappers installed from outside the
package, see tracer.py), prints the per-layer metrics of the traced blocks
and the tracing overhead, and writes the first traced block's spans to
``.perfbench/traces/``. Every program output is checked against an
independent numpy reference in both modes. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import itertools
import os
import sys

# one BLAS thread: two sweep workers times OpenBLAS's default would
# oversubscribe a 2-core machine; must be set before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-up repeats: at least this many, and for at least this long
SETUP_MIN = 3
SETUP_SECONDS = 2.0
MIN_TRACE_PAIRS = 2
# a fixed-work run (see workloads.Workload) stops past this many --seconds,
# which keeps a much slower program within the time a run may take
FIXED_WORK_LIMIT = 4
# time of one `Speed` kernel at the reference speed
REFERENCE_KERNEL_S = 0.0005


class WarningCounter:
    """Counts solver cap warnings from every thread instead of printing them."""

    def __init__(self, categories):
        self._categories = {c.__name__ for c in categories}
        self._lock = threading.Lock()
        self._default = warnings.showwarning
        self.counts = {name: 0 for name in self._categories}
        for cat in categories:
            warnings.simplefilter("always", cat)
        warnings.showwarning = self._show

    def _show(self, message, category, filename, lineno, file=None, line=None):
        if category.__name__ in self._categories:
            with self._lock:
                self.counts[category.__name__] += 1
        else:
            self._default(message, category, filename, lineno, file, line)

    def snapshot(self):
        with self._lock:
            return dict(self.counts)


class Speed:
    """Machine speed, sampled with a fixed kernel between operations.

    This host's speed drifts by up to 2x over tens of seconds (other
    tenants share its cores and caches), which would swamp any change in
    advreg. A helper process (kernel.py) times a fixed kernel, best of 3,
    after every operation while this process waits. Each operation's wall
    time is multiplied by REFERENCE_KERNEL_S over the mean of the kernel
    times just before and just after it. The helper shares no threads,
    BLAS or allocator state with advreg; a change that slows the whole
    machine (say, by leaving busy threads behind) slows the kernel too and
    is divided out, which the raw wall-clock line and the median factor
    printed with it show.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("kernel.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self.factors = []
        self._last = self._sample()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def _sample(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed kernel process ended")
        return float(line)

    def scale(self):
        """Factor for the operation that ran since the previous call."""
        now = self._sample()
        factor = REFERENCE_KERNEL_S / (0.5 * (self._last + now))
        self._last = now
        self.factors.append(factor)
        return factor


def machine_record(numpy):
    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the record is informative only
        blas = None
    commit = None
    head = read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        commit = read(ROOT / ".git" / head[5:])
    elif head:
        commit = head
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit or "unknown (not a git checkout)",
    }


def load_advreg():
    """Import advreg from this checkout's src/, or print why not and return None."""
    if not (SRC / "advreg" / "__init__.py").is_file():
        print(f"error: no advreg package under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import advreg
    import advreg.cli  # noqa: F401  (the package does not import it itself)

    if Path(advreg.__file__).resolve().parent != SRC / "advreg":
        print(f"error: imported advreg from {advreg.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return advreg


def timed_setups(cls, advreg, seed, speed):
    """Set the workload up repeatedly, each time in a fresh directory.

    Cheap set-ups are repeated for SETUP_SECONDS so that their median is
    steady. Returns the last instance, its directory and the median set-up
    time, raw and rescaled.
    """
    raw, scaled = [], []
    workdir = None
    start = time.perf_counter()
    while len(raw) < SETUP_MIN or time.perf_counter() - start < SETUP_SECONDS:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        workdir = tempfile.mkdtemp(prefix=f"{cls.name}-", dir=OUT)
        speed.scale()
        t0 = time.perf_counter()
        wl = cls(advreg, workdir, seed)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * speed.scale())
    return wl, workdir, statistics.median(raw), statistics.median(scaled)


def run_rounds(wl, rounds):
    ops = []
    for r in rounds:
        ops.extend(wl.run_round(r))
    return ops


def measure(wl, seconds, speed):
    """Closed loop: one op after another until `seconds` of wall time have passed.

    A workload with a `seconds_per_round` runs round(seconds / seconds_per_round)
    rounds instead, stopping early only past FIXED_WORK_LIMIT times `seconds`.
    Returns the ops with rescaled times and the raw wall times.
    """
    ops, raw = [], []
    speed.scale()
    start = time.perf_counter()
    if wl.seconds_per_round:
        rounds = range(max(1, round(seconds / wl.seconds_per_round)))
        deadline = start + FIXED_WORK_LIMIT * seconds
    else:
        rounds = itertools.count()
        deadline = start + seconds
    for r in rounds:
        for op in wl.run_round(r):
            raw.append(op.seconds)
            ops.append(op._replace(seconds=op.seconds * speed.scale()))
            if time.perf_counter() >= deadline:
                return ops, raw
    return ops, raw


def end_to_end(ops, setup_s):
    ok = [op.seconds for op in ops if op.status == "ok"]
    # a failed op counts as missing every latency limit
    lat = [op.seconds * 1e3 if op.status == "ok" else float("inf") for op in ops]
    return {
        "ops_per_s": (len(ok) / sum(ok) if ok else 0.0, "1/s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(wl, seconds, tracer, warn, trace_path, header):
    """Alternate untraced and traced blocks of the same rounds.

    At least MIN_TRACE_PAIRS pairs, and more until `seconds` have passed,
    except on a fixed-work workload, which does exactly MIN_TRACE_PAIRS.
    Count metrics must repeat exactly from one traced block to the next;
    time metrics are the median over traced blocks.
    """
    import layers

    block = list(range(wl.rounds_per_block))
    ops, blocks, overheads, plain_walls = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(blocks) < MIN_TRACE_PAIRS or (
            not wl.seconds_per_round and time.perf_counter() < deadline):
        plain = run_rounds(wl, block)
        tracer.reset()
        before = warn.snapshot()
        tracer.install()
        try:
            traced = run_rounds(wl, block)
        finally:
            tracer.uninstall()
        after = warn.snapshot()
        caps = {k: after[k] - before[k] for k in after}
        blocks.append(layers.metrics(tracer.snapshot(), caps))
        if len(blocks) == 1:
            header = dict(header, spans_dropped=tracer.snapshot()[4])
            tracer.write_jsonl(trace_path, header)
        plain_s = sum(op.seconds for op in plain)
        plain_walls.append(plain_s)
        overheads.append((sum(op.seconds for op in traced) - plain_s) / plain_s)
        ops.extend(plain + traced)
    mismatched = layers.count_mismatches(blocks)
    metrics = layers.median_block(blocks)
    name, unit, _ = layers.TRACE_OVERHEAD
    metrics[name] = (statistics.median(overheads), unit)
    return ops, metrics, mismatched, len(blocks), statistics.median(plain_walls)


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    advreg = load_advreg()
    if advreg is None:
        return 2
    import numpy

    warn = WarningCounter([advreg.MaxItersExceeded, advreg.MaxSweepsExceeded])
    machine = machine_record(numpy)
    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    with Speed() as speed:
        wl, workdir, raw_setup_s, setup_s = timed_setups(cls, advreg, args.seed, speed)
        try:
            print("machine " + json.dumps(machine, sort_keys=True))
            print(f"input {cls.name}: {wl.input_bytes} bytes (computed as rows x d x 8)")
            if args.trace:
                import layers
                from tracer import Tracer

                trace_dir = OUT / "traces"
                trace_dir.mkdir(exist_ok=True)
                trace_path = trace_dir / f"{cls.name}-seed{args.seed}.jsonl"
                header = {"workload": cls.name, "seed": args.seed, "machine": machine,
                          "rounds": wl.rounds_per_block}
                ops, metrics, mismatched, nblocks, plain_s = traced_run(
                    wl, args.seconds, Tracer(layers.HOOKS), warn, trace_path, header)
                print(f"traced {nblocks} blocks of {wl.rounds_per_block} round(s); untraced block "
                      f"wall {plain_s:.6g} s (base of trace_overhead_frac); "
                      f"spans in {trace_path.relative_to(ROOT)}")
                for name in mismatched:
                    print(f"count mismatch between traced blocks: {name}", file=sys.stderr)
            else:
                ops, raw = measure(wl, args.seconds, speed)
                metrics = end_to_end(ops, setup_s)
                mismatched = []
                wall = end_to_end([op._replace(seconds=t) for op, t in zip(ops, raw)], raw_setup_s)
                print("raw wall-clock: " + ", ".join(
                    f"{name} {value:.6g} {unit}" for name, (value, unit) in wall.items()
                    if name != "peak_rss_mb")
                    + f"; median rescale factor {statistics.median(speed.factors):.6g}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if op.status != "ok"]
    wrong = [op for op in ops if op.status == "wrong"]
    for op in failed[:5]:
        print(f"{op.status} {op.kind}: {op.reason}", file=sys.stderr)
    print(f"fail_frac {len(failed) / len(ops):.6f} ({len(failed)}/{len(ops)} ops; "
          f"{len(wrong)} wrong outputs; cap warnings {warn.snapshot()})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong and not mismatched,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
