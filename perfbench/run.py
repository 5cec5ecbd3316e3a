"""Benchmark runner: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ./src. With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

End-to-end numbers are measured with nothing patched. Their times are
corrected for the host's drifting speed, which a fixed pure-Python loop
measures between operations (see calibrate and ELASTICITY). The traced run
alternates untraced and traced passes over a fixed list of operations, so
its counts repeat exactly for a given seed; trace.overhead_frac compares
the two kinds of pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one process drives the load; one BLAS thread keeps it within the cores.
# Set before numpy is imported, and inherited by the set-up subprocesses.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# The host's speed drifts by up to 40% over minutes, and the interpreter-
# bound work of the workloads drifts with it. A fixed pure-Python loop
# (calibrate) runs between operations at least every CALIBRATE_EVERY_S; its
# median time in a run over CALIBRATION_NOMINAL_S (its median on the
# machine in baseline.json) is the run's slowness. Each time metric is
# divided by slowness ** ELASTICITY[name] (throughput multiplied): over 40
# runs of 4 workloads, set-up time, throughput and median latency followed
# the loop with an elasticity of about 1, and the tail latency, which
# belongs to each workload's heaviest and most numpy-bound calls, with 0.1
# to 0.8.
CALIBRATE_EVERY_S = 0.25
CALIBRATION_NOMINAL_S = 3.4e-3
ELASTICITY = {"setup_s": 1.0, "items_per_s": 1.0, "op_p50_ms": 1.0, "op_tail_ms": 0.5}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="build the inputs and exit (times setup_s)"
    )
    return parser.parse_args(argv)


class Tally:
    """Operations attempted, failures, latencies and per-fit accuracy."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.busy_s = 0.0
        self.latencies = []
        self.kinds = []
        self.errors = []
        self.recovered = []
        self.problems = []

    def add(self, op, latency, outcome):
        self.attempted += 1
        self.items += outcome.items
        self.busy_s += latency
        self.latencies.append(latency)
        self.kinds.append(op.kind)
        self.errors += outcome.errors
        self.recovered += outcome.recovered
        if outcome.problems:
            self.fail(f"{op.kind}: {'; '.join(outcome.problems)}")

    def fail(self, problem):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


def run_op(op, tracer=None):
    """Time op.call (inside a root span when tracing), then check its output."""
    from workloads import INF, Outcome

    start = time.perf_counter()
    try:
        if tracer is None:
            raw = op.call()
        else:
            root = "cli.main" if op.kind.startswith("cli.") else "op"
            with tracer.span(root, op.kind):
                raw = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        latency = time.perf_counter() - start
        return latency, Outcome(0, [INF], [False], [f"raised {type(exc).__name__}: {exc}"], "")
    latency = time.perf_counter() - start
    try:
        outcome = op.check(raw)
    except Exception as exc:  # a malformed result is a failed check
        outcome = Outcome(0, [INF], [False], [f"check raised {type(exc).__name__}: {exc}"], "")
    return latency, outcome


def rerun_first(workload, tally, fingerprint):
    """Determinism check: op 0 again, bit-identical result required."""
    op = workload.op(0)
    _, outcome = run_op(op)
    tally.attempted += 1
    if outcome.problems or outcome.fingerprint != fingerprint:
        tally.fail(f"{op.kind}: rerun of the first operation differs from its first run")


def tail_percentile(latencies):
    """Highest integer percentile with at least 10 operations beyond it.

    Returns (percentile, value, operations beyond). Nearest-rank values.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    best = (0, ordered[0], n - 1)
    for p in range(1, 100):
        rank = math.ceil(p * n / 100)
        value = ordered[rank - 1]
        beyond = sum(1 for x in ordered if x > value)
        if beyond < 10:
            break
        best = (p, value, beyond)
    return best


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop.

    It uses nothing from the library, so a change to the library cannot
    change it; only the host's speed does.
    """
    start = time.perf_counter()
    total = 0
    for i in range(40000):
        total += i * i % 7
    return time.perf_counter() - start


def setup_once(args):
    """Wall time of one fresh interpreter that imports artifact and builds the inputs."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    start = time.perf_counter()
    # no timeout: waiting with one polls in steps of up to 50 ms
    subprocess.run(command, cwd=ROOT, check=True)
    return time.perf_counter() - start


def timed_run(workload, seconds, time_setup):
    """Run whole cycles of operations for `seconds`.

    Returns the tally, the set-up times and the calibration times.
    Stopping only at the end of a cycle gives every run the same mix of
    operations, so where the deadline falls cannot change the figures.
    SETUP_REPEATS calls of time_setup() are spread over the run at cycle
    boundaries, so setup_s sees the machine in the same states as the
    operations do; the deadline moves back by the time they take.
    """
    tally = Tally()
    setups = []
    calibrations = []
    calibrated = -math.inf
    due = time.perf_counter()
    deadline = due + seconds
    first = None
    k = 0
    while k == 0 or k % workload.cycle_ops or time.perf_counter() < deadline:
        boundary = k % workload.cycle_ops == 0
        if boundary and len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
            setups.append(time_setup())
            deadline += setups[-1]
            due = time.perf_counter() + seconds / SETUP_REPEATS
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            calibrations.append(calibrate())
            calibrated = time.perf_counter()
        op = workload.op(k)
        latency, outcome = run_op(op)
        tally.add(op, latency, outcome)
        if first is None:
            first = outcome.fingerprint
        k += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup())
    rerun_first(workload, tally, first)
    return tally, setups, calibrations


def end_to_end(setups, tally, calibrations):
    p, tail, beyond = tail_percentile(tally.latencies)
    slowness = statistics.median(calibrations) / CALIBRATION_NOMINAL_S
    raw = {
        "setup_s": statistics.median(setups),
        "items_per_s": tally.items / tally.busy_s,
        "op_p50_ms": statistics.median(tally.latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
    }
    scaled = {
        name: value * slowness ** (ELASTICITY[name] if name == "items_per_s" else -ELASTICITY[name])
        for name, value in raw.items()
    }
    notes = [
        f"slowness {slowness:.4f}: median of {len(calibrations)} calibrations "
        f"{statistics.median(calibrations) * 1e3:.4f} ms, nominal {CALIBRATION_NOMINAL_S * 1e3:g} ms; "
        "unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
        f"operations timed: {len(tally.latencies)}; op_tail_ms is p{p}, "
        f"{beyond} operations beyond it",
        f"failed_frac: {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted} operations)",
        f"fits: {len(tally.errors)}, recovered {sum(tally.recovered)}",
    ]
    for kind in sorted(set(tally.kinds)):
        own = [t for t, k in zip(tally.latencies, tally.kinds) if k == kind]
        notes.append(f"  {kind}: {len(own)} operations, median {statistics.median(own) * 1e3:.4g} ms")
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "items_per_s": (scaled["items_per_s"], "1/s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_tail_ms": (scaled["op_tail_ms"], "ms"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "recovered_frac": (sum(tally.recovered) / len(tally.recovered), "1"),
        "median_rel_error": (statistics.median(tally.errors), "1"),
    }
    return metrics, notes


def traced_run(workload, seconds, artifact):
    """Alternate untraced and traced passes over one cycle of operations."""
    from spans import Tracer, instrument

    tracer = Tracer()
    tally = Tally()
    plain = {"items": 0, "busy": 0.0}
    traced = {"items": 0, "busy": 0.0}
    snapshots = []
    first = None
    deadline = time.perf_counter() + seconds
    missing = []
    while not snapshots or time.perf_counter() < deadline:
        for use_tracer, sums in ((False, plain), (True, traced)):
            if use_tracer:
                missing = instrument(tracer, artifact)
                tracer.reset_totals()
            try:
                for k in range(workload.cycle_ops):
                    op = workload.op(k)
                    tracer.op_id = k
                    latency, outcome = run_op(op, tracer if use_tracer else None)
                    tally.add(op, latency, outcome)
                    first = outcome.fingerprint if first is None else first
                    sums["items"] += outcome.items
                    sums["busy"] += latency
                    if use_tracer:
                        for key, value in outcome.counters.items():
                            tracer.counts[key] += value
            finally:
                tracer.restore()
            if use_tracer:
                snapshots.append(
                    {
                        "calls": dict(tracer.calls),
                        "self_s": dict(tracer.self_s),
                        "total_s": dict(tracer.total_s),
                        "counts": dict(tracer.counts),
                        "durations": {k: list(v) for k, v in tracer.durations.items()},
                    }
                )
    rerun_first(workload, tally, first)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    spans = tracer.write(out / f"trace-{workload.name}.npz")
    overhead = 1.0 - (traced["items"] / traced["busy"]) / (plain["items"] / plain["busy"])
    metrics = layer_metrics(snapshots, overhead)
    if any((s["calls"], s["counts"]) != (snapshots[0]["calls"], snapshots[0]["counts"]) for s in snapshots):
        tally.fail("counts differ between identical traced passes")
    notes = [
        f"{len(snapshots)} traced passes of {workload.cycle_ops} operations each; "
        f"{spans} spans written to .perfbench/trace-{workload.name}.npz",
        "vorticity.field_mb_computed is computed from array sizes (Laplacian and target per pass)",
    ]
    if missing:
        notes.append(f"not patched (name no longer looked up there): {', '.join(missing)}")
    return metrics, notes, tally


def layer_metrics(snapshots, overhead):
    """Per-layer metrics: counts from the first traced pass, times as medians over passes."""

    def median(fn):
        return statistics.median(fn(s) for s in snapshots)

    def self_s(name):
        return lambda s: s["self_s"].get(name, 0.0)

    def calls(name):
        return snapshots[0]["calls"].get(name, 0)

    def count(key):
        return snapshots[0]["counts"].get(key, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    steps = count("integrator.steps")
    solves = calls("regression.solve")
    metrics = {
        "models.build_matrix.calls": (calls("models.build_matrix"), "count"),
        "models.build_matrix.self_s": (median(self_s("models.build_matrix")), "s"),
        "integrator.steps": (steps, "count"),
        "integrator.simulate.self_s": (median(self_s("integrator.simulate")), "s"),
        "integrator.us_per_step": (
            median(lambda s: ratio(s["total_s"].get("integrator.simulate", 0.0), steps)) * 1e6, "us"
        ),
        "differentiation.full_diff.calls": (calls("differentiation.full_diff"), "count"),
        "differentiation.full_diff.self_s": (median(self_s("differentiation.full_diff")), "s"),
        "estimation.assemble.calls": (calls("estimation.assemble"), "count"),
        "estimation.assemble.rows": (count("estimation.assemble.rows"), "count"),
        "estimation.assemble.self_s": (median(self_s("estimation.assemble")), "s"),
        "estimation.rows_per_sample": (
            ratio(count("estimation.assemble.samples"), count("estimation.series_samples")), "1"
        ),
        "estimation.windows.useful_frac": (
            ratio(count("estimation.windows.returned"), count("estimation.windows.solved")), "1"
        ),
        "estimation.estimate_time_varying.self_s": (
            median(self_s("estimation.estimate_time_varying")), "s"
        ),
        "estimation.run_sweep.self_s": (median(self_s("estimation.run_sweep")), "s"),
        "regression.stack_systems.calls": (calls("regression.stack_systems"), "count"),
        "regression.stack_systems.self_s": (median(self_s("regression.stack_systems")), "s"),
        "regression.solve.calls": (solves, "count"),
        "regression.solve.self_s": (median(self_s("regression.solve")), "s"),
        "regression.solve.us_per_call": (
            median(lambda s: ratio(s["total_s"].get("regression.solve", 0.0), solves)) * 1e6, "us"
        ),
        "regression.solve.rank_deficient": (count("regression.solve.rank_deficient"), "count"),
        "vorticity.field_passes": (count("vorticity.field_passes"), "count"),
        "vorticity.field_mb_computed": (count("vorticity.field_bytes") / 1e6, "MB"),
        "vorticity.assemble.self_s": (median(self_s("vorticity.assemble")), "s"),
        "vorticity.sample_sensors.self_s": (median(self_s("vorticity.sample_sensors")), "s"),
        "vorticity.solve.self_s": (median(self_s("vorticity.solve")), "s"),
        "epidemic.load_who_csv.self_s": (median(self_s("epidemic.load_who_csv")), "s"),
        "epidemic.build_sir_states.self_s": (median(self_s("epidemic.build_sir_states")), "s"),
        "config.load_config.self_s": (median(self_s("config.load_config")), "s"),
        "cli.io.self_s": (median(self_s("cli.main")), "s"),
        "cli.bytes_written": (count("cli.bytes_written"), "bytes"),
        "cli.bytes_read": (count("cli.bytes_read"), "bytes"),
        "trace.overhead_frac": (overhead, "1"),
    }
    for command in ("simulate", "estimate", "covid", "reynolds"):
        metrics[f"cli.{command}.p50_ms"] = (
            median(lambda s: statistics.median(s["durations"].get(f"cli.{command}", [0.0]))) * 1e3,
            "ms",
        )
    return metrics


def machine_record():
    """The machine, Python, numpy and BLAS a run measures."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "load": "one benchmark process at a time",
    }


def main(argv=None) -> int:
    args = _parse(argv)
    source = ROOT / "src"
    if not (source / "artifact" / "__init__.py").is_file():
        print(f"error: no library sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import warnings

    import artifact
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if Path(artifact.__file__).resolve().parent != (source / "artifact").resolve():
        print(f"error: artifact imported from {artifact.__file__}", file=sys.stderr)
        return 2
    # rank-deficient windows are reported by warnings; the trace counts them
    warnings.simplefilter("ignore")

    if args.setup_only:
        workloads.make(args.workload, args.seed, str(ROOT)).close()
        return 0
    workload = workloads.make(args.workload, args.seed, str(ROOT))
    try:
        if args.trace:
            metrics, notes, tally = traced_run(workload, args.seconds, artifact)
        else:
            tally, setups, calibrations = timed_run(
                workload, args.seconds, lambda: setup_once(args)
            )
            metrics, notes = end_to_end(setups, tally, calibrations)
    finally:
        workload.close()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine_record().items()))
    for note in notes:
        print(note)
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
