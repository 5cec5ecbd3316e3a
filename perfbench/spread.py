"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 --workloads sweep cli
    python3 perfbench/spread.py --runs 10 --baseline perfbench/baseline.json

For every workload this runs perfbench/run.py once per seed (--trace 0) and
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile range over the median, from statistics.quantiles(n=4)),
marking spreads above a third of the metric's bound in BENCHMARK.json.
It then runs the traced run twice on seed 0 and checks that every count
repeats exactly. With --baseline it also writes the medians, the traced
numbers and a record of the machine to that file. The exit code is 1 if an
operation failed, a spread exceeds its bound or a count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import machine_record

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
TRACED_RUNS = 2


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False
    )
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {completed.returncode}:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(completed.stdout, file=sys.stderr)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds 0 .. runs-1")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--baseline", default=None, help="write the results to this JSON file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    record = {"machine": machine_record(), "run_seconds": seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for workload in args.workloads:
        started = time.perf_counter()
        results = [run_once(workload, seed, seconds, 0) for seed in range(args.runs)]
        summary = {
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "end_to_end": {},
        }
        print(f"{workload}: {args.runs} runs in {time.perf_counter() - started:.0f} s, "
              f"{summary['failed']} of {summary['attempted']} operations failed")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            flag = "" if spread <= bound / 3 else (" > bound/3" if spread <= bound else " > BOUND")
            if spread > bound:
                ok = False
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:18s} median {median:.6g} {unit:5s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} (bound {bound}){flag}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in values))
            summary["end_to_end"][name] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3, "spread": spread,
            }
        traced = [run_once(workload, 0, seconds, 1) for _ in range(TRACED_RUNS)]
        counted = [
            name for name, m in traced[0]["metrics"].items() if m["unit"] in ("count", "bytes")
        ]
        repeat = all(t["metrics"][n] == traced[0]["metrics"][n] for t in traced for n in counted)
        print(f"  traced counts repeat exactly across {len(traced)} runs: {repeat}")
        summary["per_layer"] = {
            name: {"unit": m["unit"], "value": m["value"]} for name, m in traced[0]["metrics"].items()
        }
        summary["per_layer_counts_repeat"] = repeat
        if summary["failed"] or any(t["failed"] for t in traced) or not repeat:
            ok = False
        record["workloads"][workload] = summary
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
