"""Repeat benchmark runs and summarise each metric.

    python3 perfbench/repeat.py --runs 10 --out set1.json
    python3 perfbench/repeat.py --runs 10 --out set2.json
    python3 perfbench/repeat.py --compare set1.json set2.json

Each run is a fresh, untraced `run.py` process; the workloads take turns.
Run k of every set uses seed k, so two sets run exactly the same inputs, and
the seeds differ only in the input state, not in the operations.  For every
workload and metric the summary gives the median, the quartiles
(`statistics.quantiles(n=4)`) and the spread, (Q3 - Q1) / median, which is
what the bounds in BENCHMARK.json are set against.  `--compare` prints, per
metric, how far the second set's median lies from the first's, in the
metric's worse direction.  Result files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def collect(workloads, runs: int, seconds: float) -> dict:
    """Run k of every workload, then run k+1, so each set spans the same time."""
    results = {workload: [] for workload in workloads}
    for seed in range(1, runs + 1):
        for workload in workloads:
            result = run_once(workload, seed, seconds)
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
    summary = {}
    for workload, runs_of in results.items():
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs_of])
                   for name in runs_of[0]["metrics"]}
        summary[workload] = {
            "correct": all(r["correct"] for r in runs_of),
            "failed_share": [r["failed"] / r["attempted"] for r in runs_of],
            "attempted": [r["attempted"] for r in runs_of],
            "metrics": metrics,
        }
    return summary


def print_summary(summary: dict) -> None:
    for workload, entry in summary.items():
        print(f"{workload}: correct={entry['correct']} "
              f"attempted={min(entry['attempted'])}..{max(entry['attempted'])}")
        for name, s in entry["metrics"].items():
            print(f"  {name:32s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:7.2%}")


def compare(first: dict, second: dict) -> None:
    for workload, entry in second.items():
        print(workload)
        for name, s in entry["metrics"].items():
            base = first[workload]["metrics"][name]["median"]
            shift = (s["median"] - base) / base if base else 0.0
            if BETTER.get(name) == "higher":
                shift = -shift
            print(f"  {name:32s} worse by {shift:+8.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out", help="file name under perfbench/out/ for the summary")
    parser.add_argument("--compare", nargs=2, metavar="SET")
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads((OUT / name).read_text()) for name in args.compare)
        compare(first, second)
        return 0
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    summary = collect(workloads, args.runs, args.seconds)
    print_summary(summary)
    if args.out:
        OUT.mkdir(exist_ok=True)
        (OUT / args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
