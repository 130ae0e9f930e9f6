"""qclite benchmark: end-to-end metrics per workload, or a traced layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]    # every workload, both modes

`--seconds` defaults to `run_seconds` in BENCHMARK.json.  The seed picks the
input state; every seed runs the same operations.

With a workload named, the run measures that workload in this process and
prints one JSON object as its last line: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`).  Without one, each workload runs in a fresh child process, once
untraced and once traced, and the metrics are printed as a table.

qclite is imported from `src/` of the checkout that holds this file; the run
stops with an error if it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One thread for NumPy's BLAS, so the load is a single thread; set before import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def import_qclite() -> None:
    src = ROOT / "src"
    if not (src / "qclite" / "__init__.py").is_file():
        sys.exit(f"run.py: no qclite sources under {src}")
    sys.path.insert(0, str(src))
    import qclite
    if Path(qclite.__file__).resolve().parent != src / "qclite":
        sys.exit(f"run.py: qclite was imported from {qclite.__file__}, not {src}")


def run_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def run_all(names, seed: int, seconds: float) -> int:
    """Every workload in its own child process, untraced then traced."""
    status = 0
    for name in names:
        for traced in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} ({'traced' if traced else 'untraced'}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
            if not result["correct"] or result["failed"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload to run in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_qclite()
    import harness      # imports qclite, so only once src/ is on the path

    if args.workload is None:
        return run_all(harness.WORKLOADS, args.seed, args.seconds)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")
    print(json.dumps(harness.run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
