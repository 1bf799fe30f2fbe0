#!/usr/bin/env python3
"""Run bench/run.py once per seed and summarise the spread of each metric.

    python3 bench/repeat.py --workload proof-k3 --seeds 1-10 --seconds 15 --trace 0

Runs are made one after another.  For each metric it prints the median,
the quartiles by statistics.quantiles(values, n=4) and the distance
between them as a share of the median, which is the spread the
benchmark's bounds are compared with.  The raw results are written to
.bench_build/vdwbench/results/<workload>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".bench_build" / "vdwbench" / "results"


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)

    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {first['unit']}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
