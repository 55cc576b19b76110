"""Run one workload over several seeds and report each metric's median and spread.

    python3 bench/spread.py --workload fit --seeds 1-10 --seconds 20 [--trace 1] [--out FILE]
    python3 bench/spread.py --workload fit --seeds 1,1 --seconds 20 --trace 1

Each run is a separate ``bench/run.py`` process, run one after another. The
spread of a metric is the distance between the first and third quartiles of
its values (``statistics.quantiles(values, n=4)``) as a share of their median.
With ``--out`` the raw results are written as JSON. With ``--trace 1``,
runs with the same seed must report identical count metrics (exit code 1
otherwise); list a seed twice to check that.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    if args.trace == "1":
        by_seed = {}
        for r in runs:
            counts = {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "B")}
            by_seed.setdefault(r["seed"], []).append(counts)
        for seed, repeats in by_seed.items():
            if any(c != repeats[0] for c in repeats[1:]):
                print(f"seed {seed}: count metrics differ between runs", file=sys.stderr)
                return 1
            if len(repeats) > 1:
                print(f"seed {seed}: count metrics identical in {len(repeats)} runs")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        line = f"{name}: median {statistics.median(values)!r} {first['unit']}"
        if len(values) >= 2 and statistics.median(values):
            line += f", spread {spread(values):.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
