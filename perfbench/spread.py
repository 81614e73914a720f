#!/usr/bin/env python3
"""Run the benchmark on several seeds and report, for each end-to-end metric,
the median and the spread (q3 - q1) / median of its values, with quartiles
from statistics.quantiles(values, n=4).  Also checks each spread against a
third of the metric's bound in BENCHMARK.json, and prints the wall time of each
workload's runs.

    python3 perfbench/spread.py --workload verify --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/spread.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(tokens):
    seeds = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", nargs="+", default=["1-10"])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, steady = {}, True
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        wall = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload]
            cmd += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: failed ({proc.returncode})", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {"run_wall_s": wall}
        print(f"{workload:<13} wall time per run: max {max(wall):.1f} s, mean "
              f"{statistics.fmean(wall):.1f} s")
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            ok = spread < bounds[name] / 3
            steady &= ok
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": xs,
            }
            print(f"{workload:<13} {name:<12} median {median:<12.6g} spread {spread:8.4f} "
                  f"bound/3 {bounds[name] / 3:.4f} {'ok' if ok else 'WIDE'}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
