#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads sweep-scan oracle --seeds 1-10

runs perfbench/run.py once per (workload, seed) with the run length
from BENCHMARK.json and prints, per metric, the median, the first and
third quartiles (statistics.quantiles, n=4) and the inter-quartile
range as a share of the median next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        attempted = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
            if out.returncode != 0:
                sys.exit("%s seed %d failed:\n%s" % (workload, seed, out.stderr))
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit("%s seed %d: %d ops failed" % (
                    workload, seed, result["failed"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            attempted.append(result["attempted"])
        print("%s (%d seeds), ops attempted: %s" % (
            workload, len(args.seeds), " ".join(map(str, attempted))))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bounds[name])
            print("  %-12s median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %6.2f%% (bound %4.0f%%)" % (
                      name, med, q1, q3, 100 * spread, 100 * bounds[name]))
            print("    runs: " + " ".join("%.6g" % v for v in vals))
        sys.stdout.flush()
    print("worst spread / bound: %.2f" % worst)


if __name__ == "__main__":
    main()
