#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10]

Runs each workload once per seed (1..runs) through perfbench/run.py,
untraced and for BENCHMARK.json's run_seconds, and prints for every
end-to-end metric its median and its interquartile range as a share of
the median, computed with statistics.quantiles(values, n=4) - the
spread BENCHMARK.json's bounds are judged against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit("%s seed %d: incorrect result" % (w, seed))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / q[1]
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("%-18s %-20s median %12.4f  spread %6.3f  bound %.2f"
                  % (w, name, statistics.median(vals), spread,
                     bounds[name]), flush=True)
    print("largest spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
