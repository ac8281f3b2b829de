#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Run from the repository root:

    python3 servebench/spread.py --seeds 1-10 [--workloads warm_queries,...]
                                 [--seconds 15] [--save runs.json]
                                 [--compare earlier.json]

Runs every (workload, seed) once through servebench/run.py, then prints,
per workload and end-to-end metric, the median and the interquartile
distance as a share of the median (statistics.quantiles(values, n=4)),
next to the metric's bound from BENCHMARK.json. A spread above a third of
the bound is flagged. --compare reports how far each median moved against
an earlier --save file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)"
                 % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect run: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = [run_once(workload, seed, args.seconds)
                          for seed in parse_seeds(args.seeds)]
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    worst = 0.0
    for workload, values in runs.items():
        print(workload)
        for name, bound in bounds.items():
            xs = [v[name] for v in values]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bound / 3 else "  > bound/3"
            line = "  %-20s median=%-14.6g spread=%6.3f bound=%.2f%s" % (
                name, med, spread, bound, flag)
            if earlier and workload in earlier:
                old = statistics.median(v[name] for v in earlier[workload])
                line += "  moved=%+.3f" % (med / old - 1 if old else 0)
            print(line)
            if name != "setup_s":
                worst = max(worst, spread / bound)
    print("worst spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
