#!/usr/bin/env python3
"""The benchmark's own test.

Run from the repository root:

    python3 servebench/test_servebench.py

Builds serve_bench (through run.py) and checks, for every workload:
  * one seed prints the identical `counters` line twice: server counters
    over the first pass, the direct computation's layer counts (CI tests,
    oracle queries, summarizer pairs scored) and the request-sequence hash;
  * another seed changes the request-sequence hash;
  * the result JSON is correct, failed nothing, and carries exactly the
    end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
    metrics (--trace 1), each with its unit.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def invoke(binary, workload, seed, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0, "%s seed %d trace %d exited %d" %
          (workload, seed, trace, proc.returncode))
    counters = [l for l in lines if l.startswith("counters ")]
    check(len(counters) == 1, "one counters line")
    return counters[0], json.loads(lines[-1])


def request_hash(counters_line):
    return [t for t in counters_line.split() if t.startswith("request_hash=")]


def check(ok, what):
    if not ok:
        sys.exit("FAIL: " + what)


def check_metrics(result, wanted, what):
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, what + ": correct run")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == wanted,
          "%s: metrics %s != %s" % (what, sorted(got), sorted(wanted)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    binary = run.build()
    for workload in [w["name"] for w in bench["workloads"]]:
        first, result = invoke(binary, workload, 11, 0)
        check_metrics(result, end_to_end, workload + " trace 0")
        again, _ = invoke(binary, workload, 11, 0)
        check(first == again, "%s: seed 11 counters differ:\n%s\n%s" %
              (workload, first, again))
        other, _ = invoke(binary, workload, 12, 0)
        check(request_hash(first) != request_hash(other),
              workload + ": seeds 11 and 12 issue the same requests")
        traced_counters, traced = invoke(binary, workload, 11, 1)
        check(traced_counters == first,
              workload + ": traced run counters differ")
        check_metrics(traced, per_layer, workload + " trace 1")
        print("ok %s %s" % (workload, request_hash(first)[0]))
    print("PASS")


if __name__ == "__main__":
    main()
