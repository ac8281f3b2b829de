#!/usr/bin/env python3
"""Perf smoke gate for the kernel and serving-layer benchmarks.

Runs the bench_micro kernel benchmarks (blocked covariance, reference
kernel, row append), the extraction and organizer stages, and the
query-serving paths (cache hit, cache miss, single-flight coalescing,
planned-query steady state, C-DAG artifact build, summarization build and
cached-summary hit) with a short --benchmark_min_time, then compares
per-benchmark cpu_time against the checked-in baseline (BENCH.json at the
repo root, the one baseline file). Exits non-zero when the benchmark
binary crashes or any benchmark regresses by more than --max-regression
(default 3x) — a deliberately loose bound that tolerates runner-to-runner
variance while still catching algorithmic regressions (e.g. the blocked
kernel silently falling back to a quadratic path).

Run it pinned to one CPU, as the baseline was recorded and as CI runs it:
the threaded entries (threads:4/8, the planned-query worker hand-off)
measure cross-CPU scheduling on a multi-core machine, not the code.
`taskset` sets the affinity of this process and the benchmark it starts
only.

Usage:
  taskset -c 0 perf_smoke.py --bench build/bench/bench_micro [--baseline BENCH.json]
  taskset -c 0 perf_smoke.py --bench build/bench/bench_micro --write-baseline BENCH.json
"""

import argparse
import json
import subprocess
import sys

# The benchmarks guarded by this gate: the statistics kernels, the
# extraction and organizer stages of a cold build, and the serving-layer
# paths. Unrelated benches (pipeline end-to-end, scaling sweeps) stay out
# so they don't add noise.
BENCH_FILTER = (
    "BM_CorrelationMatrix|BM_CovarianceReference|BM_CovarianceBlockedSweep|"
    "BM_AppendRows|BM_KnowledgeExtract|BM_DataOrganize|BM_ServeCacheHit|"
    "BM_ServeCacheMiss|BM_ServeSingleFlight|BM_ServePlannedQuery|"
    "BM_CdagArtifactBuild|BM_UpdateScenario|"
    "BM_RegisterScenario|BM_RegistryLookupSharded|BM_EvictionChurn|"
    "BM_GramSimd|BM_PartialCorrSubsets|BM_PcSkeletonDense|"
    "BM_SummarizeDag|BM_ServeSummaryHit"
)

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run_benchmarks(bench, min_time):
    cmd = [
        bench,
        f"--benchmark_filter={BENCH_FILTER}",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"FAIL: could not run {bench}: {e}", file=sys.stderr)
        sys.exit(1)
    if proc.returncode != 0:
        print(f"FAIL: {bench} exited with {proc.returncode}", file=sys.stderr)
        sys.stderr.write(proc.stderr)
        sys.exit(1)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        print(f"FAIL: benchmark output is not JSON: {e}", file=sys.stderr)
        sys.exit(1)
    results = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = TIME_UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        # UseRealTime benchmarks (threaded kernels) are compared on wall
        # clock; the default main-thread cpu_time would not see pool work.
        key = "real_time" if b["name"].endswith("/real_time") else "cpu_time"
        results[b["name"]] = b[key] * unit
    if not results:
        print("FAIL: no benchmarks matched the filter", file=sys.stderr)
        sys.exit(1)
    return results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True, help="path to bench_micro")
    ap.add_argument("--baseline", default="BENCH.json")
    ap.add_argument("--write-baseline", metavar="PATH",
                    help="write the current run as the new baseline and exit")
    ap.add_argument("--max-regression", type=float, default=3.0)
    ap.add_argument("--min-time", default="0.05")
    args = ap.parse_args()

    results = run_benchmarks(args.bench, args.min_time)

    if args.write_baseline:
        payload = {
            "note": "cpu_time in nanoseconds; written by tools/perf_smoke.py",
            "benchmarks": {k: round(v, 1) for k, v in sorted(results.items())},
        }
        with open(args.write_baseline, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"wrote baseline with {len(results)} entries to "
              f"{args.write_baseline}")
        return 0

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)["benchmarks"]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot read baseline {args.baseline}: {e}",
              file=sys.stderr)
        return 1

    failed = []
    for name, base_ns in sorted(baseline.items()):
        now_ns = results.get(name)
        if now_ns is None:
            failed.append(f"{name}: missing from current run")
            continue
        ratio = now_ns / base_ns if base_ns > 0 else float("inf")
        status = "OK" if ratio <= args.max_regression else "REGRESSION"
        print(f"  {status:10s} {name:55s} {base_ns:14.1f} -> {now_ns:14.1f} ns"
              f"  ({ratio:.2f}x)")
        if ratio > args.max_regression:
            failed.append(f"{name}: {ratio:.2f}x (limit "
                          f"{args.max_regression:.1f}x)")
    for name in sorted(set(results) - set(baseline)):
        print(f"  NEW        {name:55s} {'':>14s}    {results[name]:14.1f} ns")

    if failed:
        print(f"\nFAIL: {len(failed)} benchmark(s) regressed:",
              file=sys.stderr)
        for f_ in failed:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"\nperf smoke OK: {len(baseline)} benchmarks within "
          f"{args.max_regression:.1f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
