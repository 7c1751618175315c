#!/usr/bin/env python3
"""Steadiness and repeatability check for the benchmark.

Runs every workload (or the ones named) once per seed with --trace 0, for
BENCHMARK.json's run_seconds, and reports, per end-to-end metric, the
median and the spread between the first and third quartile as a share of
the median, against the metric's bound. The first seed is also run a
second time untraced and once traced: all three runs must print the same
final-score digest and work counters (their `repeat:` line). Run from the
repository root:

    python3 mfpabench/steadiness.py --seeds 1 2 3 4 5 [--workloads retrain]

Exits 1 when a spread exceeds its bound or a repeat differs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: {result}")
    repeat = [l for l in lines if l.startswith("repeat: ")]
    if len(repeat) != 1:
        sys.exit(f"{workload} seed {seed} trace {trace}: no single repeat line")
    return result, json.loads(repeat[0][len("repeat: "):])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    failed = False
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        first_repeat = None
        for seed in args.seeds:
            result, repeat = run(bench, workload, seed, 0)
            first_repeat = first_repeat or repeat
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        seed = args.seeds[0]
        for trace in (0, 1):
            _, again = run(bench, workload, seed, trace)
            same = again == first_repeat
            failed |= not same
            print(f"{workload:<14} seed {seed} trace {trace} repeats digest and "
                  f"{len(again['counters'])} counters: {'ok' if same else 'DIFFERS'}")
            if not same:
                print(f"  first: {first_repeat}\n  again: {again}", file=sys.stderr)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            spread = float("nan")
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
            bad = spread > m["bound"]
            failed |= bad
            print(f"{workload:<14} {m['name']:<14} median {med:>14.4f} {m['unit']:<5} "
                  f"spread {spread:7.4f} bound {m['bound']:.2f}{'  OVER' if bad else ''}  "
                  f"values {[round(x, 4) for x in v]}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
