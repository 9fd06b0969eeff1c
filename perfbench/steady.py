#!/usr/bin/env python3
"""Steadiness check: run one workload N times and compare each metric's
run-to-run spread with its bound.

    python3 perfbench/steady.py --workload serve_eco [--runs 10] [--seed 1]

Run from the repository root.  Each run uses the next seed (seed, seed+1,
...), as a fresh process, with the command and run length that
BENCHMARK.json declares.  For every end-to-end metric it prints the median,
the quartiles (Python's statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and the metric's bound, and flags a spread above the
bound ("OUT") or above a third of it ("wide").  Exits 1 if any run was
incorrect or any spread is out of bound, except setup_s, whose spread is
reported but not gated (it is compared only median to median).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    values = {m["name"]: [] for m in bench["end_to_end"]}
    incorrect = 0
    for i in range(args.runs):
        seed = args.seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", "0"]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        wall = time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"run with seed {seed} exited {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            incorrect += 1
        row = []
        for name in values:
            value = result["metrics"][name]["value"]
            values[name].append(value)
            row.append(f"{name}={value:.6g}")
        print(f"seed {seed}: wall {wall:.1f} s attempted {result['attempted']} "
              f"failed {result['failed']} " + " ".join(row), flush=True)

    bad = incorrect > 0
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s, {incorrect} incorrect")
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        name = m["name"]
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if spread > m["bound"]:
            flag = "OUT" if name != "setup_s" else "out (not gated)"
            bad = bad or name != "setup_s"
        elif spread > m["bound"] / 3:
            flag = "wide"
        print(f"{name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {m['bound']:>6} {flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
