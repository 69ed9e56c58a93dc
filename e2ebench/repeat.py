#!/usr/bin/env python3
"""Runs each workload of the end-to-end benchmark many times, one seed per
run, and prints for every metric the median, the quartiles, the spread
between the quartiles and between the lowest and highest run (both as a
share of the median), plus each workload's failed share of attempted
operations.

    python3 e2ebench/repeat.py --runs 10 --seconds 20
    python3 e2ebench/repeat.py --workloads tcp_2k --runs 5 --trace 1
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["flat_1k", "tcp_2k", "live_2k"]


def run_once(root, workload, seed, seconds, trace):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for w in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(root, w, seed, args.seconds, args.trace)
            results.append(r)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{w} seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} {vals}",
                  file=sys.stderr)
        shares = sorted({f"{r['failed']}/{r['attempted']} = {r['failed'] / r['attempted']:.6f}" for r in results})
        print(f"\n{w}: {args.runs} runs, all correct: {all(r['correct'] for r in results)}, failed shares: {shares}")
        print(f"{'metric':34} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'range/med':>9}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            print(f"{name:34} {unit:6} {med:14.4f} {q1:14.4f} {q3:14.4f} {iqr:8.4f} {rng:9.4f}")


if __name__ == "__main__":
    main()
