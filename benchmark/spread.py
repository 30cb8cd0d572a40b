#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the acceptance
rule measures it: N runs per workload, each with another seed, then the
distance between the first and third quartile of the N values as a share
of their median, next to the metric's bound in BENCHMARK.json.

usage: python3 benchmark/spread.py [runs-per-workload] [first-seed] [workload ...]
Run from the repository root. Writes nothing; prints a table.
"""
import json
import statistics
import subprocess
import sys


def main():
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    first_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = sys.argv[3:] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for name in names:
        values = {}
        for i in range(runs):
            cmd = bench["command"] + [
                "--workload", name,
                "--seed", str(first_seed + i),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {first_seed + i}: not correct: {result}")
            for metric, cell in result["metrics"].items():
                values.setdefault(metric, []).append(cell["value"])
        print(f"{name} ({runs} runs, seeds {first_seed}..{first_seed + runs - 1})")
        for metric, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds[metric]
            share = spread / bound if bound else 0.0
            if metric != "setup_s":
                worst = max(worst, share)
            print(f"  {metric:<28} median {median:<14.6g} spread {spread:7.2%}"
                  f"  bound {bound:<6} spread/bound {share:5.2f}"
                  f"  min {min(vs):.6g} max {max(vs):.6g}")
    print(f"largest spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
