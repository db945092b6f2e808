#!/usr/bin/env python3
"""Steadiness check: how much does each end-to-end metric spread on this host?

Run from the root of the repository:

    python3 perfbench/steady.py                       # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads deep-nests
    python3 perfbench/steady.py --ppredict /path/to/other/ppredict.exe

Runs each workload repeatedly on one build, each run with another seed,
and prints for every end-to-end metric of BENCHMARK.json its median, first
and third quartile (statistics.quantiles(values, n=4)), and the spread
(q3 - q1) / median against the metric's bound. A spread at or above a
third of the bound is flagged: the bound is too tight for this host, or
the run too short. It also checks that every run of a workload fails the
same share of its requests. Exits 1 if any run is incorrect, the failed
share varies, or any spread reaches its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--ppredict", help="ppredict executable to benchmark")
    a = p.parse_args()
    metrics = bench["end_to_end"]
    bad = False
    for w in a.workloads:
        values = {m["name"]: [] for m in metrics}
        shares = set()
        for k in range(a.runs):
            seed = a.first_seed + k
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(a.seconds), "--trace", "0"]
            if a.ppredict:
                cmd += ["--ppredict", a.ppredict]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            res = json.loads(r.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: INCORRECT")
                bad = True
            shares.add((res["failed"] * 1_000_000) // res["attempted"])
            for m in metrics:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
            figures = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.5g}" for m in metrics)
            print(f"{w} seed {seed}: attempted {res['attempted']} failed {res['failed']} {figures}", file=sys.stderr)
        print(f"\n{w}  ({a.runs} runs of {a.seconds}s; failed share {'steady' if len(shares) == 1 else 'VARIES'})")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        if len(shares) != 1:
            bad = True
        for m in metrics:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            flag = ""
            if spread >= m["bound"]:
                flag = "OVER BOUND"
                bad = True
            elif spread >= m["bound"] / 3:
                flag = "above bound/3"
            print(f"  {m['name']:24s} {q2:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {m['bound']:6.2f} {flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
