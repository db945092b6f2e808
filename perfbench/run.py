#!/usr/bin/env python3
"""End-to-end benchmark of ppredict.

Run from the root of the repository:

    python3 perfbench/run.py --workload cold-corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Builds ppredict and the benchmark program with dune, then runs one workload
(cold-corpus, deep-nests, hot-fleet) against a real `ppredict serve`
process. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones. With
--workload all every workload runs in turn and a table is printed before
the JSON lines.

--ppredict PATH points the benchmark at another ppredict executable (for
example a build of another commit), so that two builds can be alternated
on one host; the request generation and the correctness checks stay those
of this checkout.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["cold-corpus", "deep-nests", "hot-fleet"]
BENCH = os.path.join("_build", "default", "perfbench", "main.exe")
PPREDICT = os.path.join("_build", "default", "bin", "ppredict.exe")


def build():
    """Build ppredict and the benchmark program from source; dune output goes to stderr."""
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/ppredict.exe", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0 or not os.path.exists(BENCH):
        sys.exit("perfbench: build failed")


def bench_args(a, workload):
    return [
        BENCH, "run",
        "--workload", workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--ppredict", os.path.abspath(a.ppredict or PPREDICT),
    ]


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--ppredict", help="ppredict executable to benchmark (default: this checkout's build)")
    a = p.parse_args()
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the root of the repository")
    build()
    if a.workload != "all":
        os.execv(BENCH, bench_args(a, a.workload))
    results = []
    for w in WORKLOADS:
        r = subprocess.run(bench_args(a, w), stdout=subprocess.PIPE, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.exit(f"perfbench: {w} failed")
        results.append((w, json.loads(lines[-1])))
    for w, res in results:
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    for w, res in results:
        print(json.dumps({"workload": w, **res}))


if __name__ == "__main__":
    main()
