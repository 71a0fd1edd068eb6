#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect one result set.

    python3 perfbench/sweep.py --out perfbench/results/base.jsonl \
        [--workloads stcg-solve,fuzz] [--seeds 1-10] [--trace 0,1] [--seconds S]

Each run goes through run.py and appends one tagged JSON line to --out.
Workloads and the run length default to BENCHMARK.json; --trace takes
0 (end-to-end metrics, the default), 1 (the per-layer ledger) or both.
Prints the result set's summary (compare.py with one file) at the end.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for trace in args.trace.split(","):
            for w in args.workloads.split(","):
                r = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", trace, "--out", args.out],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True)
                last = r.stdout.rstrip("\n").split("\n")[-1]
                print("%-14s seed %-4d trace %s exit %d  %s" %
                      (w, seed, trace, r.returncode, last[:140]), flush=True)
    subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), args.out],
                   cwd=ROOT)


if __name__ == "__main__":
    main()
