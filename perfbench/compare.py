#!/usr/bin/env python3
"""Summarise one benchmark result set, or compare two.

    python3 perfbench/compare.py SET.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the JSONL file sweep.py (or run.py --out) writes.
Bounds and directions come from BENCHMARK.json.

One set: per workload and end-to-end metric, the run count, median,
quartiles and spread (interquartile distance over the median), flagged
when the spread exceeds a third of the metric's bound; then, if the set
holds traced runs, the per-layer ledger: each metric's median per
workload.

Two sets: per workload and end-to-end metric, both medians with
quartiles and a verdict:
  worse       the change's median is worse than the parent's by more
              than the bound;
  better      the change's median is better by more than the parent's
              spread, and the change wins at least 9 of 10 runs paired
              by seed (or every change run beats every parent run when
              no seeds pair up);
  unresolved  anything else;
  too noisy   the parent's spread exceeds the bound, so a regression
              of the bound's size could not be told from noise.
Exits 1 when any verdict is worse or too noisy, or any run failed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path, trace=0):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace", 0) != trace:
                continue
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if metric in r["result"]["metrics"]]


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / med if med else 0.0


def failures(recs):
    return sum(r["result"]["failed"] for r in recs) + sum(
        1 for r in recs if not r["result"]["correct"])


def summarise(runs, metrics):
    bad = False
    print("%-13s %-14s %3s %14s %14s %14s %8s %6s" %
          ("workload", "metric", "n", "median", "q1", "q3", "spread", "bound"))
    for w, recs in sorted(runs.items()):
        for m in metrics:
            vals = values(recs, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = "  > bound/3" if s > m["bound"] / 3 else ""
            print("%-13s %-14s %3d %14.6g %14.6g %14.6g %7.2f%% %5.0f%%%s" %
                  (w, m["name"], len(vals), med, q1, q3, 100 * s,
                   100 * m["bound"], flag))
        nf = failures(recs)
        if nf:
            bad = True
            print("%-13s %d failed ops or incorrect runs" % (w, nf))
    return bad


def print_ledger(runs, metrics):
    names = sorted(runs)
    print("\nper-layer ledger (median over traced runs)")
    print("%-32s %-6s" % ("metric", "unit") + "".join("%15s" % w for w in names))
    for m in metrics:
        cells = []
        for w in names:
            vals = values(runs[w], m["name"])
            cells.append("%15.6g" % statistics.median(vals) if vals else "%15s" % "-")
        print("%-32s %-6s" % (m["name"], m["unit"]) + "".join(cells))
    for w in names:
        nf = failures(runs[w])
        if nf:
            print("%-13s traced: %d failed ops or incorrect runs" % (w, nf))
    return any(failures(runs[w]) for w in names)


def worse_by(m, parent, change):
    """Relative amount by which [change] is worse than [parent]."""
    if parent == 0:
        return 0.0
    d = (change - parent) / abs(parent)
    return d if m["better"] == "lower" else -d


def verdict(m, pvals, cvals, pseeds, cseeds):
    _, pmed, _ = quartiles(pvals)
    _, cmed, _ = quartiles(cvals)
    pspread = spread(pvals)
    delta = worse_by(m, pmed, cmed)
    beats = (lambda c, p: c < p) if m["better"] == "lower" else (lambda c, p: c > p)
    all_beat = all(beats(c, p) for c in cvals for p in pvals)
    if pspread > m["bound"]:
        return "too noisy", delta
    if delta > m["bound"]:
        return "worse", delta
    paired = [(pseeds[s], cseeds[s]) for s in pseeds if s in cseeds]
    if paired:
        wins = sum(1 for p, c in paired if beats(c, p))
        won = wins >= 0.9 * len(paired)
    else:
        won = all_beat
    if -delta > pspread and won:
        return "better", delta
    return "unresolved", delta


def compare(parent, change, metrics):
    bad = False
    print("%-13s %-14s %30s %30s %8s  %s" %
          ("workload", "metric", "parent median [q1, q3]",
           "change median [q1, q3]", "worse by", "verdict"))
    for w in sorted(set(parent) | set(change)):
        if w not in parent or w not in change:
            print("%-13s only in one set" % w)
            continue
        for m in metrics:
            pv, cv = values(parent[w], m["name"]), values(change[w], m["name"])
            if not pv or not cv:
                continue
            pseeds = {r["seed"]: r["result"]["metrics"][m["name"]]["value"]
                      for r in parent[w]}
            cseeds = {r["seed"]: r["result"]["metrics"][m["name"]]["value"]
                      for r in change[w]}
            v, delta = verdict(m, pv, cv, pseeds, cseeds)
            bad = bad or v in ("worse", "too noisy")
            pq = quartiles(pv)
            cq = quartiles(cv)
            print("%-13s %-14s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %7.2f%%  %s" %
                  (w, m["name"], pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
                   100 * delta, v))
        nf = failures(change[w])
        if nf:
            bad = True
            print("%-13s change: %d failed ops or incorrect runs" % (w, nf))
    return bad


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    sets = [load(p) for p in sys.argv[1:]]
    if len(sets) == 1:
        bad = summarise(sets[0], metrics)
        ledger = load(sys.argv[1], trace=1)
        if ledger:
            bad = print_ledger(ledger, bench["per_layer"]) or bad
    else:
        bad = compare(sets[0], sets[1], metrics)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
