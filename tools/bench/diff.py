#!/usr/bin/env python3
"""Compares the parent and change sides of a paired perfbench trajectory.

    python3 tools/bench/diff.py BENCH_2026-10-20_bucket.json
    python3 tools/bench/diff.py BENCH_....json --claim kiel-r10-long:qps

Reads a BENCH_*.json file whose "runs" list holds one object per run:
workload, seed, pair, side ("parent" or "change"), correct, attempted,
failed and metrics (name -> value), as perfbench/run.py reports them; runs
may also carry a "round", and a pair is the runs sharing (round, pair,
seed). Reads the end-to-end metrics, their direction and their bounds
from BENCHMARK.json (--benchmark, default: the one at the repo root).

Prints, per workload and metric, each side's median and quartiles, the
change in the medians, the parent's interquartile range (its noise band)
and how many pairs the change won (ties count for neither side). A
metric regresses when the change's median is worse than the parent's by
more than its relative bound. Exits 1 on a regression, on a run that is
not correct, on a larger share of failed operations than the parent's,
or on a --claim (WORKLOAD:METRIC) that does not hold: a claim needs the
change to win at least 9 of every 10 pairs and its median to beat the
parent's by more than the parent's interquartile range. Exits 2 on
unreadable input.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def quartiles(values):
    """(q1, median, q3) by the exclusive method (the wider band on few runs)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q1, q2, q3


def die(message):
    print("diff.py: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def pair_runs(runs):
    """{workload: [(parent_run, change_run), ...]} in pair order."""
    sides = defaultdict(dict)
    for run in runs:
        if run.get("side") not in ("parent", "change"):
            die("run without a parent/change side: %r" % run)
        key = (run["workload"], run.get("round", 0), run["pair"], run["seed"])
        if run["side"] in sides[key]:
            die("two %s runs for %r" % (run["side"], key))
        sides[key][run["side"]] = run
    pairs = defaultdict(list)
    for key in sorted(sides, key=lambda k: (k[0], k[1], k[2], k[3])):
        both = sides[key]
        if len(both) == 2:
            pairs[key[0]].append((both["parent"], both["change"]))
        else:
            print("unpaired run skipped: %s round %s pair %s seed %s" % key)
    return pairs


def failed_share(runs):
    attempted = sum(r.get("attempted") or 0 for r in runs)
    failed = sum(r.get("failed") or 0 for r in runs)
    return failed / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    args = parser.parse_args()

    trajectory = load_json(args.bench_json)
    if not isinstance(trajectory, dict) or \
            not isinstance(trajectory.get("runs"), list):
        die("%s has no \"runs\" list" % args.bench_json)
    metrics = load_json(args.benchmark)["end_to_end"]
    claims = set()
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if not metric or metric not in {m["name"] for m in metrics}:
            die("bad --claim %r" % claim)
        claims.add((workload, metric))

    problems = []
    pairs = pair_runs(trajectory["runs"])
    for workload, workload_pairs in pairs.items():
        n = len(workload_pairs)
        parents = [p for p, _ in workload_pairs]
        changes = [c for _, c in workload_pairs]
        print("\n%s: %d pairs" % (workload, n))
        for run in parents + changes:
            if run.get("correct") is not True:
                problems.append("%s seed %s %s: output not correct" % (
                    workload, run["seed"], run["side"]))
        share = (failed_share(parents), failed_share(changes))
        if share[1] > share[0]:
            problems.append("%s: failed share %.4f > parent's %.4f" % (
                workload, share[1], share[0]))
        print("  %-13s %21s %21s %8s %9s %5s  %s" % (
            "metric", "parent q1/med/q3", "change q1/med/q3", "delta",
            "par.IQR", "wins", "verdict"))
        for spec in metrics:
            name, bound = spec["name"], spec["bound"]
            higher = spec["better"] == "higher"
            got = [(p["metrics"].get(name), c["metrics"].get(name))
                   for p, c in workload_pairs]
            got = [(p, c) for p, c in got if p is not None and c is not None]
            if not got:
                continue
            pq = quartiles([p for p, _ in got])
            cq = quartiles([c for _, c in got])
            better = [(c > p) if higher else (c < p) for p, c in got]
            wins = sum(better)
            ties = sum(1 for p, c in got if p == c)
            iqr = pq[2] - pq[0]
            gain = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            worse = -gain / abs(pq[1]) if pq[1] else 0.0
            if worse > bound:
                verdict = "REGRESSION (bound %.0f%%)" % (bound * 100)
                problems.append("%s %s: %+.1f%% beyond its %.0f%% bound" % (
                    workload, name, delta * 100, bound * 100))
            elif ties == len(got):
                verdict = "identical"
            elif wins * 10 >= 9 * len(got) and gain > iqr:
                verdict = "gain"
            elif gain > 0:
                verdict = "within bound, gain not shown"
            else:
                verdict = "within bound"
            if (workload, name) in claims:
                claims.discard((workload, name))
                if verdict != "gain":
                    problems.append("claim %s:%s not met (%d/%d wins, "
                                    "median gain %.4g vs parent IQR %.4g)" %
                                    (workload, name, wins, len(got), gain,
                                     iqr))
            print("  %-13s %6.4g/%6.4g/%6.4g %6.4g/%6.4g/%6.4g %+7.1f%% "
                  "%9.4g %2d/%-2d  %s" % (
                      name, pq[0], pq[1], pq[2], cq[0], cq[1], cq[2],
                      delta * 100, iqr, wins, len(got), verdict))
    for workload, name in sorted(claims):
        problems.append("claim %s:%s: no paired runs" % (workload, name))

    if problems:
        print("\nFAIL")
        for problem in problems:
            print("  " + problem)
        return 1
    print("\nOK: no metric worse than its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
