#!/usr/bin/env python3
"""Steadiness check: run one workload as two interleaved sets of runs.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seconds S]
                                [--trace 0] [--first-seed 1]

Runs `2 * runs` invocations of perfbench/run.py, alternating set A and
set B, each with its own seed. For every metric it prints the median and
quartiles (Python's `statistics.quantiles(values, n=4)`) of set A, set B
and both together, the spread (q3 - q1) / median, and the gap between
the two sets' medians as a share of set A's median. With --trace 0 each
metric is judged against its bound in BENCHMARK.json: the spread of every
metric but setup_s, over any set of ten runs or more, must stay under a
third of the bound, and the gap under the bound. The share of failed
operations must be identical in both sets. Exits 1 when any of this
fails. --seconds defaults to the run_seconds of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), out.returncode))
    return json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    sets = {"A": [], "B": []}
    seed = args.first_seed
    for i in range(args.runs):
        for name in ("A", "B"):
            result = run_once(args.workload, seed, args.seconds, args.trace)
            sets[name].append(result)
            print("run %2d set %s seed %d: correct=%s attempted=%d failed=%d"
                  % (i + 1, name, seed, result["correct"], result["attempted"], result["failed"]),
                  file=sys.stderr)
            seed += 1

    ok = True
    shares = {k: {r["failed"] / r["attempted"] for r in v} for k, v in sets.items()}
    if len(shares["A"] | shares["B"]) != 1:
        ok = False
    print("failed share: A %s, B %s" % (sorted(shares["A"]), sorted(shares["B"])))
    if not all(r["correct"] for v in sets.values() for r in v):
        ok = False
        print("some runs reported correct=false")

    limits = {m["name"]: m for m in spec()["end_to_end"]} if args.trace == 0 else {}
    print("%-40s %6s %14s %14s %14s %8s %8s %8s %s" % (
        "metric", "set", "q1", "median", "q3", "spread", "gap", "bound", "verdict"))
    sets["A+B"] = sets["A"] + sets["B"]
    for metric in sets["A"][0]["metrics"]:
        medians = {}
        for name in ("A", "B", "A+B"):
            values = [r["metrics"][metric]["value"] for r in sets[name]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            medians[name] = med
            spread = (q3 - q1) / med if med else float("inf")
            gap = (medians["B"] - medians["A"]) / medians["A"] if name == "B" and medians["A"] else None
            verdict = ""
            bound = limits.get(metric, {}).get("bound")
            if bound is not None:
                # Spreads are judged on sets of ten runs or more, as many
                # as one set of the acceptance procedure has.
                if metric != "setup_s" and len(values) >= 10 and spread > bound / 3:
                    verdict += " spread>bound/3"
                    ok = False
                if gap is not None:
                    worse = gap if limits[metric]["better"] == "lower" else -gap
                    if worse > bound:
                        verdict += " gap>bound"
                        ok = False
            print("%-40s %6s %14.6g %14.6g %14.6g %8.4f %8s %8s%s" % (
                metric, name, q1, med, q3, spread,
                "%.4f" % gap if gap is not None else "",
                "%.2f" % bound if bound is not None else "", verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
