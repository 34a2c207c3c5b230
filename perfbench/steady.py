#!/usr/bin/env python3
"""Steadiness mode: run every workload many times, interleaved, and print
each end-to-end metric's median, quartiles and spread in two interleaved
sets of runs, with the shift between the sets.

The spread is (Q3 - Q1) / median, with the quartiles that Python's
statistics.quantiles(values, n=4) gives; the shift is set 2's median over
set 1's, minus one. Set 1 is runs 1, 3, 5, ... of a workload, set 2 is
runs 2, 4, 6, ..., so slow drift of the host falls on both sets alike.
These figures are what the bounds in BENCHMARK.json are set against: a
metric's spread in each set, and its shift in the worse direction, should
stay within its bound (setup_s's spread excepted).

Run from the repository root:

    python3 perfbench/steady.py --runs 20 --seconds 35 --seed 401

Run i of a workload gets seed --seed + i - 1. Round i runs every workload
once, the order rotated by i. The tables are Markdown, as the README
shows them.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["stock_ingest", "rule_heavy", "cold_tenants"]
CARGO = ["cargo", "run", "--release", "--quiet", "--offline",
         "--manifest-path", "perfbench/Cargo.toml", "--"]


def run_once(workload, seed, seconds):
    args = CARGO + ["--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def table(workload, runs, metrics):
    sets = [runs[0::2], runs[1::2]]
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"\n**`{workload}`** — set 1 = runs 1, 3, 5, …; set 2 = runs 2, 4, "
          f"6, … ({len(sets[0])} + {len(sets[1])} runs; failed share "
          f"{shares})\n")
    print("| metric | unit | bound | set 1 median [Q1, Q3] | spread "
          "| set 2 median [Q1, Q3] | spread | shift | within bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        cells, medians, spreads = [], [], []
        for s in sets:
            q1, q2, q3, spread = quartiles(
                [r["metrics"][name]["value"] for r in s])
            cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] | {spread:.3f}")
            medians.append(q2)
            spreads.append(spread)
        shift = medians[1] / medians[0] - 1
        worse = shift if m["better"] == "lower" else -shift
        ok = worse <= bound and (name == "setup_s"
                                 or max(spreads) <= bound)
        print(f"| `{name}` | {m['unit']} | {bound} | {cells[0]} | {cells[1]} "
              f"| {shift:+.3f} | {'yes' if ok else 'NO'} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=20,
                    help="runs per workload, split into two sets (at least 4)")
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    args = ap.parse_args()
    if args.runs < 4:
        raise SystemExit("--runs must be at least 4: two sets of two or more")

    with open("BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    results = {w: [] for w in WORKLOADS}
    for i in range(args.runs):
        order = WORKLOADS[i % len(WORKLOADS):] + WORKLOADS[:i % len(WORKLOADS)]
        for w in order:
            r = run_once(w, args.seed + i, args.seconds)
            results[w].append(r)
            print(f"run {i + 1}/{args.runs} {w}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                file=sys.stderr, flush=True)

    for w in WORKLOADS:
        table(w, results[w], metrics)


if __name__ == "__main__":
    main()
