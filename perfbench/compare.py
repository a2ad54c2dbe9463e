#!/usr/bin/env python3
"""Runs two sets of benchmark runs of the same code and compares them.

    python3 perfbench/compare.py [--runs 10] [--workload NAME ...]

For every workload in BENCHMARK.json (or the ones named), runs set A on
seeds 1..N and set B on seeds N+1..2N through perfbench/run.py with
--trace 0, alternating A and B so that drift on the host falls on both.
For each end-to-end metric it prints both medians, both quartile ranges,
each set's spread (quartile distance over median), the change of B's
median against A's in the worse direction, and the metric's bound. A
metric passes when both spreads (setup_s excepted) stay within the bound
and B's median is no worse than A's by more than the bound; the failed
share of operations must be the same in both sets. Raw results go to
.bench_out/compare.json. Exits 1 when anything does not pass.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed "
                 f"(exit code {proc.returncode})")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    raw = {}
    ok = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for label, seed in (("A", 1 + i), ("B", 1 + args.runs + i)):
                result = run_once(workload, seed, bench["run_seconds"])
                sets[label].append(result)
                print(f"{workload} set {label} seed {seed}: correct="
                      f"{result['correct']}", file=sys.stderr)
        raw[workload] = sets
        shares = {k: {r["failed"] / r["attempted"] for r in v}
                  for k, v in sets.items()}
        print(f"\n== {workload}: failed share A {sorted(shares['A'])} "
              f"B {sorted(shares['B'])}")
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            ok = False
        if not all(r["correct"] for v in sets.values() for r in v):
            ok = False
            print("   some runs reported correct: false")
        print(f"   {'metric':<22} {'median A':>11} {'q1..q3 A':>23} "
              f"{'median B':>11} {'q1..q3 B':>23} {'spr A':>6} {'spr B':>6} "
              f"{'worse':>6} {'bound':>5}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            qa, qb = summary(a), summary(b)
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (qb[1] - qa[1]) / qa[1]
            bound = metric["bound"]
            passed = worse <= bound and (
                name == "setup_s" or max(spread_a, spread_b) <= bound)
            ok = ok and passed
            print(f"   {name:<22} {qa[1]:>11.5g} {qa[0]:>11.5g}..{qa[2]:<11.5g}"
                  f" {qb[1]:>11.5g} {qb[0]:>11.5g}..{qb[2]:<11.5g}"
                  f" {spread_a:>6.3f} {spread_b:>6.3f} {worse:>6.3f}"
                  f" {bound:>5.2f}{'' if passed else '  FAIL'}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "compare.json").write_text(json.dumps(raw))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
