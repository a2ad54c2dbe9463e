#!/usr/bin/env python3
"""Builds and runs the sampnn benchmark for one workload.

    python3 perfbench/run.py --workload train-batch1 --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. The first call configures and builds
the sampnn library and the benchmark program (Release) into .bench_build/;
later calls only bring that build up to date. The program's metrics are
narrowed to the end_to_end list (--trace 0) or the per_layer list
(--trace 1) of BENCHMARK.json, and the result is printed as the last line
of standard output. Build and progress output goes to standard error.

--perturb <logit|accuracy|gradient|replay|stats> corrupts one observed value
before its check; the run must then report "correct": false and exit 1.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no sampnn sources under {ROOT}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--perturb", default="")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"]
             for m in bench["per_layer" if args.trace else "end_to_end"]]
    binary = build()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json")]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no result (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
