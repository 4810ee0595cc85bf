#!/usr/bin/env python3
"""Build and run the EventMP benchmark.

    python3 evbench/run.py --workload rpc|edt|fanout|all --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
runtime from src/ together with the benchmark program (evbench/src) into
$CARGO_TARGET_DIR/evbench, or .bench_build/evbench when that is unset;
later runs only check the build is current. Build output goes to standard
error; the program's report goes to standard output, whose last line is the
JSON result. `--workload all` runs the three workloads in turn and ends
with one combined JSON line whose metric names carry the workload prefix.
The exit code is non-zero when the build fails or any check or operation
failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rpc", "edt", "fanout")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "evbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("evbench: no EventMP sources under src/ next to evbench/")
    os.makedirs(out_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out_dir, "--target", "evbench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("evbench: build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "evbench")


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("evbench: %s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    if args.workload != "all":
        code, out = run_one(binary, args.workload, args)
        sys.stdout.write(out)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, args)
        sys.stdout.write(out)
        worst = worst or code
        lines = out.strip().splitlines()
        if not lines:
            return code or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
