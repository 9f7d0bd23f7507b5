#!/usr/bin/env python3
"""Runs one workload of the WebWave benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the driver (perfbench/CMakeLists.txt,
which compiles the library from src/) into .bench_build/perfbench, then runs
the workload in its own process and passes its output through: the last line
of standard output is the result object.  Build output goes to standard
error.  Traced runs also write their span tree to
.bench_build/perfbench/spans/<workload>-<seed>.jsonl.

Exit status is the driver's: 0 only when every correctness check passed and
no operation failed.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("fleet_loopback", "fleet_resync", "serve_hot_catalog", "hotspot_loop")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    driver = os.path.join(BUILD_DIR, "perfbench_driver")
    return driver if os.path.exists(driver) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, "%s-%d.jsonl" % (args.workload, args.seed))]

    # Own process group, so a timeout also takes down any forked daemon.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    text = out.decode()
    sys.stdout.write(text)
    sys.stdout.flush()
    lines = text.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: driver printed no result", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
