#!/usr/bin/env python3
"""Steadiness check for the WebWave benchmark.

    python3 perfbench/steady.py [--repeats 10] [--seed-base 1000] [--traced]

Run from the root of a checkout.  Runs every workload of BENCHMARK.json, for
its run_seconds, --repeats times through perfbench/run.py, interleaving the
workloads and alternating their order on each pass, with a different seed on
every run.  For each workload and each end-to-end metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json, plus the
share of failed operations.
With --traced it also makes one traced run per workload and prints the
tracing overhead: the traced run's end-to-end figures against the untraced
median.  Raw results go to .bench_build/perfbench/steady-<seed-base>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    traced = {}
    for line in lines:
        if line.startswith("traced end-to-end:"):
            for kv in line.split(":", 1)[1].split():
                k, v = kv.split("=")
                traced[k] = float(v)
    return proc.returncode, result, traced


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = bench["end_to_end"]

    results = {w: [] for w in workloads}
    bad = 0
    for rep in range(args.repeats):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed_base + rep
            code, result, _ = run(w, seed, seconds, 0)
            if code != 0 or result is None:
                bad += 1
                print("run failed: %s seed %d exit %d" % (w, seed, code), flush=True)
                continue
            results[w].append(result)
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"]) for m in e2e)),
                flush=True)

    traced = {}
    if args.traced:
        for w in workloads:
            code, _, t = run(w, args.seed_base, seconds, 1)
            if code != 0:
                bad += 1
                print("traced run failed: %s exit %d" % (w, code), flush=True)
            traced[w] = t

    print()
    print("| workload | metric | median | Q1 | Q3 | spread | bound | ok |")
    print("|---|---|---|---|---|---|---|---|")
    worst = 0.0
    for w in workloads:
        rs = results[w]
        if len(rs) < 2:
            continue
        for m in e2e:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread <= m["bound"] / 3 or m["name"] == "setup_s"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.2f | %s |" % (
                w, m["name"], med, q1, q3, spread, m["bound"], "yes" if ok else "NO"))
    print()
    for w in workloads:
        rs = results[w]
        att = sum(r["attempted"] for r in rs)
        fail = sum(r["failed"] for r in rs)
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print("%s: %d runs, %d attempted, %d failed, failed shares %s" % (
            w, len(rs), att, fail, shares))
    if traced:
        print()
        print("| workload | metric | untraced median | traced | overhead |")
        print("|---|---|---|---|---|")
        for w in workloads:
            for m in e2e:
                vals = [r["metrics"][m["name"]]["value"] for r in results[w]]
                if not vals or m["name"] not in traced.get(w, {}):
                    continue
                med = statistics.median(vals)
                t = traced[w][m["name"]]
                print("| %s | %s | %.6g | %.6g | %+.2f%% |" % (
                    w, m["name"], med, t, 100 * (t - med) / med if med else 0))
    print()
    print("worst spread / bound (setup_s excluded): %.3f; failed runs: %d" % (worst, bad))

    os.makedirs(os.path.join(".bench_build", "perfbench"), exist_ok=True)
    with open(os.path.join(".bench_build", "perfbench", "steady-%d.json" % args.seed_base), "w") as f:
        json.dump({"results": results, "traced": traced}, f)
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
