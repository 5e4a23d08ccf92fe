#!/usr/bin/env python3
"""End-to-end benchmark of AccTEE's billed request path.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload echo_billed --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the libraries under src/) in Release into .bench_build,
then runs fresh-process rounds of the workload until --seconds have passed and
prints one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the end-to-end
metrics (each the mean over the rounds, the fastest and slowest tenth left
out), --trace 1 the per-layer metrics of a traced replay, whose spans and
layer table are written under .bench_out/.

    python3 perfbench/run.py --selftest [--workload W]

checks that the correctness checks catch a flipped output byte, an off-by-one
billed count and a tampered ledger entry.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("echo_billed", "resize_billed", "polybench_cold")
# A run must end within 180 s: no round starts once this many seconds of
# measuring have passed.
DEADLINE_S = 150
# The host's speed swings by up to 2x within seconds and drifts over
# minutes, the same for every metric. A run therefore reports, per metric,
# the mean of its rounds with the fastest and the slowest tenth left out:
# a mean follows the share of slow rounds smoothly, where a quantile jumps
# between the host's fast and slow states, and the trim drops single
# stalled rounds.
TRIM = 0.1

def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; build output goes to
    stderr so that stdout carries only the result."""
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def run_binary(args, timeout):
    """Runs the perfbench binary; returns its last stdout line parsed as JSON."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          timeout=timeout, check=False, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench %s exited with %d" %
                           (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def round_seed(seed, index):
    """Seed of round `index` of a run: fresh inputs in every round."""
    return (seed * 0x9E3779B97F4A7C15 + index) % (1 << 64)


def aggregate(values):
    """One run's value of a metric from its rounds' values."""
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def untraced(workload, seed, seconds):
    started = time.monotonic()
    rounds = []
    while not rounds or time.monotonic() - started < seconds:
        if rounds and time.monotonic() - started > DEADLINE_S:
            break
        rounds.append(run_binary(["round", "--workload", workload, "--seed",
                                  str(round_seed(seed, len(rounds)))],
                                 timeout=max(10, 175 - (time.monotonic() - started))))
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems[:10]:
        log("problem: " + p)
    metrics = {}
    for name, first in rounds[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in rounds]
        metrics[name] = {"value": aggregate(values), "unit": first["unit"]}
    for name, first in rounds[0]["reference"].items():
        values = [r["reference"][name]["value"] for r in rounds]
        log("reference %s: %.6g %s (median of %d rounds; not a metric)" %
            (name, statistics.median(values), first["unit"], len(rounds)))
    log("rounds: %d" % len(rounds))
    return {"correct": not problems and all(r["correct"] for r in rounds),
            "attempted": sum(int(r["attempted"]) for r in rounds),
            "failed": sum(int(r["failed"]) for r in rounds),
            "metrics": metrics}


def traced(workload, seed, seconds):
    os.makedirs(OUT_DIR, exist_ok=True)
    result = run_binary(["trace", "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--out-dir", OUT_DIR],
                        timeout=170)
    stem = os.path.join(OUT_DIR, "%s-seed%d" % (workload, seed))
    log("spans: %s.spans.jsonl" % stem)
    with open(stem + ".layers.txt") as table:
        log(table.read().rstrip())
    for p in result["problems"][:10]:
        log("problem: " + p)
    return {"correct": bool(result["correct"]) and not result["problems"],
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": result["metrics"]}


def selftest(workloads, seed):
    ok = True
    for workload in workloads:
        log("== " + workload)
        proc = subprocess.run([BINARY, "selftest", "--workload", workload,
                               "--seed", str(seed)], stdout=subprocess.PIPE,
                              timeout=170, check=False)
        ok = ok and proc.returncode == 0
    print(json.dumps({"selftest": ok}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    args.seed %= 1 << 64  # the perfbench binary reads an unsigned 64-bit seed
    if args.workload is None and not args.selftest:
        parser.error("--workload is required")
    build()
    if args.selftest:
        return selftest([args.workload] if args.workload else WORKLOADS,
                        args.seed)
    if args.trace:
        result = traced(args.workload, args.seed, args.seconds)
    else:
        result = untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError) as error:
        log("perfbench: %s" % error)
        sys.exit(1)
