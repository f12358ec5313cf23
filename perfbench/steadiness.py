#!/usr/bin/env python3
"""Runs one perfbench workload several times and prints how steady it is.

    python3 perfbench/steadiness.py --workload ingest --runs 10 \
        [--first-seed 1] [--seed-step 1] [--seconds 20] [--trace 0]

Run i uses seed first-seed + i * seed-step; --seed-step 0 repeats one
seed, which separates run-to-run noise from the spread between inputs. For every
metric the script prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the quartile spread (Q3 - Q1) as a
share of the median, and the max - min spread as a share of the median.
With --trace 0 it also compares each end-to-end metric's quartile spread
against a third of its bound in BENCHMARK.json, the margin a bound needs
over run-to-run noise. It is the tool that sets and re-checks the bounds.
Run it from the repository root.
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
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit("run with seed %d failed (exit %d)"
                         % (seed, done.returncode))
    return json.loads(lines[-1])


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seed-step", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2 for quartiles")

    values = {}
    units = {}
    failed_shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i * args.seed_step
        result = run_once(args.workload, seed, args.seconds, args.trace)
        if not result["correct"]:
            raise SystemExit("seed %d: a check was violated" % seed)
        failed_shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: attempted=%d failed=%d %s" %
              (seed, result["attempted"], result["failed"],
               " ".join("%s=%.4g" % (name, metric["value"])
                        for name, metric in sorted(result["metrics"].items()))),
              flush=True)

    limits = bounds() if args.trace == 0 else {}
    print("\n%-38s %-6s %12s %12s %12s %8s %8s %s" %
          ("metric", "unit", "median", "q1", "q3", "iqr%", "range%",
           "vs bound/3"))
    for name in sorted(values):
        vals = values[name]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr = (q3 - q1) / median if median else float("nan")
        spread = (max(vals) - min(vals)) / median if median else float("nan")
        verdict = ""
        if name in limits:
            third = limits[name] / 3
            verdict = "%s (bound %.2f)" % (
                "ok" if iqr <= third else "WIDE", limits[name])
        print("%-38s %-6s %12.6g %12.6g %12.6g %8.2f %8.2f %s" %
              (name, units[name], median, q1, q3, 100 * iqr, 100 * spread,
               verdict))
    shares = sorted({f / a for f, a in failed_shares})
    print("\nfailed share per run: %s" % ", ".join("%.6f" % s for s in shares))


if __name__ == "__main__":
    main()
