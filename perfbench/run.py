#!/usr/bin/env python3
"""Builds perfbench from the repository's sources and runs one workload.

    python3 perfbench/run.py --workload ingest|reads|mixed --seed N \
        --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
dppr library and the benchmark binary under .bench_build/ (or under
$CARGO_TARGET_DIR when that is set); later runs only rebuild what
changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit code is the
benchmark's: 0 when every check passed, non-zero otherwise (including
when there is no source tree to build).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "reads", "mixed")
# A run must end within 180 s; leave room for the wrapper itself.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Push team per workload. ingest and mixed run a team of one: on a 4-core
# box shared with other tenants, each thread the process keeps busy is one
# more core it needs to find free, and a team's barriers wait for its
# slowest thread, so a 2-thread team's figures spread several times wider.
# No workload sets OMP_WAIT_POLICY.
PUSH_TEAM = {"ingest": "1", "reads": "2", "mixed": "1"}
# ingest and mixed run on a single core, so their threads (the feeder,
# maintenance, the query worker, the reader) share that core among
# themselves: a run needs one free core rather than two, and how the core
# is split is up to the process's own threads rather than to the host's
# other load.
ONE_CORE = {"ingest", "mixed"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The Makefile appears only when a configure step succeeded.
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-G", "Unix Makefiles", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            done = None
        if done is None or done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    env = dict(os.environ)
    if args.workload in PUSH_TEAM:
        env["OMP_NUM_THREADS"] = PUSH_TEAM[args.workload]
    else:
        env.pop("OMP_NUM_THREADS", None)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch", os.path.join(os.path.dirname(build_dir()),
                                         "perfbench-scratch")]
    pin = None
    if args.workload in ONE_CORE:
        core = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {core})  # noqa: E731
    sys.stdout.flush()
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, preexec_fn=pin,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
