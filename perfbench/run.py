#!/usr/bin/env python3
"""Builds and runs the Sailfish benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|small]

Workloads: fwd_cold, fwd_hot, x86_churn, region_day (see
perfbench/README.md). The first run configures and builds the library and
the benchmark binary (Release) into .bench_build/; later runs rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the benchmark's result object.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("fwd_cold", "fwd_hot", "x86_churn", "region_day")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, env):
    """Configures (once) and builds sf_perfbench; returns its path."""
    build_dir = os.path.join(root, ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "sf_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return os.path.join(build_dir, "sf_perfbench")


def git_describe(root, env):
    """`git describe` of the checkout, or "none" outside a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "describe", "--always",
                              "--dirty", "--tags"], capture_output=True,
                             text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "small"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    if not os.path.isfile(os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found beside perfbench/")
    root = os.getcwd()
    tmp = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compilers and the benchmark keep their scratch files in the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(root, env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size, "--git", git_describe(root, env)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{args.workload} exited {done.returncode}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
