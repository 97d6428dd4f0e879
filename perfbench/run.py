#!/usr/bin/env python3
"""Builds and runs the SWEB runtime benchmark.

    python3 perfbench/run.py --workload static_hot --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
perfbench/ (a CMake project over ../src) as a Release build in
.bench_build/perfbench; later runs rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. The
exit status is the benchmark's: 0 when every check passed, nonzero
otherwise (including when the sources cannot be built).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sweb_perfbench")
WORKLOADS = ("static_hot", "cluster_mixed", "cgi_open")


def build():
    """Configures (once) and builds the benchmark; True on success."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, **quiet) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           **quiet) == 0


def git_commit():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, PERFBENCH_GIT_COMMIT=git_commit())
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.call(command, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
