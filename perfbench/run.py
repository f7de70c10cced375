#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload continuous|harvest|fleet \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Configures and builds perfbench/ (the ehdnn library from src/ plus the
benchmark) with CMake under the build directory, then runs the benchmark
binary. The binary's last stdout line is the result JSON; it is relayed
only when the run succeeds, otherwise this script exits non-zero without
printing a result. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A cache configured from another source tree cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = next((line.split("=", 1)[1].strip() for line in f
                         if line.startswith("CMAKE_HOME_DIRECTORY:")), "")
        if os.path.realpath(home) != os.path.realpath(HERE):
            shutil.rmtree(bdir)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", "3"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    build(bdir)

    if args.selftest:
        cmd = [os.path.join(bdir, "perfbench_selftest"), "--root", ROOT]
        sys.exit(subprocess.run(cmd).returncode)

    if args.workload is None or args.seed is None:
        fail("--workload and --seed are required")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
           "--root", ROOT]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(bdir, f"spans-{args.workload}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("last output line is not the result JSON")
    if not isinstance(result, dict) or "metrics" not in result:
        fail("last output line is not the result JSON")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
