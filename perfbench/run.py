#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_lru --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the simulator libraries under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
perfbench binary.  The binary's stdout is passed through; its last line is
the JSON result.  The simulator's stderr goes to a log file in the build
directory, where the binary counts its lines.  Exits with the binary's
status, or 2 when the sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fleet_lru", "goal_days", "goal_faulted")
# The whole run, build check included, must end within 180 s.
DEADLINE_S = 175.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(build_dir):
    """Configures once, then builds incrementally. Returns an error or None."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT).returncode:
                return "configure failed, see " + log_path
        if subprocess.run(["cmake", "--build", build_dir, "-j", "4"], stdout=log,
                          stderr=subprocess.STDOUT).returncode:
            return "build failed, see " + log_path
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("simulator sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    error = build(build_dir)
    if error:
        return fail(error)

    log_file = os.path.join(build_dir, "stderr-%s-trace%d.log" % (args.workload, args.trace))
    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--log-file", log_file]
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                                timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        return fail("benchmark did not finish within %.0f s" % DEADLINE_S)
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
