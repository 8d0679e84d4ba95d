#!/usr/bin/env python3
"""The repository's benchmark: builds the perfbench binary from source, then
runs one workload on it.

    python3 perfbench/run.py --workload <soak64|fabric512|chanstorm> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds the
binary and the simulator libraries (RelWithDebInfo) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; build output goes to standard error. The binary's standard output is
passed through: a human-readable report, then one JSON result as the last
line. The exit code is the binary's: 0 when every correctness check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("soak64", "fabric512", "chanstorm")


def build(build_dir):
    """Configure once, then bring the binary up to date; True on success."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources not found at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 1

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    out_dir = os.path.join(build_dir, "reports")
    os.makedirs(out_dir, exist_ok=True)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    sys.stdout.flush()
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--config-dir", os.path.join(HERE, "workloads"),
           "--out-dir", out_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
