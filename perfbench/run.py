#!/usr/bin/env python3
"""Build and run the hoopnvm benchmark.

    python3 perfbench/run.py --workload txn_mix --seed 1 --seconds 20 --trace 0

Builds the library from ../src and the benchmark binary in perfbench/src with CMake
(Release) into $CARGO_TARGET_DIR, or .bench_build at the repository root
when it is unset, then runs the binary. All build output goes to stderr; the
binary's report goes to stdout and its last line is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is the binary's,
or 1 when the build or run fails (nothing is printed as a result then).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("txn_mix", "gc_recovery", "read_write_mix", "crash_sweep")
DEFAULT_SEED = 1
# The binary is given this long per run; it stops on its own well before.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configure and build the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            # Build chatter goes to stderr so stdout stays the report.
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return None
        if r.returncode != 0:
            print(f"perfbench: {' '.join(cmd[:2])} exited {r.returncode}",
                  file=sys.stderr)
            return None
    exe = os.path.join(out_dir, "perfbench")
    return exe if os.path.isfile(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes: every workload in seconds")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    exe = build(out_dir)
    if exe is None:
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out_dir, f"trace_{args.workload}.json")]
    try:
        # run() kills and reaps the binary if it overruns.
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if r.returncode != 0 or not ok:
        sys.stderr.write(r.stdout)
        print(f"perfbench: binary exited {r.returncode} without a result",
              file=sys.stderr)
        return r.returncode or 1
    sys.stdout.write(r.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
