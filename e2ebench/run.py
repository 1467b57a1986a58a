#!/usr/bin/env python3
"""End-to-end benchmark of mpcspan: builds the driver from source, runs its
self-tests, then runs one workload and forwards the driver's output.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of stdout is the driver's JSON result. Build logs go to stderr.
The build tree is $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; the driver's artifacts and traces go to its work/ directory.
The exit code is nonzero when the build, a self-test or an output check
fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver gets --seconds for its timed rounds plus this much for set-up
# (graph, three artifact builds, three daemon starts), the last round's
# overrun and the output checks.
SETUP_ALLOWANCE_S = 120


def run(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "cmake")
    work = os.path.join(os.path.dirname(build), "work")
    os.makedirs(work, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
               600, stdout=sys.stderr) != 0:
            return 1
    if run(["cmake", "--build", build, "-j", jobs], 850, stdout=sys.stderr) != 0:
        return 1
    if run([os.path.join(build, "harness_test")], 60, stdout=sys.stderr) != 0:
        return 1
    return run([os.path.join(build, "e2e_driver"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", args.trace,
                "--workdir", work], args.seconds + SETUP_ALLOWANCE_S)


if __name__ == "__main__":
    sys.exit(main())
