#!/usr/bin/env python3
"""Builds and runs the planner benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the ayd library from src/ plus the benchmark program) into
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The exit code is the benchmark's: non-zero when the build fails or any
check fails.
"""
import argparse
import glob
import os
import shutil
import subprocess
import sys

WORKLOADS = ["plan-plain", "plan-extended", "sweep-crn", "serve-zipf"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.getcwd()
    source = os.path.join(root, "perfbench")
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    configure = ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build, "Makefile")):
        configure += ["-G", "Ninja"]
    for step in (configure, ["cmake", "--build", build, "-j", "3"]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return 1

    scratch = os.path.join(build, "run-%d" % os.getpid())
    cmd = [os.path.join(build, "ayd_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--scratch", scratch]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        # The program removes its own scratch directory and unlinks its
        # shared-memory segments; this only matters if it died early.
        shutil.rmtree(scratch, ignore_errors=True)
        for seg in glob.glob("/dev/shm/aydpb-layers-%d" % proc.pid):
            os.unlink(seg)
    return code


if __name__ == "__main__":
    sys.exit(main())
