#!/usr/bin/env python3
"""Builds the spx benchmark driver from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload oneshot3d --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the spx
library, spx_front, spx_shard and spx_perfbench) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the driver's
JSON result.  The exit code is the driver's: 1 on a wrong answer, and
non-zero without a result when the build or the run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot3d", "timestep2d", "serve", "wire")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: spx sources not found next to perfbench/")
    os.makedirs(build_dir, exist_ok=True)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "spx_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir]
    # Own process group, so a hung run takes its forked fleet down with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run timed out")


if __name__ == "__main__":
    sys.exit(main())
