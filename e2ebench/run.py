#!/usr/bin/env python3
"""Build and run the end-to-end co-estimation benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload nic_stream --seed 1 --seconds 20 --trace 0

Configures and builds e2ebench/ (which compiles ../src) into the directory
named by $CARGO_TARGET_DIR, or .bench_build when it is unset, then runs the
benchmark binary with the same arguments. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Exits non-zero without a result when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("nic_stream", "mesh_sweep", "serve_warm")


def build(build_dir, env):
    """Configures on first use, then builds only the benchmark target."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", "2"],
        stdout=sys.stderr, check=True, env=env)
    return os.path.join(build_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler and program temporaries stay inside the build directory.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        binary = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1

    # The serve workload binds an AF_UNIX socket in the build directory; a
    # relative path keeps it inside the 108-byte sun_path limit.
    out_dir = os.path.relpath(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    try:
        return subprocess.run(cmd, timeout=170, env=env).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded 170 s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
