#!/usr/bin/env python3
"""Build and run the PET end-to-end + per-layer benchmark.

    python3 perfbench/run.py --workload ls32-secn1 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (which pulls in the simulator sources from the checkout) into the
directory named by $CARGO_TARGET_DIR, default .bench_build; later calls only
let the build tool confirm it is up to date. Build output goes to stderr.
The benchmark's own output, ending in one JSON line, goes to stdout, and its
exit status is passed through.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "pet_perfbench"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    log = sys.stderr
    configured = any(os.path.exists(os.path.join(out_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", BINARY, "-j", jobs],
        check=True, stdout=log, stderr=log)
    return os.path.join(out_dir, BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--models", os.path.join(ROOT, "pretrain_cache")]
    if args.trace == "1":
        cmd += ["--artifact-dir", os.path.join(out_dir, "artifacts")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
