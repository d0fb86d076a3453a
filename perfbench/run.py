#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fleet-distinct --seed 1 --seconds 10 --trace 0

Builds the darpa library and the perfbench binary into .bench_build/ at the
repository root (Release), trains the paper model once if .bench_build/ has
none (training is never timed), then runs the binary and relays its output;
its last line is the JSON result. The exit status is the binary's: nonzero
when the correctness gate fails. Build and training output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
MODEL = BUILD / "darpa_model_default.bin"
WORKLOADS = ("fleet-distinct", "fleet-shared", "device-replay")

BUILD_TIMEOUT_S = 600
TRAIN_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_to_stderr(cmd, timeout):
    """Runs cmd with its output on stderr; dies if it fails or times out."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=timeout, cwd=ROOT)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        die(f"{' '.join(map(str, cmd))}: {err}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no repository sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_to_stderr(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release", *generator],
                      BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_to_stderr(["cmake", "--build", BUILD, "--target", "perfbench",
                   "-j", jobs], BUILD_TIMEOUT_S)
    if not MODEL.is_file():
        run_to_stderr([BINARY, "--prepare", "--model", MODEL],
                      TRAIN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in (0, 600]")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--model", str(MODEL)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
