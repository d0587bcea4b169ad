#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload warm_open --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (with the library sources in src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs the
arithmetic self-test, then runs one workload. Build output goes to stderr;
the benchmark's report goes to stdout and its last line is the JSON
result. Exits non-zero if the build, the self-test or any output check
fails, or if the run does not finish within its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("warm_open", "cold_open", "rw_mix", "proxy_zipf")
RUN_TIMEOUT_S = 170
WORK_DIR = ".perfbench_work"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: the library sources (src/) are missing")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the build failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr).returncode:
        fail("the build failed")
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")], stdout=sys.stderr)
    if selftest.returncode != 0:
        fail("the arithmetic self-test failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    build(build_dir)

    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    trace_dir = os.path.join(WORK_DIR, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "scalla_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", run_dir,
    ]
    if args.trace:
        command += ["--trace-out", os.path.join(trace_dir, f"{args.workload}.spans")]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        print(f"perfbench: the run failed (exit {proc.returncode})", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
