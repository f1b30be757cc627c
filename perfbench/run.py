#!/usr/bin/env python3
"""Build and run the gpsm host-performance benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload incore_translate --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles gpsm's
libraries from src/) into .bench_build/perfbench; later calls rebuild
incrementally. Build output goes to stderr. The benchmark's own stdout
is passed through, so its last line is the JSON result.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's unit tests and a small smoke run of
every workload instead.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Every worker count is fixed and at most the core count: the compiler,
# gpsm's dataset builder (GPSM_BUILD_JOBS) and the experiment pool,
# which the benchmark itself pins to one worker.
JOBS = max(1, min(4, os.cpu_count() or 1))


def build():
    env = dict(os.environ, GPSM_BUILD_JOBS="1")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", str(JOBS)],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_binary(name, args):
    env = dict(os.environ, GPSM_BUILD_JOBS="1")
    return subprocess.run([os.path.join(BUILD, name)] + args,
                          env=env).returncode


def self_test():
    """Unit tests, catalogue check and a tiny run of every workload."""
    if not os.path.exists(os.path.join(BUILD, "perfbench_tests")):
        sys.stderr.write("perfbench: GoogleTest not found, "
                         "unit tests not built\n")
        return 1
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    code = run_binary("perfbench_tests", ["--gtest_brief=1"])
    if code != 0:
        return code
    env = dict(os.environ, PERFBENCH_JSON=bench_json,
               PERFBENCH_BIN=os.path.join(BUILD, "gpsm_perfbench"))
    return subprocess.run(
        [sys.executable, "-m", "unittest", "-q", "test_run"],
        cwd=os.path.join(HERE, "tests"), env=env).returncode


def main(argv):
    if not build():
        return 1
    if argv == ["--self-test"]:
        return self_test()
    return run_binary("gpsm_perfbench", argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
