#!/usr/bin/env python3
"""Builds the SP-Cube benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <uniform|wiki-skew|drift-stale|pig-wiki>
                             --seed <n> --seconds <s> --trace <0|1>

The first call configures and compiles perfbench/ (the library from src/
included) into .bench_build/perfbench; later calls only re-check it. Build
output goes to standard error, so the harness's JSON result stays the last
line of standard output. Spill files go to .bench_build/tmp. Exits non-zero
without a result when the sources or the toolchain are missing, and with the
harness's own status otherwise.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "spcube_perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build():
    """Configures (once) and builds the harness; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; cannot build the library",
              file=sys.stderr)
        return False
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "spcube_perfbench",
                  "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    sys.stdout.flush()
    child = subprocess.Popen([BINARY] + sys.argv[1:], env=env, cwd=ROOT)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness exceeded %d s; killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        child.kill()
        child.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
