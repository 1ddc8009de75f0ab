#!/usr/bin/env python3
"""Build and run the netchar benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-spec --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-golden

The first call configures and builds perfbench/ (the measured layers
of src/ plus netchar_perfbench) into .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Any failure exits non-zero
without printing a result. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "perfbench-work")
GOLDEN = os.path.join("perfbench", "golden", "digests.txt")


def run(cmd):
    """Run cmd from the repository root with stdout sent to stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode


def build():
    if not os.path.exists(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        code = run(["cmake", "-S", "perfbench", "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                "netchar_perfbench", "perfbench_selftest"])


def main(argv):
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    if argv == ["--selftest"]:
        return run([os.path.join(BUILD, "perfbench_selftest")])
    if argv == ["--record-golden"]:
        return run([os.path.join(BUILD, "netchar_perfbench"),
                    "--record-golden", GOLDEN])
    # netchar_perfbench writes its JSON result as the last stdout line.
    return subprocess.run(
        [os.path.join(BUILD, "netchar_perfbench"), *argv,
         "--golden", GOLDEN, "--work-dir", WORK],
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
