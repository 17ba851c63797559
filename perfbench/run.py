#!/usr/bin/env python3
"""Build and run the padfa benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --regen [--write]   # expected outputs: diff, then accept
    python3 perfbench/run.py --self-test         # the benchmark's own tests

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt)
that compiles the library from ../src. It is configured and built under
$CARGO_TARGET_DIR (default .bench_build) in the current directory; the
first run builds, later runs only check that the build is current. Build
output goes to stderr, so the last line of stdout is always the result
object printed by the benchmark binary.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compile-cold", "exec-corpus", "serve-edits")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir, targets):
    """Configure once, then build `targets`; all output goes to stderr."""
    if not os.path.isfile(os.path.join(os.path.dirname(HERE), "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to the benchmark")
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler temporaries inside the checkout
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--regen", action="store_true",
                   help="recompute expected outputs and print a diff")
    p.add_argument("--write", action="store_true",
                   help="with --regen: overwrite the committed expected files")
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    a = p.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    binary = os.path.join(build_dir, "perfbench")
    expected = os.path.join(HERE, "expected")

    if a.self_test:
        build(build_dir, ["perfbench_test"])
        test = os.path.join(build_dir, "perfbench_test")
        if not os.path.isfile(test):
            fail("GoogleTest not found; the self-test was not built")
        sys.exit(subprocess.run([test], cwd=build_dir).returncode)

    build(build_dir, ["perfbench"])
    if a.regen:
        cmd = [binary, "--regen", "--expected", expected] + (["--write"] if a.write else [])
    else:
        if a.workload is None:
            fail("--workload is required")
        cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--expected", expected, "--work-dir", build_dir]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
