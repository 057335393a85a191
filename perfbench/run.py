#!/usr/bin/env python3
"""Build (when needed) and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <decode-long|serve-mixed|efta-attention>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.  The OpenMP team is capped
at the CPUs this process may run on.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("decode-long", "serve-mixed", "efta-attention")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(ROOT, "src")):
        return fail(f"no library sources next to {HERE}; run from a checkout")

    build = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build")), "perfbench")
    ncpu = len(os.sched_getaffinity(0))
    try:
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, timeout=300)
        subprocess.run(["cmake", "--build", build, "-j", str(ncpu)],
                       stdout=sys.stderr, check=True, timeout=850)
    except (subprocess.SubprocessError, OSError) as e:
        return fail(f"build failed: {e}")

    env = dict(os.environ)
    threads = ncpu
    try:
        threads = max(1, min(ncpu, int(env.get("OMP_NUM_THREADS", ncpu))))
    except ValueError:
        pass
    env["OMP_NUM_THREADS"] = str(threads)
    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", os.path.join(build, "runs")]
    try:
        return subprocess.run(cmd, env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        return fail("run timed out")


if __name__ == "__main__":
    sys.exit(main())
