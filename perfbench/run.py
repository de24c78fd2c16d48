#!/usr/bin/env python3
"""Builds and runs the repository benchmark (the `nbl-perfbench` crate).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds `perfbench/` in release mode from source (into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs one measurement in a
child process with a scratch directory of its own under `.perfbench_tmp/`,
removes that directory afterwards, and passes the child's output through:
the last line of standard output is the run's JSON summary. It exits with
the child's code, or non-zero without a summary if the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("baseline-grid", "assoc-store", "oracle-cells")
# A run must end within 180 s; leave room to stop the child and clean up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    root = os.getcwd()
    manifest = os.path.join("perfbench", "Cargo.toml")
    env = {k: v for k, v in os.environ.items() if not k.startswith("NBL_")}
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(root, target, "release", "nbl-perfbench")

    scratch = os.path.join(root, ".perfbench_tmp", "run-%d" % os.getpid())
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp", scratch,
    ]
    # On SIGTERM, unwind through `finally` so the child is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, env=env)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run's scratch directory is still there


if __name__ == "__main__":
    sys.exit(main())
